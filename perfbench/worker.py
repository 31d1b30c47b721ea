"""One fresh process per workload: set up, say ``ready``, then run the ops.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--trace-file FILE]

After setup (imports, inputs from the seed, input files) the worker prints
``ready`` and reads one line: ``stop`` ends it, ``go`` starts the timed phase.
The result is one JSON line on stdout.  Untraced, the phase runs for S
seconds, in whole cycles of the workload's mix and for at least its min_ops.
Traced, an untraced half and a traced half of S/2 seconds each give the
tracing overhead; the spans of the traced half give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

def machine() -> dict:
    """What the figures were measured on.  numpy's version is read from its
    package metadata, so the benchmark never imports it."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    caches = {}
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
        for line in getconf.stdout.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0].removesuffix("_SIZE")] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cache_bytes": caches,
        "note": "shared machine, neither pinned nor quiesced: figures are noisy",
    }


def run_phase(workload, ctx, inputs, seconds, min_ops, tracer=None) -> dict:
    """Ops in a closed loop until the deadline, a cycle boundary and min_ops."""
    latencies, failures = [], {}
    known = unexpected = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % workload.cycle or time.perf_counter() < deadline or i < min_ops:
        inp = inputs[i % len(inputs)]
        out, exc = {}, None
        start = time.perf_counter()
        try:
            if tracer is None:
                workload.run(ctx, inp, out)
            else:
                tracer.run_op(workload.op_name(inp), i, workload.run, ctx, inp, out)
        except Exception as err:  # a raising op is a counted failure, not the end of the run
            exc = err
        latencies.append((time.perf_counter() - start) * 1000)
        verdict = workload.check(inp, out, exc)
        if verdict is not None:
            is_known, message = verdict
            known += is_known
            unexpected += not is_known
            key = ("known defect: " if is_known else "UNEXPECTED: ") + message
            failures[key] = failures.get(key, 0) + 1
        i += 1
    return {"latencies_ms": latencies, "known": known, "unexpected": unexpected, "failures": failures}


def ops_per_s(phase: dict) -> float:
    """Ops per second of op time; the benchmark's own answer checks are excluded."""
    return len(phase["latencies_ms"]) / (sum(phase["latencies_ms"]) / 1000)


def measure(workload, modules, inputs, args):
    """The run's result, and its tracer (None when untraced)."""
    untraced = SimpleNamespace(lib=tracing.library(modules))
    if not args.trace:
        phase = run_phase(workload, untraced, inputs, args.seconds, workload.min_ops)
        who = resource.RUSAGE_CHILDREN if workload.subprocesses else resource.RUSAGE_SELF
        phase["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        return phase, None

    plain = run_phase(workload, untraced, inputs, args.seconds / 2, 0)
    tracer = tracing.Tracer()
    workload.begin_trace(tracer)
    traced_ctx = SimpleNamespace(lib=tracing.library(modules, tracer))
    traced = run_phase(workload, traced_ctx, inputs, args.seconds / 2, 0, tracer)
    per_layer = tracing.layer_metrics(tracer.spans)
    extra, lines = workload.trace_metrics()
    per_layer.update(extra)
    per_layer["trace.overhead_ops_per_s"] = ops_per_s(plain) - ops_per_s(traced)
    lines.append(
        f"tracing overhead: {ops_per_s(plain):.2f} ops/s untraced (n={len(plain['latencies_ms'])}) vs "
        f"{ops_per_s(traced):.2f} ops/s traced (n={len(traced['latencies_ms'])})"
    )
    failures = dict(plain["failures"])
    for key, count in traced["failures"].items():
        failures[key] = failures.get(key, 0) + count
    return {
        "latencies_ms": plain["latencies_ms"] + traced["latencies_ms"],
        "known": plain["known"] + traced["known"],
        "unexpected": plain["unexpected"] + traced["unexpected"],
        "failures": failures,
        "per_layer": per_layer,
        "lines": lines,
    }, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    args.workdir.mkdir(parents=True)
    try:
        modules = {layer: importlib.import_module(f"rgbgame.{layer}") for layer in workload.layers}
        inputs = workload.make_inputs(args.seed)
        workload.setup(modules, inputs, args.workdir)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result, tracer = measure(workload, modules, inputs, args)
        result["machine"] = machine()
        if tracer is not None:
            header = {"workload": workload.name, "seed": args.seed, "machine": result["machine"]}
            tracer.write(args.trace_file, header)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
