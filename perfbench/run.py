"""Benchmark of the rgbgame toolkit, end to end and per module.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the package is used from ``src`` as it is, with
nothing to build.  Workloads (see workloads.py; all are closed loops with one
client and one op at a time):

- ``cli-session``: one fresh ``python -m rgbgame.cli`` process per op, over a
  fixed mix of all twelve subcommands.  Interpreter start and imports are
  most of a process, so only here can start-up work show.
- ``exact-boxes``: exact Fraction tables through strategies, locality, wiring
  and formats, in process, without the local bound and without numpy.
- ``game-scaling``: local bounds of seeded 3- and 4-letter games; the one
  superlinear algorithm, kept apart so that it cannot swamp the others.
- ``quantum-numeric``: float tables from qubit strategies near the trine, the
  Bell quantity and a seeded alternating ascent.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (launch
of a fresh worker until its first op can start: interpreter, ``import
rgbgame``, inputs; median of several launches), ``op_ms_p90`` and
``peak_rss_mb``.  ``ops_per_s`` and ``op_ms_p50`` are printed with them (see
END_TO_END for why they are not in the result line), and ``fail_ratio`` is
printed and carried by the ``failed``/``attempted`` fields of the result.
With ``--trace 1`` the run reports the per-layer metrics of tracing.py and
writes every span to ``.perfbench-out/``.  The last line of stdout is the
JSON result; a run counts as ``correct`` when every failed op is one of the
program's known defects.  The benchmark's own tests:
``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from worker import ops_per_s

#: Fresh workers whose set-up is timed, besides the one that runs the ops:
#: half before the timed phase and half after it, so that the median samples
#: two moments of a machine whose speed drifts.  One more, untimed, warms
#: the bytecode caches first.
SETUP_PROBES = 8
#: Environment of every process the benchmark starts.  ``import numpy``
#: starts a BLAS thread pool as wide as the machine; on a 2-vCPU shared host
#: a CLI process then took ~210 ms when the second vCPU was free and ~320 ms
#: when another tenant held it, and the two came and went for minutes.  With
#: one thread it took 230-270 ms either way.  The workloads use no threads
#: of their own, and their matrices (4x4 at most) are far too small for a
#: pool to pay.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Seconds a worker may take beyond the measured phase before it is killed.
WORKER_SLACK_S = 120

HERE = Path(__file__).resolve().parent

#: The end-to-end metrics of the result line.  ``ops_per_s`` and the median
#: op latency are printed but not among them: on a shared machine CPU-bound
#: Python runs at two speeds that come and go with other tenants' load for
#: tens of seconds to minutes, and both follow the share of time spent at the
#: fast one.  On a 2-core shared Xeon, ten exact-boxes runs spread (quartile
#: distance over median) by 0.36 in the median and up to 0.22 in ops_per_s,
#: too close to or past the largest bound a regression gate may use.  The
#: 90th percentile sits at the slow speed and spread by at most 0.16 on every
#: workload.
END_TO_END = ("setup_s", "op_ms_p90", "peak_rss_mb")


class BenchError(Exception):
    pass


class Worker:
    """A worker process, timed from launch until it reports ``ready``."""

    def __init__(self, args, workdir: Path, env: dict, importtime_file=None, spans_file=None):
        command = [sys.executable]
        if importtime_file is not None:
            command += ["-X", "importtime"]
        command += [
            str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
        ]
        if spans_file is not None:
            command += ["--trace-file", str(spans_file)]
        self.stderr = open(importtime_file, "w") if importtime_file is not None else None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, env=env,
        )

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish("stop", 10)
            raise BenchError(f"worker did not start (said {line.strip()!r})")
        return time.perf_counter() - self.started

    def finish(self, command: str, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"worker still running after {timeout:.0f} s; killed") from None
        finally:
            if self.stderr is not None:
                self.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with status {self.proc.returncode}")
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict, setups: list[float], subprocesses: bool) -> tuple[dict, list[str]]:
    latencies = result["latencies_ms"]
    n = len(latencies)
    p90 = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(result), "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setups)} worker launches",
        "ops_per_s": f"n={n} ops; op time only, answer checks excluded",
        "op_ms_p50": f"n={n}",
        "op_ms_p90": f"n={n}, {sum(v > p90 for v in latencies)} above",
        "peak_rss_mb": "largest CLI child process" if subprocesses else "worker process",
    }
    lines = [f"{name} = {value:.6g} {unit} ({samples[name]})" for name, (value, unit) in metrics.items()]
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in END_TO_END}, lines


def numpy_outside_rgbgame(importtime_file: Path) -> int:
    """Imports of numpy in the worker that no rgbgame module caused."""
    rows = tracing.parse_importtime(importtime_file.read_text())
    return sum(not (who or "").startswith("rgbgame") for who in tracing.importers(rows, "numpy"))


def run_workload(args, root: Path, out_dir: Path, env: dict) -> int:
    """One run of ``args.workload``: its report, then the JSON result line."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    importtime_file = out_dir / f"{stem}.importtime.txt" if args.trace else None
    spans_file = out_dir / f"{stem}.spans.jsonl" if args.trace else None

    def probe(n: int) -> float:
        worker = Worker(args, out_dir / f"{stem}-work{n}", env)
        seconds = worker.ready()
        worker.finish("stop", 30)
        return seconds

    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        probe(0)
        setups = [probe(n) for n in range(1, probes + 1)]
        worker = Worker(args, out_dir / f"{stem}-work", env, importtime_file, spans_file)
        setups.append(worker.ready())
        result = json.loads(worker.finish("go", args.seconds + WORKER_SLACK_S).splitlines()[-1])
        setups += [probe(n) for n in range(probes + 1, 2 * probes + 1)]
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    info = result["machine"]
    caches = ", ".join(f"{k} {v // 1024} KiB" for k, v in info["cache_bytes"].items()) or "unknown"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: python {info['python']}, numpy {info['numpy']}, cpu_count {info['cpu_count']}, "
          f"caches {caches}; {info['note']}")
    attempted = len(result["latencies_ms"])
    failed = result["known"] + result["unexpected"]
    if args.trace:
        per_layer = dict(result["per_layer"])
        per_layer["bench.numpy_imports_outside_rgbgame"] = numpy_outside_rgbgame(importtime_file)
        units = dict(tracing.per_layer_names())
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in units.items()}
        for line in result["lines"]:
            print(line)
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(f"spans: {spans_file.relative_to(root)}")
    else:
        subprocesses = workloads.WORKLOADS[args.workload].subprocesses
        metrics, lines = end_to_end(result, setups, subprocesses)
        for line in lines:
            print(line)
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} ops; "
          f"{result['known']} known defects, {result['unexpected']} unexpected)")
    for message, count in sorted(result["failures"].items()):
        print(f"  {count} x {message}")
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], required=True,
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rgbgame" / "__init__.py").is_file():
        print("perfbench: src/rgbgame not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": name}), root, out_dir, env)
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
