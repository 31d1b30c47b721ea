"""Spans recorded by the benchmark around calls into rgbgame's public functions.

A span is (id, name, start, end, parent, op): ``name`` is ``<module>.<function>``
for a library call, or the op's own name for the span that encloses one op.
Spans stay in memory and are written out once, when the run ends.  Nothing
here imports rgbgame or numpy; callers pass the modules in.
"""

from __future__ import annotations

import json
import statistics
import time
from types import SimpleNamespace

#: The public functions the workloads call, by module.  Per-layer metrics
#: are named ``<module>.<function>.calls``, ``.busy_s`` and ``.ms_p50``.
LAYER_FUNCTIONS = {
    "strategies": (
        "family_strategy",
        "win_probability",
        "mix",
        "rgrb",
        "l1_distance",
        "local_bound",
        "enumerate_winning_deterministic_boxes",
        "deterministic_strategy",
    ),
    "locality": (
        "is_no_signalling",
        "decompose_one_way",
        "recompose_one_way",
        "r_sig_box",
        "l_sig_box",
        "pr_box",
        "solve_ns_unique",
    ),
    "wiring": ("evaluate_wiring", "noisy_pr", "rgrb_from_pr", "pr_from_rgrb"),
    "quantum": (
        "singlet",
        "projector_from_angle",
        "trine_strategy",
        "quantum_strategy_table",
        "reduce_to_binary",
        "correlations_from_table",
    ),
    "bell": ("bell_quantity", "alternating_ascent", "certify_quantum_bound"),
    "formats": ("dump_box", "load_box", "dump_wiring", "load_wiring"),
}

#: Layers that get a self-time metric.  ``cli`` spans are whole CLI
#: processes; ``bench`` spans are in-process ops minus their library calls,
#: i.e. the benchmark's own glue.
SELF_TIME_LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS) + ("bench",)


def _text_bytes(text) -> int:
    return len(text.encode("utf-8"))


#: Work counts taken from a call's arguments or result, as (suffix, fn).
COUNTERS = {
    "formats.dump_box": ("bytes", lambda args, result: _text_bytes(result)),
    "formats.dump_wiring": ("bytes", lambda args, result: _text_bytes(result)),
    "formats.load_box": ("bytes", lambda args, result: _text_bytes(args[0])),
    "formats.load_wiring": ("bytes", lambda args, result: _text_bytes(args[0])),
    "bell.alternating_ascent": (
        "sweeps",
        lambda args, result: len(result.sweep_values) - 1,
    ),
}

#: Counts about CLI processes, from ``-X importtime`` and probe processes.
CLI_METRICS = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.command_ms", "ms"),
    ("cli.numpy_imported", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            base = f"{module}.{fn}"
            names += [(f"{base}.calls", "count"), (f"{base}.busy_s", "s"), (f"{base}.ms_p50", "ms")]
    names += [(f"{name}.{suffix}", suffix) for name, (suffix, _) in COUNTERS.items()]
    names += [(f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS]
    names += list(CLI_METRICS)
    names += [
        ("bench.numpy_imports_outside_rgbgame", "count"),
        ("trace.overhead_ops_per_s", "1/s"),
    ]
    return names


class Tracer:
    """Collects spans; ``wrap`` gives a function that records one per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run_op(self, name: str, op: int, fn, *args):
        """Call fn(*args) inside the span that encloses op number ``op``."""
        self.op = op
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[counter[0]] = counter[1](args, result)
            return result

        return traced

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by another process under the open span."""
        parent = self._stack[-1]["id"] if self._stack else None
        offset = len(self.spans)
        for span in spans:
            span = dict(span, id=span["id"] + offset, op=self.op)
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            self.spans.append(span)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def library(modules: dict, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespaces of the workload-facing functions, e.g. ``lib.strategies.mix``.

    ``modules`` maps a layer name to its imported rgbgame module.  With a
    tracer every function records a span; without one the namespaces hold the
    library's own functions, so untraced runs pay nothing.
    """
    layers = {}
    for layer, module in modules.items():
        fns = {}
        for fn in LAYER_FUNCTIONS[layer]:
            raw = getattr(module, fn)
            fns[fn] = tracer.wrap(f"{layer}.{fn}", raw) if tracer else raw
        layers[layer] = SimpleNamespace(**fns)
    return SimpleNamespace(**layers)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-function calls, busy time and median latency, counters, and the
    self time of each layer (a span's duration minus its direct children)."""
    durations: dict[str, list[float]] = {}
    children: dict[int, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        durations.setdefault(span["name"], []).append(duration)
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + duration

    metrics = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            values = durations.get(name, [])
            metrics[f"{name}.calls"] = len(values)
            metrics[f"{name}.busy_s"] = sum(values)
            metrics[f"{name}.ms_p50"] = statistics.median(values) * 1000 if values else 0.0
    for name, (suffix, _) in COUNTERS.items():
        metrics[f"{name}.{suffix}"] = sum(s.get(suffix, 0) for s in spans if s["name"] == name)
    self_time = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        own = span["end"] - span["start"] - children.get(span["id"], 0.0)
        self_time[layer] = self_time.get(layer, 0.0) + own
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics


def parse_importtime(stderr: str) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative microseconds) for each ``-X importtime`` line,
    in the order the interpreter printed them (a module after its imports)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        field = parts[2].rstrip()
        name = field.lstrip()
        depth = (len(field) - len(name) - 1) // 2
        rows.append((depth, name, int(parts[1])))
    return rows


def importers(rows, module: str) -> list[str | None]:
    """For each import of ``module``, the module whose import caused it
    (``None`` for a top-level import)."""
    found = []
    for i, (depth, name, _) in enumerate(rows):
        if name != module:
            continue
        parent = None
        for later_depth, later_name, _ in rows[i + 1:]:
            if later_depth < depth:
                parent = later_name
                break
        found.append(parent)
    return found
