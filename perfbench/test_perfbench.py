"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAMED_FUNCTIONS = (
    "strategies.family_strategy", "strategies.win_probability", "strategies.mix",
    "strategies.l1_distance", "strategies.local_bound",
    "strategies.enumerate_winning_deterministic_boxes", "strategies.deterministic_strategy",
    "locality.is_no_signalling", "locality.decompose_one_way", "locality.recompose_one_way",
    "locality.r_sig_box", "locality.l_sig_box", "locality.pr_box", "locality.solve_ns_unique",
    "wiring.evaluate_wiring", "wiring.rgrb_from_pr", "wiring.pr_from_rgrb", "wiring.noisy_pr",
    "quantum.quantum_strategy_table", "quantum.singlet", "quantum.reduce_to_binary",
    "quantum.correlations_from_table", "bell.bell_quantity", "bell.alternating_ascent",
    "bell.certify_quantum_bound", "formats.dump_box", "formats.load_box",
    "formats.dump_wiring", "formats.load_wiring",
)
END_TO_END = {"setup_s", "op_ms_p90", "peak_rss_mb"}


def modules(names):
    return {name: importlib.import_module(f"rgbgame.{name}") for name in names}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    assert workload().make_inputs(7) == workload().make_inputs(7)
    assert workload().make_inputs(7) != workload().make_inputs(8)
    assert len(workload().make_inputs(7)) % workload.cycle == 0


def test_exact_boxes_checker_counts_tampered_results():
    workload = workloads.ExactBoxes()
    mods = modules(workload.layers)
    inputs = workload.make_inputs(3)
    workload.setup(mods, inputs, None)
    ctx = SimpleNamespace(lib=tracing.library(mods))
    for inp in inputs[:2]:
        out = {}
        workload.run(ctx, inp, out)
        assert workload.check(inp, out, None) is None
    out["noisy_win"] += Fraction(1, 100)
    assert workload.check(inp, out, None)[0] is False

    out = {}
    workload.run(ctx, inp, out)
    strategies = mods["strategies"]
    probs = list(out["loaded_box"].probs)
    row = probs[:9]  # the entries of input pair (0, 0)
    i, j = row.index(next(p for p in row if p != 0)), row.index(0)
    probs[i], probs[j] = probs[j], probs[i]  # one entry moved within its row
    out["loaded_box"] = strategies.StrategyTable(out["loaded_box"].shape, tuple(probs))
    assert workload.check(inp, out, None)[0] is False


def test_game_scaling_known_defect_is_only_the_enumeration_guard():
    workload = workloads.GameScaling()
    inputs = workload.make_inputs(3)
    four = next(inp for inp in inputs if inp["shape"] == (4, 4, 4, 4))
    three = inputs[1]
    guard = ValueError("deterministic box space exceeds the enumeration guard")
    bound = four["best_random"]
    assert workload.check(four, {"bound": bound, "pair_win": bound}, guard)[0] is True
    assert workload.check(three, {"bound": 1, "pair_win": 1}, guard)[0] is False
    assert workload.check(four, {"bound": bound, "pair_win": bound - Fraction(1, 16)}, guard)[0] is False
    rgb = inputs[0]
    assert workload.check(rgb, {"bound": Fraction(8, 9), "pair_win": Fraction(8, 9), "count": 5832}, None) is None
    assert workload.check(rgb, {"bound": Fraction(7, 9), "pair_win": Fraction(7, 9), "count": 5832}, None)[0] is False


def test_quantum_checker_counts_tampered_results():
    workload = workloads.QuantumNumeric()
    mods = modules(workload.layers)
    inputs = workload.make_inputs(3)
    workload.setup(mods, inputs, None)
    ctx = SimpleNamespace(lib=tracing.library(mods))
    for inp in inputs[:2]:
        out = {}
        workload.run(ctx, inp, out)
        assert workload.check(inp, out, None) is None
    out["corr"] = ((out["corr"][0][0] + 1e-6,) + out["corr"][0][1:],) + out["corr"][1:]
    assert workload.check(inp, out, None)[0] is False


def cli_op(tmp_path, label):
    workload = workloads.CliSession()
    inputs = workload.make_inputs(3)
    workload.setup(modules(workload.layers), inputs, tmp_path)
    return workload, next(inp for inp in inputs if inp["label"] == label)


def cli_check(tmp_path, label, out):
    workload, inp = cli_op(tmp_path, label)
    return workload.check(inp, dict({"code": 0, "stderr": ""}, **out), None)


def test_cli_checker_counts_a_wrong_value_string(tmp_path):
    assert cli_check(tmp_path, "bounds", {"stdout": workloads.BELL_ROWS_RGB}) is None
    wrong = workloads.BELL_ROWS_RGB.replace("8/9", "7/9")
    assert cli_check(tmp_path, "bounds", {"stdout": wrong})[0] is False


def test_cli_checker_counts_a_box_with_one_entry_changed(tmp_path):
    workload, inp = cli_op(tmp_path, "export-box")
    name = inp["shared"]["export_name"]
    shape, entries = workloads.reference_box(name)
    records = [{"a": a, "b": b, "x": x, "y": y, "p": str(p)} for (a, b, x, y), p in sorted(entries.items())]
    doc = {"alphabets": list(shape), "table": records}
    out = {"code": 0, "stdout": "wrote exported.box\n", "stderr": ""}
    (tmp_path / "exported.box").write_text(json.dumps(doc))
    assert workload.check(inp, out, None) is None
    records[0]["y"] = (records[0]["y"] + 1) % shape[3]
    (tmp_path / "exported.box").write_text(json.dumps(doc))
    assert workload.check(inp, out, None)[0] is False


def test_cli_nan_box_is_the_known_defect_and_malformed_box_passes(tmp_path):
    accepted = {"stdout": "no-signalling: yes\n"}
    assert cli_check(tmp_path, "ns-check nan", accepted)[0] is True
    rejected = {"code": 2, "stdout": "", "stderr": "error: row (0,0) has a non-finite entry\n"}
    assert cli_check(tmp_path, "ns-check nan", rejected) is None
    assert cli_check(tmp_path, "ns-check malformed", rejected) is None
    assert cli_check(tmp_path, "ns-check malformed", accepted)[0] is False


def test_layer_metrics_self_time_and_counters():
    spans = [
        {"id": 0, "name": "bench.op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"id": 1, "name": "wiring.evaluate_wiring", "start": 1.0, "end": 5.0, "parent": 0, "op": 0},
        {"id": 2, "name": "formats.dump_box", "start": 2.0, "end": 3.0, "parent": 1, "op": 0, "bytes": 7},
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["wiring.evaluate_wiring.calls"] == 1
    assert metrics["wiring.evaluate_wiring.busy_s"] == 4.0
    assert metrics["wiring.self_s"] == 3.0
    assert metrics["formats.self_s"] == 1.0
    assert metrics["bench.self_s"] == 6.0
    assert metrics["formats.dump_box.bytes"] == 7
    assert metrics["strategies.local_bound.calls"] == 0


def test_importtime_parser_finds_who_imported_numpy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |         35 |   rgbgame.quantum",
        "import time:         5 |         40 | rgbgame",
        "import time:         3 |          3 | numpy",
    ])
    rows = tracing.parse_importtime(stderr)
    assert rows[1] == (2, "numpy", 30)
    assert tracing.importers(rows, "numpy") == ["rgbgame.quantum", None]


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == END_TO_END
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == tracing.per_layer_names()
    names = {name for name, _ in per_layer}
    for fn in NAMED_FUNCTIONS:
        assert {f"{fn}.calls", f"{fn}.busy_s", f"{fn}.ms_p50"} <= names
    assert {f"{layer}.self_s" for layer in ("cli", "strategies", "locality", "wiring",
                                              "quantum", "bell", "formats")} <= names
    assert {"cli.interpreter_ms", "cli.import_ms", "cli.command_ms", "cli.numpy_imported",
            "bell.alternating_ascent.sweeps", "formats.dump_box.bytes", "formats.load_box.bytes",
            "formats.dump_wiring.bytes", "formats.load_wiring.bytes",
            "trace.overhead_ops_per_s"} <= names
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric(trace):
    proc = run_bench("--workload", "exact-boxes", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert "fail_ratio = 0 " in proc.stdout
    if trace == "0":
        for name in END_TO_END | {"ops_per_s", "op_ms_p50"}:
            assert f"\n{name} = " in proc.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "exact-boxes", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_cli_session_splits_start_up_and_traces_the_library():
    proc = run_bench("--workload", "cli-session", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"], proc.stdout[-2000:]
    assert result["failed"] <= result["attempted"] // workloads.CliSession.cycle  # the NaN box only
    assert metrics["cli.interpreter_ms"] > 0 and metrics["cli.import_ms"] > 0
    assert metrics["locality.solve_ns_unique.calls"] >= 1
    assert metrics["bell.certify_quantum_bound.calls"] >= 1
    assert metrics["formats.load_box.bytes"] > 0
    assert metrics["bench.numpy_imports_outside_rgbgame"] == 0
