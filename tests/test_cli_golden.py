"""Golden outputs of the command line: exit code and exact stdout per argv.

``cli_golden.json`` holds one record per argv in ``CASES``.  It was captured
once, from a commit whose output was known good, and is not regenerated to
make this test pass: a refactor that changes one byte of stdout fails here.
Input files are written afresh into a temporary directory, and the
directory's path reads as ``{tmp}`` in both the argv and the stdout.

The ``quantum`` and ``sdp-optimize`` cases print floats at 17 significant
digits, so they also guard the floating-point evaluation order of the
simulation and of the Bell functional.  Those floats come from plain Python
arithmetic, so every case is also run in fresh interpreters where numpy
cannot be imported, or where OpenBLAS is made to pick another kernel.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rgbgame import cli
from rgbgame.formats import save_box, save_wiring
from rgbgame.locality import l_sig_box, pr_box, r_sig_box
from rgbgame.quantum import quantum_strategy_table, singlet, trine_strategy
from rgbgame.strategies import mix, rgb0, rgrb
from rgbgame.wiring import noisy_pr, pr_from_rgrb, rgrb_from_pr

GOLDEN = Path(__file__).with_name("cli_golden.json")
TMP = "{tmp}"


def write_inputs(directory: Path) -> None:
    """The box and wiring files the cases read."""
    boxes = {
        "rgrb.box": rgrb(),
        "rgb0.box": rgb0(),
        "pr.box": pr_box(),
        "l-sig.box": l_sig_box(),
        # exact right-signalling and float left-signalling mixtures
        "r-mix.box": mix([rgrb(), r_sig_box()], [Fraction(2, 3), Fraction(1, 3)]),
        "l-mix.box": mix([rgrb(), l_sig_box()], [0.75, 0.25]),
        "trine.box": quantum_strategy_table(singlet(), trine_strategy(), trine_strategy()),
        "noisy-pr.box": noisy_pr(0.9),
    }
    for name, table in boxes.items():
        save_box(table, directory / name)
    save_wiring(pr_from_rgrb(), directory / "pr-from-rgrb.json")
    save_wiring(rgrb_from_pr(), directory / "rgrb-from-pr.json")


def _angles(rng) -> list[str]:
    # Fixed-point text: argparse reads "-12.5" as a number, "-1e-05" as an option.
    return [f"{rng.uniform(-360.0, 360.0):.15f}" for _ in range(3)]


def _cases() -> list[list[str]]:
    cases = []
    for game in ("rgb", "chsh"):
        cases += [["bounds", "--game", game], ["enumerate", "--game", game]]
    cases += [["verify-reduction", name] for name in ("pr-from-rgrb", "rgrb-from-pr")]
    cases += [
        ["ns-check", f"{TMP}/{name}.box"]
        for name in ("rgrb", "trine", "rgb0", "r-mix", "l-sig", "l-mix")
    ]
    cases += [["ns-unique"], ["sdp-certify"]]
    cases += [
        ["distance", f"{TMP}/{a}.box", f"{TMP}/{b}.box"]
        for a, b in (("rgrb", "rgrb"), ("rgrb", "rgb0"), ("l-mix", "rgrb"), ("trine", "rgb0"))
    ]
    cases += [["sdp-optimize", "--seed", str(seed)] for seed in range(10)]
    cases += [
        ["sdp-optimize", "--seed", str(seed), "--restarts", str(restarts)]
        for seed, restarts in ((3, 1), (11, 2), (42, 5), (2019, 40))
    ]
    cases += [["quantum"], ["quantum", "--output", f"{TMP}/out.box"]]
    rng = random.Random(2019)
    for _ in range(30):
        cases.append(
            ["quantum", "--alice-angles", *_angles(rng), "--bob-angles", *_angles(rng)]
        )
    cases += [
        ["apply-wiring", f"{TMP}/pr-from-rgrb.json", f"{TMP}/rgrb.box"],
        ["apply-wiring", f"{TMP}/rgrb-from-pr.json", f"{TMP}/pr.box"],
        ["apply-wiring", f"{TMP}/rgrb-from-pr.json", f"{TMP}/noisy-pr.box"],
    ]
    cases += [
        ["export-box", name]
        for name in ("identity", "l-sig", "parity-flip", "pr", "r-sig", "rgb0", "rgrb", "sig")
    ]
    cases += [["export-wiring", name] for name in ("pr-from-rgrb", "rgrb-from-pr")]
    cases += [
        ["export-box", "pr", "--output", f"{TMP}/pr-out.box"],
        ["export-wiring", "pr-from-rgrb", "--output", f"{TMP}/w-out.json"],
    ]
    # every case above as a JSON report too, except the long float sweeps
    json_cases = [
        case + ["--json"]
        for case in cases
        if not (case[0] == "quantum" and "--alice-angles" in case)
    ]
    return cases + json_cases


CASES = _cases()


def capture(argv: list[str], directory: Path) -> tuple[int, str]:
    """Exit code and stdout of one argv, with ``{tmp}`` standing for ``directory``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace(TMP, str(directory)) for arg in argv])
    return code, out.getvalue().replace(str(directory), TMP)


@pytest.fixture(scope="module")
def golden() -> dict:
    records = json.loads(GOLDEN.read_text())
    return {tuple(r["argv"]): (r["exit_code"], r["stdout"]) for r in records}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(tuple(case) for case in CASES)


def test_every_subcommand_is_covered():
    assert {case[0] for case in CASES} == {
        "bounds", "enumerate", "verify-reduction", "ns-check", "ns-unique",
        "quantum", "sdp-certify", "sdp-optimize", "distance", "apply-wiring",
        "export-box", "export-wiring",
    }


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv, inputs, golden):
    assert capture(argv, inputs) == golden[tuple(argv)]


@pytest.mark.parametrize("argv", [c for c in CASES if "--json" in c], ids=" ".join)
def test_json_report_lists_the_command_and_every_parsed_option(argv, golden):
    report = json.loads(golden[tuple(argv)][1])
    parsed = vars(cli.build_parser().parse_args(argv))
    options = {k: v for k, v in parsed.items() if k not in ("command", "json")}
    assert report["command"] == argv[0]
    assert report["inputs"] == json.loads(json.dumps(options))


# Runs the argv list given as JSON in a fresh interpreter, optionally with
# numpy made unimportable, and prints each case's (exit code, stdout).
HOST_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
import test_cli_golden as golden
with tempfile.TemporaryDirectory() as tmp:
    golden.write_inputs(Path(tmp))
    with contextlib.redirect_stderr(io.StringIO()):
        results = [golden.capture(argv, Path(tmp)) for argv in json.loads(sys.argv[2])]
print(json.dumps({"results": results, "numpy": sys.modules.get("numpy") is not None}))
"""

FLOAT_CASES = [case for case in CASES if case[0] in ("quantum", "sdp-optimize")]


@pytest.mark.parametrize(
    "mode, coretype, cases",
    [
        ("block-numpy", None, CASES),
        ("", "Prescott", FLOAT_CASES),
        ("", "Haswell", FLOAT_CASES),
    ],
    ids=["numpy-blocked", "openblas-prescott", "openblas-haswell"],
)
def test_golden_output_does_not_depend_on_numpy_or_blas(mode, coretype, cases, golden):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(GOLDEN.parent)])}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run(
        [sys.executable, "-c", HOST_PROBE, mode, json.dumps(cases)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert not report["numpy"]
    assert [tuple(r) for r in report["results"]] == [golden[tuple(case)] for case in cases]
