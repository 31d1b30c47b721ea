"""No layer loads numpy, and the bell and quantum layers load on demand.

``import rgbgame`` loads only the exact layers (strategies, locality,
wiring, formats); the bell and quantum re-exports resolve on first access,
and the CLI imports those two layers before its clock starts.  Every check
runs in a fresh interpreter, because this test process imported numpy long
ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rgbgame

SRC = Path(rgbgame.__file__).resolve().parents[1]

# sorted(dir(rgbgame)) as it was when the package imported quantum and bell
# eagerly: the lazy re-exports must not change what the package lists.
DIR_RGBGAME = """
AscentResult BLUE BoxFormatError CertificateReport CertificationError
Direction GREEN Game LinearSystem OneWayProtocol QubitStrategy RED
SignallingError SignallingWitness StrategyTable VectorStrategy
WinningFamilyParams WiringFormatError WiringProtocol __builtins__ __cached__
__doc__ __file__ __loader__ __name__ __package__ __path__ __spec__
__version__ alternating_ascent bell bell_quantity box_from_json_dict
box_to_json_dict build_ns_constraints certify_quantum_bound chsh_game
correlations_from_table decompose_one_way deterministic_bell_maximum
deterministic_strategy dump_box dump_wiring
enumerate_winning_deterministic_boxes evaluate_wiring family_strategy
formats gram_from_vectors id_box is_no_signalling is_symmetric joint_prob
l1_distance l1_distance_to_set l_sig_box lemma1_win load_box load_box_file
load_wiring load_wiring_file local_bound locality mix next_colour
noisy_composition_win noisy_parity_survival noisy_pr optimal_gram
optimal_multipliers parameter_names parity_flip_box pr_box pr_from_rgrb
prev_colour projector_from_angle quantum quantum_strategy_table r_sig_box
recompose_one_way reduce_to_binary rgb0 rgb_game rgb_predicate rgrb
rgrb_from_pr save_box save_wiring sig_box singlet solve_ns_unique strategies
sym_eigenvalues trine_projectors trine_strategy verify_dual verify_primal
w_matrix win_from_correlations win_probability wiring wiring_from_json_dict
wiring_to_json_dict x_marginal y_marginal
""".split()

# Runs CLI subcommands in-process; prints, per command, its exit code, whether
# bell and quantum were loaded when the wall-time clock started, and whether
# numpy was loaded at the end.
CLI_PROBE = """
import contextlib, io, json, sys, time
from rgbgame import cli

real_clock = time.perf_counter
clock_reads = []

def clock():
    clock_reads.append({m: m in sys.modules for m in ("rgbgame.bell", "rgbgame.quantum")})
    return real_clock()

time.perf_counter = clock
report = []
for argv in json.loads(sys.argv[1]):
    del clock_reads[:]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report.append({
        "argv": argv,
        "code": code,
        "bell_at_clock_start": clock_reads[0]["rgbgame.bell"],
        "quantum_at_clock_start": clock_reads[0]["rgbgame.quantum"],
        "numpy_at_end": "numpy" in sys.modules,
    })
print(json.dumps(report))
"""


def run_python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter and decode the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_reexports_leave_numpy_unloaded():
    result = run_python(
        "import json, sys\n"
        "import rgbgame\n"
        "exact = [n for n in vars(rgbgame) if n not in rgbgame._LAZY]\n"
        "for name in exact:\n"
        "    getattr(rgbgame, name)\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'exact': exact,\n"
        "                  'dir': sorted(dir(rgbgame))}))\n"
    )
    assert not result["numpy"]
    for layer in ("strategies", "locality", "wiring", "formats"):
        assert layer in result["exact"]
    assert result["dir"] == DIR_RGBGAME


def test_float_reexports_resolve_on_first_access():
    result = run_python(
        "import json, sys\n"
        "import rgbgame\n"
        "from rgbgame import trine_strategy, certify_quantum_bound\n"
        "report = certify_quantum_bound()\n"
        "print(json.dumps({\n"
        "    'bound': report.bound,\n"
        "    'trine': trine_strategy() is not None,\n"
        "    'w_shape': [len(row) for row in rgbgame.bell.w_matrix()],\n"
        "    'singlet_len': len(rgbgame.quantum.singlet()),\n"
        "    'same': rgbgame.singlet is rgbgame.quantum.singlet,\n"
        "    'unknown': hasattr(rgbgame, 'no_such_name'),\n"
        "    'dir': sorted(dir(rgbgame)),\n"
        "}))\n"
    )
    assert result["bound"] == pytest.approx(9)
    assert result["trine"]
    assert result["w_shape"] == [6] * 6
    assert result["singlet_len"] == 4
    assert result["same"]
    assert not result["unknown"]
    assert result["dir"] == DIR_RGBGAME


def test_bell_exact_checks_leave_numpy_unloaded():
    result = run_python(
        "import json, sys\n"
        "import rgbgame\n"
        "for name, layer in rgbgame._LAZY.items():\n"
        "    if layer == 'bell':\n"
        "        getattr(rgbgame, name)\n"
        "from rgbgame import bell, strategies\n"
        "report = bell.certify_quantum_bound()\n"
        "win = strategies.win_probability(bell.trine_table(), strategies.rgb_game())\n"
        "binary = bell.reduce_to_binary(strategies.rgrb())\n"
        "r = bell.bell_quantity(bell.correlations_from_table(binary))\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'win': str(win),\n"
        "                  'r': str(r), 'bound': report.bound}))\n"
    )
    assert result == {"numpy": False, "win": "11/12", "r": "12", "bound": 9.0}


def test_star_import_binds_every_public_name():
    names = run_python(
        "import json\n"
        "namespace = {}\n"
        "exec('from rgbgame import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert names == [n for n in DIR_RGBGAME if not n.startswith("_")]


def test_exact_subcommands_leave_numpy_unloaded(tmp_path):
    box, other = tmp_path / "rgrb.box", tmp_path / "rgb0.box"
    wiring = tmp_path / "w.json"
    commands = [
        ["export-box", "rgrb", "--output", str(box)],
        ["export-box", "rgb0", "--output", str(other)],
        ["export-wiring", "pr-from-rgrb", "--output", str(wiring)],
        ["enumerate"],
        ["ns-unique"],
        ["ns-check", str(box)],
        ["verify-reduction", "pr-from-rgrb"],
        ["distance", str(box), str(other)],
        ["apply-wiring", str(wiring), str(box)],
        ["bounds", "--game", "chsh"],
        ["bounds"],
        ["sdp-certify"],
    ]
    report = run_python(CLI_PROBE, json.dumps(commands))
    assert [r["argv"] for r in report] == commands
    for r in report:
        assert r["code"] == 0, r
        assert not r["numpy_at_end"], r


@pytest.mark.parametrize("argv", [["bounds"], ["sdp-certify"]])
def test_exact_quantum_checks_load_bell_before_the_clock(argv):
    (r,) = run_python(CLI_PROBE, json.dumps([argv]))
    assert r["code"] == 0
    assert r["bell_at_clock_start"]
    assert not r["numpy_at_end"]


@pytest.mark.parametrize(
    "argv",
    [
        ["quantum", "--json"],
        ["quantum"],
        ["sdp-optimize", "--seed", "2", "--restarts", "1", "--json"],
        ["sdp-optimize", "--seed", "1", "--restarts", "2"],
    ],
)
def test_float_subcommands_load_bell_and_quantum_before_the_clock(argv):
    # The stderr wall time is labelled command-only, so the lazy import of
    # the float layers must happen before the clock starts.
    (r,) = run_python(CLI_PROBE, json.dumps([argv]))
    assert r["code"] == 0
    assert r["bell_at_clock_start"] and r["quantum_at_clock_start"]
    assert not r["numpy_at_end"]
