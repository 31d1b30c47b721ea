"""A process loads only the layers it uses, and never numpy or dataclasses.

``import rgbgame`` loads no layer: every re-export resolves on first access.
Each CLI command imports exactly the layers it runs, inside its handler,
after its clock starts.  Every check runs in a fresh interpreter, because
this test process imported numpy and every layer long ago.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import rgbgame

SRC = Path(rgbgame.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# sorted(dir(rgbgame)) as it was when the package imported its layers
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
formats id_box is_no_signalling joint_prob
l1_distance l_sig_box lemma1_win load_box load_box_file
load_wiring load_wiring_file local_bound locality mix next_colour
noisy_composition_win noisy_parity_survival noisy_pr
parameter_names parity_flip_box pr_box pr_from_rgrb
prev_colour projector_from_angle quantum quantum_strategy_table r_sig_box
recompose_one_way reduce_to_binary rgb0 rgb_game rgb_predicate rgrb
rgrb_from_pr save_box save_wiring sig_box singlet solve_ns_unique strategies
sym_eigenvalues trine_projectors trine_strategy verify_dual verify_primal
win_from_correlations win_probability wiring wiring_from_json_dict
wiring_to_json_dict x_marginal y_marginal
""".split()

# Runs one CLI command in-process and prints its exit code, the rgbgame
# layers loaded when the wall-time clock starts, when it is last read and at
# the end, and whether numpy or dataclasses was ever loaded.
CLI_PROBE = """
import contextlib, io, json, sys, time
from rgbgame import cli

def layers():
    return sorted(
        name.removeprefix("rgbgame.")
        for name in sys.modules
        if name.startswith("rgbgame.") and name != "rgbgame.cli"
    )

real_clock = time.perf_counter
clock_reads = []

def clock():
    clock_reads.append(layers())
    return real_clock()

argv = json.loads(sys.argv[1])
time.perf_counter = clock
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(argv)
print(json.dumps({
    "code": code,
    "at_clock_start": clock_reads[0],
    "at_clock_stop": clock_reads[-1],
    "at_end": layers(),
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
}))
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


def test_import_loads_no_layer_and_every_name_resolves():
    result = run_python(
        "import json, sys\n"
        "import rgbgame\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('rgbgame.'))\n"
        "before = sorted(dir(rgbgame))\n"
        "for name in rgbgame.__all__:\n"
        "    getattr(rgbgame, name)\n"
        "print(json.dumps({'loaded': loaded, 'before': before, 'after': sorted(dir(rgbgame)),\n"
        "                  'numpy': 'numpy' in sys.modules,\n"
        "                  'dataclasses': 'dataclasses' in sys.modules}))\n"
    )
    assert result["loaded"] == []
    assert result["before"] == result["after"] == DIR_RGBGAME
    assert not result["numpy"]
    assert not result["dataclasses"]


def test_float_reexports_resolve_on_first_access():
    result = run_python(
        "import json, sys\n"
        "import rgbgame\n"
        "from rgbgame import trine_strategy, certify_quantum_bound\n"
        "report = certify_quantum_bound()\n"
        "print(json.dumps({\n"
        "    'bound': report.bound,\n"
        "    'trine': trine_strategy() is not None,\n"
        "    'w_shape': [len(row) for row in rgbgame.bell.W_EXACT],\n"
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


def _annotated(value):
    """A public function, or the functions a public class defines."""
    if inspect.isfunction(value):
        yield value
    elif inspect.isclass(value):
        for attr in vars(value).values():
            attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
            if inspect.isfunction(attr):
                yield attr


def test_every_public_annotation_resolves():
    # Annotations are strings, evaluated only when something asks for them,
    # so a name they use but no module imports fails only then.
    for name in rgbgame.__all__:
        for function in _annotated(getattr(rgbgame, name)):
            typing.get_type_hints(function)


# The public parameters that have a default.  A value the code can work out
# from its input, or one that only tests set, is not a parameter; a new
# default goes on this list on purpose.
DEFAULTED_PARAMETERS = {
    "deterministic_strategy.shape",
    "id_box.k",
    "r_sig_box.k",
    "l_sig_box.k",
    "sig_box.k",
    "alternating_ascent.restarts",
}


def test_public_parameters_with_defaults_are_listed():
    found = set()
    for name in rgbgame.__all__:
        value = getattr(rgbgame, name)
        if inspect.isclass(value):
            if "__init__" not in vars(value):
                continue
            value = value.__init__
        elif not callable(value):
            continue
        for parameter in inspect.signature(value).parameters.values():
            if parameter.default is not parameter.empty:
                found.add(f"{name}.{parameter.name}")
    assert found == DEFAULTED_PARAMETERS


# Every subcommand, its --game chsh and --output forms, and the layers each
# runs; a --json form adds formats, which writes the report.
COMMAND_LAYERS = [
    (["bounds"], {"strategies", "bell"}),
    (["bounds", "--game", "chsh"], {"strategies", "locality"}),
    (["enumerate"], {"strategies"}),
    (["enumerate", "--game", "chsh"], {"strategies"}),
    (["verify-reduction", "pr-from-rgrb"], {"strategies", "locality", "wiring"}),
    (["ns-check", "{rgrb}"], {"strategies", "locality", "formats"}),
    (["ns-unique"], {"strategies", "locality"}),
    (["quantum"], {"strategies", "bell", "quantum"}),
    (["quantum", "--output", "{out}"], {"strategies", "bell", "quantum", "formats"}),
    (["sdp-certify"], {"strategies", "bell"}),
    (["sdp-optimize", "--seed", "1", "--restarts", "2"], {"strategies", "bell"}),
    (["distance", "{rgrb}", "{rgb0}"], {"strategies", "formats"}),
    (["apply-wiring", "{wiring}", "{rgrb}"], {"strategies", "formats", "wiring"}),
    (["export-box", "rgb0"], {"strategies", "formats"}),
    (["export-box", "pr"], {"strategies", "formats", "locality"}),
    (["export-box", "parity-flip", "--output", "{out}"], {"strategies", "formats", "wiring"}),
    (["export-wiring", "pr-from-rgrb"], {"strategies", "formats", "wiring"}),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    from rgbgame import formats, strategies, wiring

    root = tmp_path_factory.mktemp("files")
    paths = {name: str(root / name) for name in ("rgrb", "rgb0", "wiring", "out")}
    formats.save_box(strategies.rgrb(), paths["rgrb"])
    formats.save_box(strategies.rgb0(), paths["rgb0"])
    formats.save_wiring(wiring.pr_from_rgrb(), paths["wiring"])
    return paths


def test_every_subcommand_is_covered():
    from rgbgame import cli

    assert {argv[0] for argv, _ in COMMAND_LAYERS} == set(cli._COMMANDS)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["table", "json"])
@pytest.mark.parametrize(
    "argv, layers", COMMAND_LAYERS, ids=[" ".join(argv) for argv, _ in COMMAND_LAYERS]
)
def test_each_subcommand_loads_its_layers_inside_the_clock(argv, layers, json_flag, files):
    # The stderr wall time includes the command's imports and its report, so
    # no layer is loaded when the clock starts, and every layer the command
    # runs, formats too under --json, is loaded when it stops.
    argv = [arg.format(**files) for arg in argv] + json_flag
    expected = sorted(layers | {"formats"} if json_flag else layers)
    r = run_python(CLI_PROBE, json.dumps(argv))
    assert r["code"] == 0, r
    assert r["at_clock_start"] == []
    assert r["at_clock_stop"] == r["at_end"] == expected
    assert not r["numpy"]
    assert not r["dataclasses"]


# Names a module imports only to hand them on: perfbench/ reads these two
# from quantum, though they live in bell.
REEXPORTS = {"quantum.py": {"correlations_from_table", "reduce_to_binary"}}


def unused_imports(source: str) -> list[str]:
    """The names a module's import statements bind but its code never reads.

    Reads are Name nodes, the base of an attribute chain included.  A name
    read only inside a quoted annotation counts as unused: with ``from
    __future__ import annotations`` no annotation needs quotes.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import itertools\nimport os.path\nfrom a import b, c as d\nprint(os, d)\n"
    assert unused_imports(source) == ["itertools", "b"]


def test_no_module_imports_a_name_it_never_uses():
    # No linter is installed; this is the check that stands in for one.
    found = {}
    for path in sorted((SRC / "rgbgame").glob("*.py")) + sorted(TESTS.glob("*.py")):
        unused = set(unused_imports(path.read_text())) - REEXPORTS.get(path.name, set())
        if unused:
            found[path.name] = sorted(unused)
    assert found == {}


def imported_modules(source: str) -> set[str]:
    """The top-level packages a module imports, relative imports aside."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path, numbers as n\nfrom numbers import Real\nfrom . import x\n"
    assert imported_modules(source) == {"os", "numbers"}
    assert imported_modules("from decimal import Decimal\n") == {"decimal"}


def test_only_strategies_imports_numbers():
    # One rule reads every number a caller passes: strategies._number.
    importers = [
        path.name
        for path in sorted((SRC / "rgbgame").glob("*.py"))
        if "numbers" in imported_modules(path.read_text())
    ]
    assert importers == ["strategies.py"]


def helpers(source: str) -> list[str]:
    """The functions and classes a module defines at top level, tests aside."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("test_")
    ]


def test_helpers_are_found():
    source = "def test_a():\n    def b(): pass\nclass C: pass\ndef _d(): pass\nE = 1\n"
    assert helpers(source) == ["C", "_d"]


def test_no_helper_is_defined_in_two_test_modules():
    # A helper two test files need lives once, in oracles.py.
    modules = {}
    for path in sorted(TESTS.glob("*.py")):
        for name in helpers(path.read_text()):
            modules.setdefault(name, []).append(path.name)
    assert {name: found for name, found in modules.items() if len(found) > 1} == {}
