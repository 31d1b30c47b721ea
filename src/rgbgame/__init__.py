"""Exact toolkit for the three-colour nonlocal game.

Strategy tables with rational arithmetic, the winning-strategy family and
its unique no-signalling member, wiring reductions to and from the binary
XOR box, simulation of the optimal qubit strategy, and primal/dual
certificates for the quantum bound of the associated Bell inequality.
"""

from importlib import import_module as _import_module

from .strategies import (
    BLUE,
    GREEN,
    RED,
    Game,
    StrategyTable,
    WinningFamilyParams,
    chsh_game,
    deterministic_strategy,
    enumerate_winning_deterministic_boxes,
    family_strategy,
    l1_distance,
    l1_distance_to_set,
    local_bound,
    mix,
    next_colour,
    parameter_names,
    prev_colour,
    rgb0,
    rgb_game,
    rgb_predicate,
    rgrb,
    win_probability,
)
from .locality import (
    Direction,
    LinearSystem,
    OneWayProtocol,
    SignallingError,
    SignallingWitness,
    build_ns_constraints,
    decompose_one_way,
    id_box,
    is_no_signalling,
    is_symmetric,
    l_sig_box,
    pr_box,
    r_sig_box,
    recompose_one_way,
    sig_box,
    solve_ns_unique,
    x_marginal,
    y_marginal,
)
from .wiring import (
    WiringProtocol,
    evaluate_wiring,
    noisy_composition_win,
    noisy_parity_survival,
    noisy_pr,
    parity_flip_box,
    pr_from_rgrb,
    rgrb_from_pr,
)
from .formats import (
    BoxFormatError,
    WiringFormatError,
    box_from_json_dict,
    box_to_json_dict,
    dump_box,
    dump_wiring,
    load_box,
    load_box_file,
    load_wiring,
    load_wiring_file,
    save_box,
    save_wiring,
    wiring_from_json_dict,
    wiring_to_json_dict,
)

__version__ = "0.1.0"

# The quantum and bell layers and their re-exports, resolved on first access
# (PEP 562), only to keep them out of the import cost of the exact layers
# above: loading bell with `import rgbgame` would add 3-5 ms to every CLI
# process with bytecode cached, and 10-16 ms without (`-X importtime`).
_LAZY = {
    "quantum": "quantum",
    "QubitStrategy": "quantum",
    "joint_prob": "quantum",
    "projector_from_angle": "quantum",
    "quantum_strategy_table": "quantum",
    "singlet": "quantum",
    "trine_projectors": "quantum",
    "trine_strategy": "quantum",
    "bell": "bell",
    "AscentResult": "bell",
    "CertificateReport": "bell",
    "CertificationError": "bell",
    "VectorStrategy": "bell",
    "alternating_ascent": "bell",
    "bell_quantity": "bell",
    "certify_quantum_bound": "bell",
    "correlations_from_table": "bell",
    "deterministic_bell_maximum": "bell",
    "gram_from_vectors": "bell",
    "lemma1_win": "bell",
    "optimal_gram": "bell",
    "optimal_multipliers": "bell",
    "reduce_to_binary": "bell",
    "sym_eigenvalues": "bell",
    "verify_dual": "bell",
    "verify_primal": "bell",
    "w_matrix": "bell",
    "win_from_correlations": "bell",
}

# What `from rgbgame import *` binds: every public name, lazy ones included.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    try:
        layer = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f".{layer}", __name__)
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    helpers = {"_import_module", "_LAZY", "__all__", "__getattr__", "__dir__"}
    return sorted((globals().keys() - helpers) | _LAZY.keys())
