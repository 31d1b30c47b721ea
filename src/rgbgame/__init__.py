"""Exact toolkit for the three-colour nonlocal game.

Strategy tables with rational arithmetic, the winning-strategy family and
its unique no-signalling member, wiring reductions to and from the binary
XOR box, simulation of the optimal qubit strategy, and primal/dual
certificates for the quantum bound of the associated Bell inequality.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the layer that defines it, resolved on first access
# (PEP 562): ``import rgbgame`` loads no layer, so a CLI process compiles and
# runs only the layers its command uses.  The order is that of ``__all__``.
_LAYER_OF = {
    "strategies": "strategies",
    **dict.fromkeys("""
        BLUE GREEN RED Game StrategyTable WinningFamilyParams chsh_game
        deterministic_strategy enumerate_winning_deterministic_boxes family_strategy
        l1_distance local_bound mix next_colour parameter_names
        prev_colour rgb0 rgb_game rgb_predicate rgrb win_probability
    """.split(), "strategies"),
    "wiring": "wiring",
    "formats": "formats",
    "locality": "locality",
    **dict.fromkeys("""
        Direction LinearSystem OneWayProtocol SignallingError SignallingWitness
        build_ns_constraints decompose_one_way id_box is_no_signalling
        l_sig_box pr_box r_sig_box recompose_one_way sig_box solve_ns_unique
        x_marginal y_marginal
    """.split(), "locality"),
    **dict.fromkeys("""
        WiringProtocol evaluate_wiring noisy_composition_win noisy_parity_survival
        noisy_pr parity_flip_box pr_from_rgrb rgrb_from_pr
    """.split(), "wiring"),
    **dict.fromkeys("""
        BoxFormatError WiringFormatError box_from_json_dict box_to_json_dict dump_box
        dump_wiring load_box load_box_file load_wiring load_wiring_file save_box
        save_wiring wiring_from_json_dict wiring_to_json_dict
    """.split(), "formats"),
    "quantum": "quantum",
    **dict.fromkeys("""
        QubitStrategy joint_prob projector_from_angle quantum_strategy_table singlet
        trine_projectors trine_strategy
    """.split(), "quantum"),
    "bell": "bell",
    **dict.fromkeys("""
        AscentResult CertificateReport CertificationError VectorStrategy
        alternating_ascent bell_quantity certify_quantum_bound correlations_from_table
        deterministic_bell_maximum lemma1_win reduce_to_binary
        sym_eigenvalues verify_dual verify_primal win_from_correlations
    """.split(), "bell"),
}

# What `from rgbgame import *` binds: every public name.
__all__ = list(_LAYER_OF)


def __getattr__(name):
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f".{layer}", __name__)
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    helpers = {"_import_module", "_LAYER_OF", "__all__", "__getattr__", "__dir__"}
    return sorted((globals().keys() - helpers) | _LAYER_OF.keys())
