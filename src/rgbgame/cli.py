"""Command-line front end: every analysis as a deterministic subcommand.

Given the same arguments (and seed, where one applies) stdout is
byte-identical across runs; the command's own wall time is reported on stderr
so timing noise never touches the canonical output.  That time excludes
interpreter start and imports, which are most of a short process: the bell
and quantum layers, which four commands import on demand, are loaded before
the clock starts.  No command loads numpy.  Exit codes: 0 success, 1 a
verification failed, 2 bad input.  ``--json`` swaps the table rendering for a
JSON report carrying the same values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import formats, locality, strategies, wiring


def value_str(v) -> str:
    """Exact values as plain fractions ("8/9", "1"), floats as %.17g."""
    if isinstance(v, float):
        return "%.17g" % v
    return str(Fraction(v))


def _matrix_lines(matrix) -> list[str]:
    return ["  " + " ".join("%4.1f" % v for v in row) for row in matrix]


def _report(command: str, inputs: dict, results: dict) -> dict:
    return {"command": command, "inputs": inputs, "results": results}


def _result_lines(results: dict) -> list[str]:
    """`name: value` table lines of JSON results: "_" reads as a space,
    booleans as yes/no, and lists are joined with spaces."""

    def text(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, list):
            return " ".join(value)
        return str(value)

    return [f"{name.replace('_', ' ')}: {text(v)}" for name, v in results.items()]


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, table lines, json report)


def cmd_bounds(args):
    if args.game == "chsh":
        game = strategies.chsh_game()
        local_value, _, _ = strategies.local_bound(game)
        ns_win = strategies.win_probability(locality.pr_box(), game)
        rows = [("local", value_str(local_value)), ("no-signalling", value_str(ns_win))]
        lines = [" | ".join(row) for row in rows]
        results = {"rows": [{"class": name, "win": win} for name, win in rows]}
        return 0, lines, _report("bounds", {"game": "chsh"}, results)

    from . import bell

    game = strategies.rgb_game()
    inputs = {"game": "rgb", "tolerance": args.tolerance}

    local_value, _, _ = strategies.local_bound(game)
    bell_local, _ = bell.deterministic_bell_maximum()
    ns_win = strategies.win_probability(strategies.rgrb(), game)
    bell_ns = bell.bell_quantity(
        bell.correlations_from_table(bell.reduce_to_binary(strategies.rgrb()))
    )

    quantum_win = strategies.win_probability(bell.trine_table(), game)
    try:
        certificate = bell.certify_quantum_bound(args.tolerance)
    except bell.CertificationError as err:
        line = f"FAIL: {err}"
        return 1, [line], _report("bounds", inputs, {"error": str(err)})
    if quantum_win != Fraction(11, 12):
        line = f"FAIL: trine strategy wins {value_str(quantum_win)}, not 11/12"
        return 1, [line], _report("bounds", inputs, {"error": line[6:]})

    rows = [
        ("local", value_str(local_value), value_str(bell_local)),
        ("quantum", value_str(quantum_win), value_str(certificate.bound)),
        ("no-signalling", value_str(ns_win), value_str(bell_ns)),
    ]
    lines = [" | ".join(row) for row in rows]
    results = {"rows": [{"class": n, "win": w, "bell": r} for n, w, r in rows]}
    return 0, lines, _report("bounds", inputs, results)


def cmd_enumerate(args):
    game = strategies.rgb_game() if args.game == "rgb" else strategies.chsh_game()
    count = strategies.enumerate_winning_deterministic_boxes(game)
    lines = [f"winning deterministic boxes: {count}"]
    return 0, lines, _report("enumerate", {"game": args.game}, {"count": count})


_REDUCTIONS = ("pr-from-rgrb", "rgrb-from-pr")


def cmd_verify_reduction(args):
    if args.reduction == "pr-from-rgrb":
        protocol, base, target = wiring.pr_from_rgrb(), strategies.rgrb(), locality.pr_box()
    else:
        protocol, base, target = wiring.rgrb_from_pr(), locality.pr_box(), strategies.rgrb()
    composed = wiring.evaluate_wiring(protocol, base)
    dist = strategies.l1_distance(composed, target)
    ok = dist == 0
    text = formats.probability_to_string(dist)
    lines = [f"distance {text}, {'PASS' if ok else 'FAIL'}"]
    results = {"distance": text, "pass": ok}
    return (0 if ok else 1), lines, _report(
        "verify-reduction", {"reduction": args.reduction}, results
    )


def cmd_ns_check(args):
    table = formats.load_box_file(args.file)
    atol = 0 if table.is_exact else 1e-9
    ok, witness = locality.is_no_signalling(table, atol=atol)
    inputs = {"file": args.file}
    if ok:
        return 0, ["no-signalling: yes"], _report(
            "ns-check", inputs, {"no_signalling": True, "witness": None}
        )
    lines = [f"SIGNALS, witness: {witness}"]
    results = {"no_signalling": False, "witness": witness.to_json_dict()}
    return 1, lines, _report("ns-check", inputs, results)


def cmd_ns_unique(args):
    try:
        params = locality.solve_ns_unique()
    except ArithmeticError as err:
        return 1, [f"FAIL: {err}"], _report("ns-unique", {}, {"error": str(err)})
    matches = strategies.l1_distance(strategies.family_strategy(params), strategies.rgrb()) == 0
    names = strategies.parameter_names()
    values = [formats.probability_to_string(v) for v in params.as_vector()]
    lines = [f"{name} = {v}" for name, v in zip(names, values)]
    lines.append(f"matches rgrb: {'yes' if matches else 'no'}")
    results = {
        "parameters": dict(zip(names, values)),
        "matches_rgrb": matches,
    }
    return (0 if matches else 1), lines, _report("ns-unique", {}, results)


def cmd_quantum(args):
    from . import bell, quantum

    def strategy(angles):
        return quantum.QubitStrategy(
            tuple(quantum.projector_from_angle(t) for t in angles)
        )

    table = quantum.quantum_strategy_table(
        quantum.singlet(), strategy(args.alice_angles), strategy(args.bob_angles)
    )
    win = strategies.win_probability(table, strategies.rgb_game())
    corr = quantum.correlations_from_table(quantum.reduce_to_binary(table))
    r = bell.bell_quantity(corr)
    if args.output:
        formats.save_box(table, args.output)
    lines = [
        "alice angles: " + " ".join(value_str(t) for t in args.alice_angles),
        "bob angles: " + " ".join(value_str(t) for t in args.bob_angles),
        f"win probability: {value_str(win)}",
        f"bell quantity: {value_str(r)}",
        "correlations:",
    ]
    lines += ["  " + " ".join(value_str(c) for c in row) for row in corr]
    results = {
        "win": value_str(win),
        "bell_quantity": value_str(r),
        "correlations": [[value_str(c) for c in row] for row in corr],
    }
    inputs = {
        "alice_angles": list(args.alice_angles),
        "bob_angles": list(args.bob_angles),
        "output": args.output,
    }
    return 0, lines, _report("quantum", inputs, results)


def cmd_sdp_certify(args):
    from . import bell

    inputs = {"tolerance": args.tolerance}
    try:
        report = bell.certify_quantum_bound(args.tolerance)
    except bell.CertificationError as err:
        return 1, [f"FAIL: {err}"], _report("sdp-certify", inputs, {"error": str(err)})
    results = {
        "primal_value": value_str(report.primal_value),
        "dual_value": value_str(report.dual_value),
        "gap": value_str(report.gap),
        "primal_eigenvalues": [value_str(e) for e in report.primal_eigenvalues],
        "dual_slack_eigenvalues": [
            value_str(e) for e in report.dual_slack_eigenvalues
        ],
        "bound": value_str(report.bound),
        "implied_win_bound": value_str(report.implied_win_bound),
    }
    lines = _result_lines(results) + [
        "objective matrix:",
        *_matrix_lines(bell.W_EXACT),
        "optimal gram matrix:",
        *_matrix_lines(bell.GRAM_EXACT),
        "dual multipliers:",
        *_matrix_lines(bell.MULTIPLIERS_EXACT),
    ]
    return 0, lines, _report("sdp-certify", inputs, results)


def cmd_sdp_optimize(args):
    from . import bell

    result = bell.alternating_ascent(args.seed, args.restarts)
    sweeps = result.sweep_values
    monotone = all(b - a >= -1e-9 for a, b in zip(sweeps, sweeps[1:]))
    gram = bell.gram_from_vectors([*result.strategy.alice, *result.strategy.bob])
    rank = sum(1 for e in bell.sym_eigenvalues(gram) if e > 1e-6)
    results = {
        "best_value": value_str(result.value),
        "sweeps": len(sweeps) - 1,
        "monotone": monotone,
        "gram_rank": rank,
    }
    inputs = {"seed": args.seed, "restarts": args.restarts}
    lines = _result_lines({**inputs, **results})
    return 0, lines, _report("sdp-optimize", inputs, results)


def cmd_distance(args):
    table_a = formats.load_box_file(args.file_a)
    table_b = formats.load_box_file(args.file_b)
    dist = strategies.l1_distance(table_a, table_b)
    results = {"distance": formats.probability_to_string(dist)}
    inputs = {"file_a": args.file_a, "file_b": args.file_b}
    return 0, _result_lines(results), _report("distance", inputs, results)


def _emit_document(command, inputs, doc, text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        lines = [f"wrote {output}"]
    else:
        lines = [text.rstrip("\n")]
    return 0, lines, _report(command, inputs, doc)


def cmd_apply_wiring(args):
    protocol = formats.load_wiring_file(args.wiring_file)
    base = formats.load_box_file(args.box_file)
    composed = wiring.evaluate_wiring(protocol, base)
    doc = formats.box_to_json_dict(composed)
    inputs = {
        "wiring_file": args.wiring_file,
        "box_file": args.box_file,
        "output": args.output,
    }
    return _emit_document(
        "apply-wiring", inputs, doc, formats.dump_box(composed), args.output
    )


_NAMED_BOXES = {
    "rgb0": strategies.rgb0,
    "rgrb": strategies.rgrb,
    "pr": locality.pr_box,
    "parity-flip": wiring.parity_flip_box,
    "identity": locality.id_box,
    "sig": locality.sig_box,
    "r-sig": locality.r_sig_box,
    "l-sig": locality.l_sig_box,
}

_NAMED_WIRINGS = {
    "pr-from-rgrb": wiring.pr_from_rgrb,
    "rgrb-from-pr": wiring.rgrb_from_pr,
}


def cmd_export_box(args):
    table = _NAMED_BOXES[args.name]()
    doc = formats.box_to_json_dict(table)
    inputs = {"name": args.name, "output": args.output}
    return _emit_document(
        "export-box", inputs, doc, formats.dump_box(table), args.output
    )


def cmd_export_wiring(args):
    protocol = _NAMED_WIRINGS[args.name]()
    doc = formats.wiring_to_json_dict(protocol)
    inputs = {"name": args.name, "output": args.output}
    return _emit_document(
        "export-wiring", inputs, doc, formats.dump_wiring(protocol), args.output
    )


# ---------------------------------------------------------------------------
# parser


def _finite_float(what: str, minimum: float = -math.inf):
    """An argparse type for finite floats no smaller than ``minimum``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= minimum):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value

    return parse


def _int_at_least(minimum: int, what: str):
    """An argparse type for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value

    return parse


_tolerance = _finite_float("finite nonnegative number", minimum=0.0)
_angle = _finite_float("finite number")
_seed = _int_at_least(0, "nonnegative integer")
_restarts = _int_at_least(1, "positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgbgame",
        description="Exact analysis of the three-colour nonlocal game: "
        "bounds, reductions, no-signalling checks, quantum simulation, "
        "and optimality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of a table"
    )
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument(
        "--game",
        choices=("rgb", "chsh"),
        default="rgb",
        help="which game to analyse (default rgb)",
    )

    p = sub.add_parser(
        "bounds",
        parents=[common, game],
        help="local / quantum / no-signalling win bounds and Bell bounds",
    )
    p.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-9,
        help="slack for the quantum certificate checks (default 1e-9)",
    )
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser(
        "enumerate",
        parents=[common, game],
        help="count deterministic boxes that win on every input pair",
    )
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser(
        "verify-reduction",
        parents=[common],
        help="evaluate a built-in wiring and compare to its target box",
    )
    p.add_argument("reduction", choices=_REDUCTIONS)
    p.set_defaults(handler=cmd_verify_reduction)

    p = sub.add_parser(
        "ns-check", parents=[common], help="test a box file for signalling"
    )
    p.add_argument("file")
    p.set_defaults(handler=cmd_ns_check)

    p = sub.add_parser(
        "ns-unique",
        parents=[common],
        help="solve the no-signalling constraints on the winning family",
    )
    p.set_defaults(handler=cmd_ns_unique)

    p = sub.add_parser(
        "quantum",
        parents=[common],
        help="simulate a projective qubit strategy on the singlet",
    )
    p.add_argument(
        "--alice-angles",
        type=_angle,
        nargs=3,
        default=(0.0, -120.0, 120.0),
        metavar=("A0", "A1", "A2"),
        help="Bloch angles in degrees, x-z plane (default trine)",
    )
    p.add_argument(
        "--bob-angles",
        type=_angle,
        nargs=3,
        default=(0.0, -120.0, 120.0),
        metavar=("B0", "B1", "B2"),
        help="Bloch angles in degrees, x-z plane (default trine)",
    )
    p.add_argument("--output", help="also write the table as a box file")
    p.set_defaults(handler=cmd_quantum)

    p = sub.add_parser(
        "sdp-certify",
        parents=[common],
        help="verify the matching primal/dual certificate of the quantum bound",
    )
    p.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-9,
        help="feasibility and gap slack (default 1e-9)",
    )
    p.set_defaults(handler=cmd_sdp_certify)

    p = sub.add_parser(
        "sdp-optimize",
        parents=[common],
        help="seeded alternating ascent over unit-vector strategies",
    )
    p.add_argument("--seed", type=_seed, required=True, help="RNG seed (required)")
    p.add_argument(
        "--restarts", type=_restarts, default=20, help="independent restarts (default 20)"
    )
    p.set_defaults(handler=cmd_sdp_optimize)

    p = sub.add_parser(
        "distance", parents=[common], help="l1 distance between two box files"
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser(
        "apply-wiring",
        parents=[common],
        help="evaluate a wiring file over a base box file",
    )
    p.add_argument("wiring_file")
    p.add_argument("box_file")
    p.add_argument("--output", help="write the resulting box here instead of stdout")
    p.set_defaults(handler=cmd_apply_wiring)

    p = sub.add_parser(
        "export-box", parents=[common], help="write a named built-in box"
    )
    p.add_argument("name", choices=sorted(_NAMED_BOXES))
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_export_box)

    p = sub.add_parser(
        "export-wiring", parents=[common], help="write a named built-in wiring"
    )
    p.add_argument("name", choices=sorted(_NAMED_WIRINGS))
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_export_wiring)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Imported before the clock starts, so the wall time stays command-only.
    if args.handler in (cmd_bounds, cmd_quantum, cmd_sdp_certify, cmd_sdp_optimize):
        from . import bell, quantum  # noqa: F401
    start = time.perf_counter()
    try:
        code, lines, report = args.handler(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        print(
            f"wall time: {time.perf_counter() - start:.3f}s"
            " (command only; excludes interpreter start and imports)",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
