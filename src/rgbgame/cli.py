"""Command-line front end: every analysis as a deterministic subcommand.

Given the same arguments (and seed, where one applies) stdout is
byte-identical across runs; the command's wall time is reported on stderr
so timing noise never touches the canonical output.  That time covers the
command, the layers it imports and its output, leaving out interpreter start.
Each handler imports the layers it runs, and no others; no command loads
numpy.  Exit codes: 0 success, 1 a verification failed, 2 bad input.
``--json`` swaps the table rendering for a JSON report carrying the same
values: the command, every parsed option as its inputs, and the results.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

import rgbgame


def value_str(v) -> str:
    """Exact values as plain fractions ("8/9", "1"), floats as %.17g."""
    if isinstance(v, float):
        return "%.17g" % v
    return str(Fraction(v))


def _matrix_lines(matrix) -> list[str]:
    return ["  " + " ".join("%4.1f" % v for v in row) for row in matrix]


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


def _rows(rows) -> tuple[int, dict, list[str]]:
    """JSON rows and `class | win | bell` table lines of the bound rows."""
    results = {"rows": [dict(zip(("class", "win", "bell"), row)) for row in rows]}
    return 0, results, [" | ".join(row) for row in rows]


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, JSON results, table lines); main adds
# the command and its inputs.  A failed verification raises ArithmeticError.


def cmd_bounds(args):
    from . import strategies

    if args.game == "chsh":
        from . import locality

        game = strategies.chsh_game()
        local_value, _, _ = strategies.local_bound(game)
        ns_win = strategies.win_probability(locality.pr_box(), game)
        return _rows([("local", value_str(local_value)), ("no-signalling", value_str(ns_win))])

    from . import bell

    game = strategies.rgb_game()
    local_value, _, _ = strategies.local_bound(game)
    bell_local, _ = bell.deterministic_bell_maximum()
    ns_win = strategies.win_probability(strategies.rgrb(), game)
    bell_ns = bell.bell_quantity(
        bell.correlations_from_table(bell.reduce_to_binary(strategies.rgrb()))
    )

    quantum_win = strategies.win_probability(bell.trine_table(), game)
    certificate = bell.certify_quantum_bound()
    if quantum_win != Fraction(11, 12):
        raise bell.CertificationError(f"trine strategy wins {value_str(quantum_win)}, not 11/12")

    rows = [
        ("local", value_str(local_value), value_str(bell_local)),
        ("quantum", value_str(quantum_win), value_str(certificate.bound)),
        ("no-signalling", value_str(ns_win), value_str(bell_ns)),
    ]
    return _rows(rows)


def cmd_enumerate(args):
    from . import strategies

    game = strategies.rgb_game() if args.game == "rgb" else strategies.chsh_game()
    count = strategies.enumerate_winning_deterministic_boxes(game)
    return 0, {"count": count}, [f"winning deterministic boxes: {count}"]


def cmd_verify_reduction(args):
    from . import locality, strategies, wiring

    if args.reduction == "pr-from-rgrb":
        protocol, base, target = wiring.pr_from_rgrb(), strategies.rgrb(), locality.pr_box()
    else:
        protocol, base, target = wiring.rgrb_from_pr(), locality.pr_box(), strategies.rgrb()
    composed = wiring.evaluate_wiring(protocol, base)
    dist = strategies.l1_distance(composed, target)
    ok = dist == 0
    text = strategies.probability_to_string(dist)
    lines = [f"distance {text}, {'PASS' if ok else 'FAIL'}"]
    return (0 if ok else 1), {"distance": text, "pass": ok}, lines


def cmd_ns_check(args):
    from . import formats, locality

    table = formats.load_box_file(args.file)
    atol = 0 if table.is_exact else 1e-9
    ok, witness = locality.is_no_signalling(table, atol=atol)
    if ok:
        return 0, {"no_signalling": True, "witness": None}, ["no-signalling: yes"]
    results = {"no_signalling": False, "witness": witness.to_json_dict()}
    return 1, results, [f"SIGNALS, witness: {witness}"]


def cmd_ns_unique(args):
    from . import locality, strategies

    params = locality.solve_ns_unique()
    matches = strategies.l1_distance(strategies.family_strategy(params), strategies.rgrb()) == 0
    names = strategies.parameter_names()
    values = [strategies.probability_to_string(v) for v in params.as_vector()]
    lines = [f"{name} = {v}" for name, v in zip(names, values)]
    lines.append(f"matches rgrb: {'yes' if matches else 'no'}")
    results = {
        "parameters": dict(zip(names, values)),
        "matches_rgrb": matches,
    }
    return (0 if matches else 1), results, lines


def cmd_quantum(args):
    from . import bell, quantum, strategies

    def strategy(angles):
        return quantum.QubitStrategy(
            tuple(quantum.projector_from_angle(t) for t in angles)
        )

    table = quantum.quantum_strategy_table(
        quantum.singlet(), strategy(args.alice_angles), strategy(args.bob_angles)
    )
    win = strategies.win_probability(table, strategies.rgb_game())
    corr = bell.correlations_from_table(bell.reduce_to_binary(table))
    r = bell.bell_quantity(corr)
    if args.output:
        from . import formats

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
    return 0, results, lines


def cmd_sdp_certify(args):
    from . import bell

    report = bell.certify_quantum_bound().to_json_dict()
    results = {
        key: [value_str(e) for e in v] if isinstance(v, list) else value_str(v)
        for key, v in report.items()
    }
    lines = _result_lines(results) + [
        "objective matrix:",
        *_matrix_lines(bell.W_EXACT),
        "optimal gram matrix:",
        *_matrix_lines(bell.GRAM_EXACT),
        "dual multipliers:",
        *_matrix_lines(bell.MULTIPLIERS_EXACT),
    ]
    return 0, results, lines


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
    lines = _result_lines({"seed": args.seed, "restarts": args.restarts, **results})
    return 0, results, lines


def cmd_distance(args):
    from . import formats, strategies

    table_a = formats.load_box_file(args.file_a)
    table_b = formats.load_box_file(args.file_b)
    dist = strategies.l1_distance(table_a, table_b)
    results = {"distance": formats.probability_to_string(dist)}
    return 0, results, _result_lines(results)


def _emit_document(doc, output):
    """A box or wiring document as results; its text is written to ``output``
    or, without one, is the table."""
    from . import formats

    text = formats.json_text(doc)
    if not output:
        return 0, doc, [text.rstrip("\n")]
    with open(output, "w") as fh:
        fh.write(text)
    return 0, doc, [f"wrote {output}"]


def cmd_apply_wiring(args):
    from . import formats, wiring

    protocol = formats.load_wiring_file(args.wiring_file)
    base = formats.load_box_file(args.box_file)
    composed = wiring.evaluate_wiring(protocol, base)
    return _emit_document(formats.box_to_json_dict(composed), args.output)


# The built-in boxes and wirings by their public rgbgame names, which load
# the defining layer on first access.
_NAMED_BOXES = {
    "rgb0": "rgb0", "rgrb": "rgrb", "pr": "pr_box", "parity-flip": "parity_flip_box",
    "identity": "id_box", "sig": "sig_box", "r-sig": "r_sig_box", "l-sig": "l_sig_box",
}

_NAMED_WIRINGS = {"pr-from-rgrb": "pr_from_rgrb", "rgrb-from-pr": "rgrb_from_pr"}


def cmd_export_box(args):
    from . import formats

    box = getattr(rgbgame, _NAMED_BOXES[args.name])()
    return _emit_document(formats.box_to_json_dict(box), args.output)


def cmd_export_wiring(args):
    from . import formats

    protocol = getattr(rgbgame, _NAMED_WIRINGS[args.name])()
    return _emit_document(formats.wiring_to_json_dict(protocol), args.output)


# ---------------------------------------------------------------------------
# parser


def _number(kind, what: str, minimum: float = -math.inf):
    """An argparse type for finite ``kind`` numbers no smaller than ``minimum``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (abs(value) < math.inf and value >= minimum):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}")
        return value

    return parse


_angle = _number(float, "finite number")
_seed = _number(int, "nonnegative integer", minimum=0)
_restarts = _number(int, "positive integer", minimum=1)


_GAME = "--game", dict(
    choices=("rgb", "chsh"), default="rgb", help="which game to analyse (default rgb)"
)
_OUTPUT = "--output", dict(help="write to a file instead of stdout")


def _angles_option(flag: str, metavar: tuple[str, ...]):
    return flag, dict(
        type=_angle,
        nargs=3,
        default=(0.0, -120.0, 120.0),
        metavar=metavar,
        help="Bloch angles in degrees, x-z plane (default trine)",
    )


# name: (handler, help, options as (flag, add_argument keywords)).  Each
# command also takes --json.
_COMMANDS = {
    "bounds": (
        cmd_bounds,
        "local / quantum / no-signalling win bounds and Bell bounds",
        [_GAME],
    ),
    "enumerate": (
        cmd_enumerate,
        "count deterministic boxes that win on every input pair",
        [_GAME],
    ),
    "verify-reduction": (
        cmd_verify_reduction,
        "evaluate a built-in wiring and compare to its target box",
        [("reduction", dict(choices=sorted(_NAMED_WIRINGS)))],
    ),
    "ns-check": (
        cmd_ns_check,
        "test a box file for signalling",
        [("file", {})],
    ),
    "ns-unique": (
        cmd_ns_unique,
        "solve the no-signalling constraints on the winning family",
        [],
    ),
    "quantum": (
        cmd_quantum,
        "simulate a projective qubit strategy on the singlet",
        [
            _angles_option("--alice-angles", ("A0", "A1", "A2")),
            _angles_option("--bob-angles", ("B0", "B1", "B2")),
            ("--output", dict(help="also write the table as a box file")),
        ],
    ),
    "sdp-certify": (
        cmd_sdp_certify,
        "verify the matching primal/dual certificate of the quantum bound",
        [],
    ),
    "sdp-optimize": (
        cmd_sdp_optimize,
        "seeded alternating ascent over unit-vector strategies",
        [
            ("--seed", dict(type=_seed, required=True, help="RNG seed (required)")),
            ("--restarts", dict(
                type=_restarts, default=20, help="independent restarts (default 20)"
            )),
        ],
    ),
    "distance": (
        cmd_distance,
        "l1 distance between two box files",
        [("file_a", {}), ("file_b", {})],
    ),
    "apply-wiring": (
        cmd_apply_wiring,
        "evaluate a wiring file over a base box file",
        [
            ("wiring_file", {}),
            ("box_file", {}),
            ("--output", dict(help="write the resulting box here instead of stdout")),
        ],
    ),
    "export-box": (
        cmd_export_box,
        "write a named built-in box",
        [("name", dict(choices=sorted(_NAMED_BOXES))), _OUTPUT],
    ),
    "export-wiring": (
        cmd_export_wiring,
        "write a named built-in wiring",
        [("name", dict(choices=sorted(_NAMED_WIRINGS))), _OUTPUT],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgbgame",
        description="Exact analysis of the three-colour nonlocal game: "
        "bounds, reductions, no-signalling checks, quantum simulation, "
        "and optimality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--json", action="store_true", help="emit a JSON report instead of a table"
        )
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        try:
            code, results, lines = _COMMANDS[args.command][0](args)
        except ArithmeticError as err:
            code, results, lines = 1, {"error": str(err)}, [f"FAIL: {err}"]
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if args.json:
            from . import formats

            inputs = {k: v for k, v in vars(args).items() if k not in ("command", "json")}
            report = {"command": args.command, "inputs": inputs, "results": results}
            print(formats.json_text(report), end="")
        else:
            for line in lines:
                print(line)
        return code
    finally:
        print(
            f"wall time: {time.perf_counter() - start:.3f}s"
            " (command and its imports; excludes interpreter start)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    sys.exit(main())
