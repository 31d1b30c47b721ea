"""The four workloads: seeded inputs, the op each input goes through, and the
check of every answer against the paper's values.

Each workload is a closed loop, one client and one op at a time.  Inputs are
plain data made from the seed alone (``make_inputs``); ``setup`` turns them
into program objects and files; ``run`` is the timed op; ``check`` compares
what it returned with the values written here.  A check returns None, or
``(known, message)`` where ``known`` marks one of the defects the program is
known to have at the commit this benchmark was written against.  Only the
standard library is imported: rgbgame's modules are handed to ``setup``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

# ---------------------------------------------------------------------------
# the paper's values

LOCAL_BOUND_RGB = Fraction(8, 9)
WINNING_BOXES_RGB = 5832
WINNING_BOXES_CHSH = 16
QUANTUM_WIN = 11 / 12
QUANTUM_BELL = 9.0
BELL_ROWS_RGB = "local | 8/9 | 8\nquantum | 11/12 | 9\nno-signalling | 1 | 12\n"
BELL_ROWS_CHSH = [{"class": "local", "win": "3/4"}, {"class": "no-signalling", "win": "1"}]
TRINE = (0.0, -120.0, 120.0)
FLOAT_TOL = 1e-9
ASCENT_TOL = 1e-6
ASCENT_RESTARTS = 4
CROSS_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
PARAMETER_NAMES = (
    ("p0", "p1", "p2")
    + tuple(f"p{u}{v}" for u, v in CROSS_PAIRS)
    + tuple(f"q{u}{v}" for u, v in CROSS_PAIRS)
)


def rgb_wins(a, b, x, y) -> bool:
    return a != x and x != y and y != b


def reference_box(name: str) -> tuple[tuple, dict]:
    """(alphabets, {(a, b, x, y): p}) of a named box, nonzero entries only."""
    half = Fraction(1, 2)
    colours = range(3)
    if name == "pr":
        return (2, 2, 2, 2), {
            (a, b, x, y): half
            for a in range(2) for b in range(2) for x in range(2) for y in range(2)
            if x ^ y == a & b
        }
    if name == "rgrb":
        entries = {
            (a, b, x, y): half
            for a in colours for b in colours for x in colours for y in colours
            if rgb_wins(a, b, x, y) and (x, y) != (b, a)
        }
    elif name == "rgb0":
        entries = {
            (a, b, (a + 1) % 3, a if b == (a - 1) % 3 else (a - 1) % 3): Fraction(1)
            for a in colours for b in colours
        }
    else:
        pick = {"identity": lambda a, b: (a, b), "r-sig": lambda a, b: (a, a),
                "l-sig": lambda a, b: (b, b)}[name]
        entries = {(a, b) + pick(a, b): Fraction(1) for a in colours for b in colours}
    return (3, 3, 3, 3), entries


def mixture(weighted: list[tuple[Fraction, dict]]) -> dict:
    entries: dict = {}
    for weight, box in weighted:
        for key, p in box.items():
            entries[key] = entries.get(key, 0) + weight * p
    return {key: p for key, p in entries.items() if p != 0}


def noisy_composition_win(p: Fraction) -> Fraction:
    """Win of the two-call wiring over an XOR box correct with probability p."""
    return 1 - Fraction(4, 3) * p * (1 - p)


def singlet_correlation(alice_deg: float, bob_deg: float) -> float:
    """<A B> for x-z plane projective measurements on the singlet."""
    return -math.cos(math.radians(alice_deg - bob_deg))


def bell_sum(corr) -> float:
    """The signed Bell sum; R is its absolute value, and win = (sum + 24)/36."""
    return sum(-2 * corr[i][i] + corr[i][(i + 1) % 3] + corr[i][(i + 2) % 3] for i in range(3))


def box_entries(doc) -> tuple[tuple, dict]:
    """(alphabets, {(a, b, x, y): p}) of a box document, as the benchmark reads it."""
    entries = {}
    for record in doc["table"]:
        p = record["p"]
        entries[(record["a"], record["b"], record["x"], record["y"])] = (
            Fraction(p) if "/" in p or p.isdigit() else float(p)
        )
    return tuple(doc["alphabets"]), {k: p for k, p in entries.items() if p != 0}


def _fail(message: str):
    return (False, message)


class Workload:
    name = ""
    #: rgbgame modules the worker imports and hands to ``setup``.
    layers: tuple[str, ...] = ()
    #: Ops per cycle of the fixed mix; a run stops only at a cycle boundary.
    cycle = 1
    #: Fewest ops in an untraced run: at least ten above the 90th percentile.
    min_ops = 100
    #: Whether ops are child processes (peak RSS is then theirs).
    subprocesses = False

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, modules: dict, inputs: list, workdir: Path) -> None:
        self.modules = modules

    def op_name(self, inp) -> str:
        return f"bench.{self.name}"

    def begin_trace(self, tracer) -> None:
        """Called before the traced phase of a traced run."""

    def trace_metrics(self) -> tuple[dict, list[str]]:
        """Workload-specific per-layer metrics and report lines."""
        return {name: 0 for name, _ in tracing.CLI_METRICS}, []


# ---------------------------------------------------------------------------
# exact-boxes


def _rational(rng: random.Random) -> Fraction:
    """A rational strictly inside (0, 1) with a small denominator.  Zeros and
    ones would empty table entries and make some ops much cheaper than others."""
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


class ExactBoxes(Workload):
    """Exact Fraction tables through strategies, locality, wiring and formats.

    One op: a seeded member of the winning family, its no-signalling check, a
    one-way decomposition of a seeded signalling mixture, the noisy two-call
    wiring, the one-call reduction, and a box and a wiring file round trip.
    """

    name = "exact-boxes"
    layers = ("strategies", "locality", "wiring", "formats")
    cycle = 8  # every eighth input is the all-1/2 point, i.e. rgrb itself

    def make_inputs(self, seed):
        rng = random.Random(seed)
        inputs = []
        for i in range(64):
            if i % self.cycle == 0:
                params = (Fraction(1, 2),) * 15
            else:
                same = tuple(_rational(rng) for _ in range(3))
                p_cross, q_cross = [], []
                for _ in CROSS_PAIRS:
                    p = _rational(rng)
                    p_cross.append(p)
                    q_cross.append(_rational(rng) * (1 - p))
                params = same + tuple(p_cross) + tuple(q_cross)
            inputs.append({
                "params": params,
                "signal": rng.choice(("right", "left")),
                "weight": _rational(rng),
                "noise": _rational(rng),
            })
        return inputs

    def setup(self, modules, inputs, workdir):
        super().setup(modules, inputs, workdir)
        self.game = modules["strategies"].rgb_game()
        self.rgrb = reference_box("rgrb")[1]
        self.signalling = {s: reference_box(f"{s[0]}-sig")[1] for s in ("right", "left")}

    def run(self, ctx, inp, out):
        S, L, W, F = ctx.lib.strategies, ctx.lib.locality, ctx.lib.wiring, ctx.lib.formats
        direction = self.modules["locality"].Direction
        params = self.modules["strategies"].WinningFamilyParams.from_vector(inp["params"])
        out["family"] = family = S.family_strategy(params)
        out["family_win"] = S.win_probability(family, self.game)
        out["family_ns"] = L.is_no_signalling(family)[0]

        sig = L.r_sig_box() if inp["signal"] == "right" else L.l_sig_box()
        out["mixed"] = mixed = S.mix([S.rgrb(), sig], [1 - inp["weight"], inp["weight"]])
        allowed, refused = direction.LEFT_TO_RIGHT, direction.RIGHT_TO_LEFT
        if inp["signal"] == "left":
            allowed, refused = refused, allowed
        out["recomposed"] = L.recompose_one_way(L.decompose_one_way(mixed, allowed))
        try:
            L.decompose_one_way(mixed, refused)
            out["refused"] = None
        except self.modules["locality"].SignallingError as err:
            out["refused"] = err.witness.side

        noisy = W.noisy_pr(inp["noise"])
        out["composed"] = composed = W.evaluate_wiring(W.rgrb_from_pr(), noisy)
        out["noisy_win"] = S.win_probability(composed, self.game)
        out["pr_distance"] = S.l1_distance(W.evaluate_wiring(W.pr_from_rgrb(), S.rgrb()), L.pr_box())

        out["loaded_box"] = F.load_box(F.dump_box(mixed))
        loaded_wiring = F.load_wiring(F.dump_wiring(W.rgrb_from_pr()))
        out["loaded_composed"] = W.evaluate_wiring(loaded_wiring, noisy)

    def check(self, inp, out, exc):
        if exc is not None:
            return _fail(f"{type(exc).__name__}: {exc}")
        params = inp["params"]
        family = out["family"]
        for u in range(3):
            if family.prob(u, u, (u + 1) % 3, (u + 2) % 3) != params[u]:
                return _fail(f"family table entry for same-colour input {u} is not p{u}")
        if out["family_win"] != 1:
            return _fail(f"family member wins {out['family_win']}, not 1")
        if out["family_ns"] != all(p == Fraction(1, 2) for p in params):
            return _fail("no-signalling verdict on a family member disagrees with uniqueness of rgrb")
        w = inp["weight"]
        expected = mixture([(1 - w, self.rgrb), (w, self.signalling[inp["signal"]])])
        if _table_entries(out["mixed"]) != expected:
            return _fail("mix of rgrb and a signalling box differs from the convex combination")
        if out["recomposed"].probs != out["mixed"].probs:
            return _fail("one-way decompose/recompose does not reproduce the box")
        if out["refused"] != inp["signal"]:
            return _fail(f"refused decomposition raised side {out['refused']}, not {inp['signal']}")
        if out["noisy_win"] != noisy_composition_win(inp["noise"]):
            return _fail(f"noisy composition wins {out['noisy_win']}, not 1 - (4/3)p(1-p)")
        if out["pr_distance"] != 0:
            return _fail(f"pr-from-rgrb is {out['pr_distance']} away from the PR box")
        if out["loaded_box"].probs != out["mixed"].probs:
            return _fail("box file round trip changed the table")
        if out["loaded_composed"].probs != out["composed"].probs:
            return _fail("loaded wiring evaluates differently from the original")
        return None


def _table_entries(table) -> dict:
    na, nb, nx, ny = table.shape
    return {
        (a, b, x, y): table.prob(a, b, x, y)
        for a in range(na) for b in range(nb) for x in range(nx) for y in range(ny)
        if table.prob(a, b, x, y) != 0
    }


# ---------------------------------------------------------------------------
# game-scaling


class GameScaling(Workload):
    """Local bounds of seeded lookup-table games at 3 and 4 letters.

    A cycle is the colour game, four random (3,3,3,3) games and one random
    (4,4,4,4) game, so the 90th percentile falls among the 4-letter games.
    Every input pair of a random game has the same number of winning output
    pairs, so that all games of one size cost the local bound the same.
    """

    name = "game-scaling"
    layers = ("strategies",)
    cycle = 6
    random_pairs = 16

    def make_inputs(self, seed):
        rng = random.Random(seed)
        inputs = []
        for i in range(8 * self.cycle):
            kind = i % self.cycle
            if kind == 0:
                inputs.append({"shape": (3, 3, 3, 3), "table": None})
                continue
            k = 4 if kind == self.cycle - 1 else 3
            table = []
            for _ in range(k * k):
                row = [True] * (k * k // 2) + [False] * (k * k - k * k // 2)
                rng.shuffle(row)
                table += row
            inputs.append({"shape": (k, k, k, k), "table": tuple(table)})
        for inp in inputs:
            self._expect(inp, rng)
        return inputs

    def _expect(self, inp, rng):
        """Winning-box count (a product over rows) and the best of seeded
        deterministic pairs, both computed here without the program."""
        k = inp["shape"][0]
        wins = _lookup(inp["table"], k) if inp["table"] else rgb_wins
        count = 1
        for a in range(k):
            for b in range(k):
                count *= sum(wins(a, b, x, y) for x in range(k) for y in range(k))
        best = Fraction(0)
        for _ in range(self.random_pairs):
            f_a = [rng.randrange(k) for _ in range(k)]
            f_b = [rng.randrange(k) for _ in range(k)]
            hits = sum(wins(a, b, f_a[a], f_b[b]) for a in range(k) for b in range(k))
            best = max(best, Fraction(hits, k * k))
        inp["count"], inp["best_random"] = count, best

    def setup(self, modules, inputs, workdir):
        super().setup(modules, inputs, workdir)
        strategies = modules["strategies"]
        for inp in inputs:
            if inp["table"] is None:
                inp["game"] = strategies.rgb_game()
            else:
                k = inp["shape"][0]
                dist = {(a, b): Fraction(1, k * k) for a in range(k) for b in range(k)}
                inp["game"] = strategies.Game(inp["shape"], _lookup(inp["table"], k), dist)

    def run(self, ctx, inp, out):
        S = ctx.lib.strategies
        game = inp["game"]
        out["bound"], f_a, f_b = S.local_bound(game)
        out["pair_win"] = S.win_probability(S.deterministic_strategy(f_a, f_b, game.shape), game)
        out["count"] = S.enumerate_winning_deterministic_boxes(game)

    def check(self, inp, out, exc):
        bound = out.get("bound")
        if "pair_win" in out:
            if out["pair_win"] != bound:
                return _fail(f"argmax pair wins {out['pair_win']}, not the reported bound {bound}")
            if bound < inp["best_random"] or bound > 1:
                return _fail(f"local bound {bound} below a seeded pair's {inp['best_random']}")
            if inp["table"] is None and bound != LOCAL_BOUND_RGB:
                return _fail(f"colour game local bound {bound}, not 8/9")
        if exc is not None:
            refused = isinstance(exc, ValueError) and "guard" in str(exc)
            if inp["shape"] == (4, 4, 4, 4) and "pair_win" in out and refused:
                return (True, "enumerate_winning_deterministic_boxes refuses a (4,4,4,4) game")
            return _fail(f"{type(exc).__name__}: {exc}")
        if out["count"] != inp["count"]:
            return _fail(f"winning deterministic boxes {out['count']}, not {inp['count']}")
        return None


def _lookup(table, k):
    def wins(a, b, x, y):
        return table[((a * k + b) * k + x) * k + y]
    return wins


# ---------------------------------------------------------------------------
# quantum-numeric


class QuantumNumeric(Workload):
    """Float tables from qubit strategies near the trine, the Bell quantity,
    and a seeded alternating ascent per op."""

    name = "quantum-numeric"
    layers = ("strategies", "quantum", "bell")
    cycle = 8  # the first input of each cycle is the trine strategy itself

    def make_inputs(self, seed):
        rng = random.Random(seed)
        inputs = []
        for i in range(64):
            trine = i % self.cycle == 0
            angles = [
                TRINE if trine else tuple(t + rng.uniform(-6.0, 6.0) for t in TRINE)
                for _ in range(2)
            ]
            inputs.append({
                "trine": trine,
                "alice": angles[0],
                "bob": angles[1],
                "ascent_seed": rng.randrange(10**6),
            })
        return inputs

    def setup(self, modules, inputs, workdir):
        super().setup(modules, inputs, workdir)
        self.game = modules["strategies"].rgb_game()

    def run(self, ctx, inp, out):
        S, Q, B = ctx.lib.strategies, ctx.lib.quantum, ctx.lib.bell
        if inp["trine"]:
            alice, bob = Q.trine_strategy(), Q.trine_strategy()
        else:
            qubit = self.modules["quantum"].QubitStrategy
            alice = qubit(tuple(Q.projector_from_angle(t) for t in inp["alice"]))
            bob = qubit(tuple(Q.projector_from_angle(t) for t in inp["bob"]))
        table = Q.quantum_strategy_table(Q.singlet(), alice, bob)
        out["win"] = S.win_probability(table, self.game)
        out["corr"] = Q.correlations_from_table(Q.reduce_to_binary(table))
        out["bell"] = B.bell_quantity(out["corr"])
        out["ascent"] = B.alternating_ascent(inp["ascent_seed"], ASCENT_RESTARTS).value

    def check(self, inp, out, exc):
        if exc is not None:
            return _fail(f"{type(exc).__name__}: {exc}")
        failure = check_quantum(inp["alice"], inp["bob"], out["win"], out["bell"], out["corr"])
        if failure is None and abs(out["ascent"] - QUANTUM_BELL) > ASCENT_TOL:
            failure = _fail(f"alternating ascent reached {out['ascent']!r}, not 9")
        return failure


def check_quantum(alice, bob, win, bell, corr):
    """Simulated values against the singlet's closed form <A B> = -cos(angle)."""
    expected = [[singlet_correlation(s, t) for t in bob] for s in alice]
    if any(abs(corr[a][b] - expected[a][b]) > FLOAT_TOL for a in range(3) for b in range(3)):
        return _fail(f"correlations {corr} differ from -cos(angle difference)")
    if bell > QUANTUM_BELL + FLOAT_TOL:
        return _fail(f"Bell quantity {bell!r} exceeds the quantum bound 9")
    if abs(bell - abs(bell_sum(expected))) > FLOAT_TOL or abs(win - (bell + 24) / 36) > FLOAT_TOL:
        return _fail(f"win {win!r} is not (R + 24)/36 for R = {bell!r}")
    if tuple(alice) == TRINE == tuple(bob) and abs(win - QUANTUM_WIN) > FLOAT_TOL:
        return _fail(f"trine strategy wins {win!r}, not 11/12")
    return None


# ---------------------------------------------------------------------------
# cli-session


class CliSession(Workload):
    """One fresh ``python -m rgbgame.cli`` process per op, over a fixed mix of
    all twelve subcommands; input box and wiring files come from the seed."""

    name = "cli-session"
    layers = ("strategies", "locality", "wiring", "formats")
    cycle = 20
    subprocesses = True
    box_names = ("rgrb", "rgb0", "pr", "identity", "r-sig", "l-sig")

    def make_inputs(self, seed):
        rng = random.Random(seed)
        ns_weight = Fraction(rng.randint(1, 11), 12)
        sig_weight = Fraction(rng.randint(1, 11), 12)
        rgrb = reference_box("rgrb")[1]
        files = {
            "rgrb.box": reference_box("rgrb"),
            "pr.box": reference_box("pr"),
            "ns.box": ((3, 3, 3, 3), mixture([(1 - ns_weight, rgrb), (ns_weight, reference_box("identity")[1])])),
            "sig.box": ((3, 3, 3, 3), mixture([(1 - sig_weight, rgrb), (sig_weight, reference_box("r-sig")[1])])),
        }
        # A float box with one "nan" entry, and a box cut off mid-document.
        records = [{"a": a, "b": b, "x": x, "y": y, "p": "0.5"} for (a, b, x, y) in sorted(rgrb)]
        records[rng.randrange(len(records))]["p"] = "nan"
        nan_text = json.dumps({"alphabets": [3, 3, 3, 3], "table": records}, indent=2) + "\n"
        malformed_text = nan_text[: rng.randrange(10, len(nan_text) - 10)]
        alice = tuple(round(t + rng.uniform(-6.0, 6.0), 1) for t in TRINE)
        bob = tuple(round(t + rng.uniform(-6.0, 6.0), 1) for t in TRINE)
        angles = ["--alice-angles", *map(str, alice), "--bob-angles", *map(str, bob)]
        export_name = rng.choice(self.box_names)
        reduction = rng.choice(("pr-from-rgrb", "rgrb-from-pr"))
        ascent_seed = rng.randrange(10**6)
        ops = [
            ("export-wiring pr-from-rgrb", ["export-wiring", "pr-from-rgrb", "--output", "exported-w1.json"]),
            ("export-wiring rgrb-from-pr --json",
             ["export-wiring", "rgrb-from-pr", "--output", "exported-w2.json", "--json"]),
            ("export-box", ["export-box", export_name, "--output", "exported.box"]),
            ("apply-wiring --output", ["apply-wiring", "w1.json", "rgrb.box", "--output", "composed.box"]),
            ("distance composed", ["distance", "composed.box", "pr.box"]),
            ("apply-wiring --json", ["apply-wiring", "w2.json", "pr.box", "--json"]),
            ("distance --json", ["distance", "ns.box", "sig.box", "--json"]),
            ("ns-check no-signalling", ["ns-check", "ns.box"]),
            ("ns-check signalling --json", ["ns-check", "sig.box", "--json"]),
            ("ns-check nan", ["ns-check", "nan.box"]),
            ("ns-check malformed", ["ns-check", "malformed.box"]),
            ("bounds", ["bounds"]),
            ("bounds chsh --json", ["bounds", "--game", "chsh", "--json"]),
            ("enumerate", ["enumerate"]),
            ("enumerate chsh --json", ["enumerate", "--game", "chsh", "--json"]),
            ("verify-reduction --json", ["verify-reduction", reduction, "--json"]),
            ("ns-unique", ["ns-unique"]),
            ("quantum --json", ["quantum", *angles, "--json"]),
            ("sdp-certify", ["sdp-certify"]),
            ("sdp-optimize", ["sdp-optimize", "--seed", str(ascent_seed), "--restarts", str(ASCENT_RESTARTS)]),
        ]
        shared = {
            "files": files,
            "raw_files": {"nan.box": nan_text, "malformed.box": malformed_text},
            "export_name": export_name,
            "alice": alice,
            "bob": bob,
            "ascent_seed": ascent_seed,
        }
        return [{"label": label, "args": args, "shared": shared} for label, args in ops]

    def setup(self, modules, inputs, workdir):
        super().setup(modules, inputs, workdir)
        self.workdir = workdir
        self.tracer = None
        self.processes: list[dict] = []
        self.interpreter_ms = 0.0
        strategies, formats, wiring = modules["strategies"], modules["formats"], modules["wiring"]
        shared = inputs[0]["shared"]
        for name, (shape, entries) in shared["files"].items():
            table = strategies.StrategyTable.from_dict(shape, entries)
            (workdir / name).write_text(formats.dump_box(table))
        self.wirings = {
            "pr-from-rgrb": formats.dump_wiring(wiring.pr_from_rgrb()),
            "rgrb-from-pr": formats.dump_wiring(wiring.rgrb_from_pr()),
        }
        raw_files = dict(shared["raw_files"], **{
            "w1.json": self.wirings["pr-from-rgrb"], "w2.json": self.wirings["rgrb-from-pr"],
        })
        for name, text in raw_files.items():
            (workdir / name).write_text(text)

    def op_name(self, inp):
        return "cli." + inp["args"][0]

    def _written(self, inp):
        args = inp["args"]
        return args[args.index("--output") + 1] if "--output" in args else None

    def run(self, ctx, inp, out):
        written = self._written(inp)
        if written:
            (self.workdir / written).unlink(missing_ok=True)
        spans_file = self.workdir / "spans.jsonl"
        spans_file.unlink(missing_ok=True)
        if self.tracer is None:
            command = [sys.executable, "-m", "rgbgame.cli", *inp["args"]]
        else:
            child = Path(__file__).with_name("clichild.py")
            command = [sys.executable, "-X", "importtime", str(child), str(spans_file), *inp["args"]]
        start = time.perf_counter()
        proc = subprocess.run(
            command, cwd=self.workdir, capture_output=True, text=True, timeout=60
        )
        wall_ms = (time.perf_counter() - start) * 1000
        out.update(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
        if self.tracer is not None:
            with open(spans_file) as fh:
                self.tracer.adopt([json.loads(line) for line in fh.readlines()[1:]])
            rows = tracing.parse_importtime(proc.stderr)
            self.processes.append({
                "command": inp["args"][0],
                "wall_ms": wall_ms,
                "import_ms": sum(us for depth, name, us in rows if name == "rgbgame.cli" and depth == 0) / 1000,
                "numpy": any(name == "numpy" for _, name, _ in rows),
            })

    def begin_trace(self, tracer):
        """Time bare interpreters with the same flag the traced ops use."""
        probes = []
        for _ in range(9):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                           capture_output=True, check=True, timeout=60)
            probes.append((time.perf_counter() - start) * 1000)
        probes.sort()
        self.interpreter_ms = probes[len(probes) // 2]
        self.tracer = tracer

    def trace_metrics(self):
        by_command: dict[str, list[dict]] = {}
        for proc in self.processes:
            proc["command_ms"] = proc["wall_ms"] - self.interpreter_ms - proc["import_ms"]
            by_command.setdefault(proc["command"], []).append(proc)
        lines = [f"cli split per subcommand (interpreter {self.interpreter_ms:.1f} ms from "
                 "`python -X importtime -c pass`; medians over traced ops):"]
        for command, procs in sorted(by_command.items()):
            lines.append(
                f"  {command:<17} n={len(procs):<3} import_ms={_median(p['import_ms'] for p in procs):7.1f}"
                f"  command_ms={_median(p['command_ms'] for p in procs):7.1f}"
                f"  numpy_imported={'yes' if any(p['numpy'] for p in procs) else 'no'}"
            )
        metrics = {
            "cli.interpreter_ms": self.interpreter_ms,
            "cli.import_ms": _median(p["import_ms"] for p in self.processes),
            "cli.command_ms": _median(p["command_ms"] for p in self.processes),
            "cli.numpy_imported": sum(any(p["numpy"] for p in procs) for procs in by_command.values()),
        }
        return metrics, lines

    def check(self, inp, out, exc):
        if exc is not None:
            return _fail(f"{inp['label']}: {type(exc).__name__}: {exc}")
        message = self._check(inp, out)
        if message is None:
            return None
        known = inp["label"] == "ns-check nan" and out["code"] == 0 and out["stdout"] == "no-signalling: yes\n"
        return (known, f"{inp['label']}: {message}")

    def _check(self, inp, out):
        shared, label, code, stdout = inp["shared"], inp["label"], out["code"], out["stdout"]
        expected_code = {"ns-check signalling --json": 1, "ns-check nan": 2, "ns-check malformed": 2}.get(label, 0)
        if code != expected_code:
            return f"exit {code}, expected {expected_code}; stdout {stdout[:80]!r}"
        if expected_code == 2:
            diagnosed = any(line.startswith("error: ") for line in out["stderr"].splitlines())
            return None if diagnosed else "no diagnostic on stderr"
        written = self._written(inp)
        if written and "--json" not in inp["args"] and stdout != f"wrote {written}\n":
            return f"unexpected stdout {stdout[:80]!r}"
        results = json.loads(stdout)["results"] if "--json" in inp["args"] else None
        command = inp["args"][0]

        if command == "export-wiring":
            name = inp["args"][1]
            text = (self.workdir / written).read_text()
            calls = 1 if name == "pr-from-rgrb" else 2
            if text != self.wirings[name] or json.loads(text)["calls"] != calls:
                return "exported wiring differs from the library's wiring"
            if results is not None and results != json.loads(text):
                return "JSON report differs from the written wiring"
        elif command == "export-box":
            if box_entries(json.loads((self.workdir / written).read_text())) != reference_box(shared["export_name"]):
                return f"exported {shared['export_name']} box differs from its definition"
        elif command == "apply-wiring":
            doc = results if results is not None else json.loads((self.workdir / written).read_text())
            target = "pr" if inp["args"][1] == "w1.json" else "rgrb"
            if box_entries(doc) != reference_box(target):
                return f"composed box is not the {target} box"
        elif command == "distance":
            if inp["args"][1] == "composed.box":
                return None if stdout == "distance: 0/1\n" else f"unexpected stdout {stdout!r}"
            a, b = shared["files"]["ns.box"][1], shared["files"]["sig.box"][1]
            dist = sum(abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b))
            if results != {"distance": f"{dist.numerator}/{dist.denominator}"}:
                return f"distance {results} is not {dist}"
        elif command == "ns-check":
            if label == "ns-check no-signalling":
                return None if stdout == "no-signalling: yes\n" else f"unexpected stdout {stdout!r}"
            return _check_witness(results, shared["files"]["sig.box"][1])
        elif command == "bounds":
            if results is None:
                return None if stdout == BELL_ROWS_RGB else f"unexpected bounds {stdout!r}"
            return None if results["rows"] == BELL_ROWS_CHSH else f"unexpected chsh bounds {results}"
        elif command == "enumerate":
            if results is None:
                expected = f"winning deterministic boxes: {WINNING_BOXES_RGB}\n"
                return None if stdout == expected else f"unexpected stdout {stdout!r}"
            return None if results["count"] == WINNING_BOXES_CHSH else f"chsh count {results['count']}"
        elif command == "verify-reduction":
            return None if results == {"distance": "0/1", "pass": True} else f"reduction {results}"
        elif command == "ns-unique":
            expected = [f"{name} = 1/2" for name in PARAMETER_NAMES] + ["matches rgrb: yes"]
            return None if stdout.splitlines() == expected else f"unexpected stdout {stdout[:80]!r}"
        elif command == "quantum":
            corr = [[float(c) for c in row] for row in results["correlations"]]
            failure = check_quantum(shared["alice"], shared["bob"], float(results["win"]),
                                    float(results["bell_quantity"]), corr)
            return failure and failure[1]
        elif command == "sdp-certify":
            fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
            for key, value in (("primal value", QUANTUM_BELL), ("dual value", QUANTUM_BELL),
                               ("bound", QUANTUM_BELL), ("gap", 0.0), ("implied win bound", QUANTUM_WIN)):
                if abs(float(fields.get(key, "nan")) - value) > FLOAT_TOL:
                    return f"{key}: {fields.get(key)!r}, expected {value}"
        elif command == "sdp-optimize":
            fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
            if fields.get("seed") != str(shared["ascent_seed"]) or fields.get("monotone") != "yes":
                return f"unexpected report {stdout[:80]!r}"
            if abs(float(fields.get("best value", "nan")) - QUANTUM_BELL) > ASCENT_TOL:
                return f"best value {fields.get('best value')!r}, not 9"
        return None


def _check_witness(results, entries):
    """A right-signalling witness whose marginals reproduce from the box."""
    if results["no_signalling"] is not False or results["witness"]["side"] != "right":
        return f"expected a right-side witness, got {results}"
    w = results["witness"]
    b, y, (a0, a1) = w["fixed_input"], w["output"], w["sender_inputs"]
    marginals = [sum(entries.get((a, b, x, y), 0) for x in range(3)) for a in (a0, a1)]
    if [Fraction(m) for m in w["marginals"]] != marginals or marginals[0] == marginals[1]:
        return f"witness {w} does not reproduce from the box"
    return None


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


WORKLOADS = {w.name: w for w in (CliSession, ExactBoxes, GameScaling, QuantumNumeric)}
