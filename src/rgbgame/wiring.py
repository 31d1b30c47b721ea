"""Composing boxes without communication: local wirings.

A wiring lets the two parties call a shared base box a fixed number of times,
choosing each call's inputs from their own outer input, their own earlier
sub-outputs, and shared randomness, then compute final outputs locally.  It
is the strongest box-to-box reduction that cannot create signalling.

The two constructions here convert between the binary XOR box and the
three-colour box in both directions, exactly: one call turns the colour box
into the XOR box, and two XOR calls (computing a distributed equality test
on bit-encoded colours) rebuild the colour box.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Sequence
from fractions import Fraction

from .strategies import (
    StrategyTable,
    _Frozen,
    _is_int,
    _is_symbol,
    _shape,
    _unit,
    next_colour,
    prev_colour,
    rgb_game,
    win_probability,
)


def _maps(calls: int, randomness: int, outer_shape, inner_shape):
    """Each local map's name, a function listing its domain's points (own, priors, r)
    in table order, their number, and the size of its value alphabet, in field order."""
    (oa, ob, ox, oy), (ia, ib, ix, iy) = outer_shape, inner_shape

    def domain(own, prior, priors_len):
        def points():
            priors = itertools.product(range(prior), repeat=priors_len)
            return list(itertools.product(range(own), priors, range(randomness)))

        return points, own * prior**priors_len * randomness

    for name, own, prior, size in (("alice_inputs", oa, ix, ia), ("bob_inputs", ob, iy, ib)):
        for k in range(calls):
            yield f"{name}[{k}]", *domain(own, prior, k), size
    yield "alice_output", *domain(oa, ix, calls), ox
    yield "bob_output", *domain(ob, iy, calls), oy


class WiringProtocol(_Frozen):
    """A schedule of base-box calls plus local pre/post-processing.

    ``alice_inputs[k]`` maps (outer input a, her first k sub-outputs, shared
    randomness r) to the k-th call's input; ``alice_output`` maps (a, all
    sub-outputs, r) to the final answer.  Bob's maps mirror this on his side,
    so neither map can see anything of the other party.  Shared randomness is
    uniform on range(randomness).

    Each map is held as the tuple of its values over its domain: own input,
    then the earlier sub-outputs in itertools.product order, then r, the
    order of a wiring file's records.  A map is given as those values or as
    a callable of (own, priors, r), tabulated once; every value is checked
    here, and protocols compare and hash by their tables.
    """

    __slots__ = (
        "calls",
        "randomness",
        "outer_shape",
        "inner_shape",
        "alice_inputs",
        "bob_inputs",
        "alice_output",
        "bob_output",
    )

    def __init__(
        self,
        calls: int,
        randomness: int,
        outer_shape: tuple[int, int, int, int],
        inner_shape: tuple[int, int, int, int],
        alice_inputs: tuple[Callable | Sequence[int], ...],
        bob_inputs: tuple[Callable | Sequence[int], ...],
        alice_output: Callable | Sequence[int],
        bob_output: Callable | Sequence[int],
    ):
        if not _is_int(calls) or calls < 0:
            raise ValueError(f"number of calls must be an integer of at least 0, got {calls!r}")
        if not _is_int(randomness) or randomness < 1:
            raise ValueError(f"randomness must be an integer of at least 1, got {randomness!r}")
        outer_shape, inner_shape = _shape(outer_shape), _shape(inner_shape)
        if len(alice_inputs) != calls or len(bob_inputs) != calls:
            raise ValueError("need one input map per call and per party")
        tables = []
        for fn, (name, points, count, size) in zip(
            (*alice_inputs, *bob_inputs, alice_output, bob_output),
            _maps(calls, randomness, outer_shape, inner_shape),
        ):
            # A map given as values is checked without listing its domain.
            values = tuple(itertools.starmap(fn, points())) if callable(fn) else tuple(fn)
            if len(values) != count:
                raise ValueError(f"{name} map has {len(values)} values, not {count}")
            # An int subclass passes the loop, which only words a refusal.
            if {*map(type, values)} != {int} or min(values) < 0 or max(values) >= size:
                for point, value in zip(points(), values):
                    if not _is_symbol(value, size):
                        message = f"{name} map sends {point} to {value!r}, not an integer"
                        raise ValueError(f"{message} in range({size})")
            tables.append(values)
        super().__init__(
            calls, randomness, outer_shape, inner_shape,
            tuple(tables[:calls]), tuple(tables[calls:-2]), *tables[-2:],
        )


def evaluate_wiring(protocol: WiringProtocol, base: StrategyTable) -> StrategyTable:
    """The exact outer table realized by running a wiring over a base box.

    Sums over shared randomness and every branch of sub-outputs; exact when
    the base is exact.  A base of another shape raises; the map values were
    checked when the protocol was built.  A branch carries each party's own
    input and sub-outputs as one integer xs, xs * |X'| + x_k after call k,
    and reads a map at xs in the slice of its table that holds randomness r.
    An exact base is read as integer numerators over its common denominator
    D, so every branch weight is an integer over R * D**calls (R the shared
    randomness), and each outer entry becomes a Fraction once, at the end.
    """
    if base.shape != protocol.inner_shape:
        raise ValueError(
            f"base box shape {base.shape} != wiring inner shape {protocol.inner_shape}"
        )
    oa, ob, ox, oy = protocol.outer_shape
    _, ib, ix, iy = protocol.inner_shape
    randomness = protocol.randomness
    share, den, values = Fraction(1, randomness), None, base.probs
    if base._exact:
        values, unit = base._exact
        share, den = 1, randomness * unit**protocol.calls
    # The nonzero items (x', y', p) of each base row (a', b') a call can reach,
    # at a' |B'| + b', read once; an exact row holds its numerators over D.
    maps = zip(protocol.alice_inputs, protocol.bob_inputs)
    rows = dict.fromkeys(i * ib + j for alice, bob in maps for i in set(alice) for j in set(bob))
    for k in rows:
        cells = base.cells(*divmod(k, ib))
        rows[k] = [(*divmod(i, iy), values[k * ix * iy + i]) for i, p in enumerate(cells) if p]
    totals = [0] * (oa * ob * ox * oy)
    for r in range(randomness):
        maps = zip(protocol.alice_inputs, protocol.bob_inputs)
        calls = [(alice[r::randomness], bob[r::randomness]) for alice, bob in maps]
        x_of, y_of = protocol.alice_output[r::randomness], protocol.bob_output[r::randomness]
        for a in range(oa):
            for b in range(ob):
                branches = [(a, b, share)]
                for alice_map, bob_map in calls[:-1]:
                    branches = [
                        (xs * ix + x_k, ys * iy + y_k, weight * p)
                        for xs, ys, weight in branches
                        for x_k, y_k, p in rows[alice_map[xs] * ib + bob_map[ys]]
                    ]
                start = (a * ob + b) * ox
                if not calls:
                    totals[(start + x_of[a]) * oy + y_of[b]] += share
                    continue
                # The last call's branches go straight into the outer entries.
                alice_map, bob_map = calls[-1]
                for xs, ys, weight in branches:
                    row = rows[alice_map[xs] * ib + bob_map[ys]]
                    xs, ys = xs * ix, ys * iy
                    for x_k, y_k, p in row:
                        totals[(start + x_of[xs + x_k]) * oy + y_of[ys + y_k]] += weight * p
    return StrategyTable._from_numerators(protocol.outer_shape, totals, den)


# ---------------------------------------------------------------------------
# colour box -> XOR box, one call


@functools.cache
def pr_from_rgrb() -> WiringProtocol:
    """One call to the colour box realizes the binary XOR box exactly.

    Alice forwards her bit as a colour; Bob plays 2b, so the pair of base
    inputs is (0,0), (0,2), (1,0) or (1,2).  On each such row the colour box
    is uniform over two output pairs, and those two pairs map onto the two
    XOR-game solutions under x = [x' = 2], y = [y' = 1].
    """
    return WiringProtocol(
        calls=1,
        randomness=1,
        outer_shape=(2, 2, 2, 2),
        inner_shape=(3, 3, 3, 3),
        alice_inputs=(lambda a, xs, r: a,),
        bob_inputs=(lambda b, ys, r: (2 * b) % 3,),
        alice_output=lambda a, xs, r: 1 if xs[0] == 2 else 0,
        bob_output=lambda b, ys, r: 1 if ys[0] == 1 else 0,
    )


# ---------------------------------------------------------------------------
# XOR box -> colour box, two calls


def _msb(c: int) -> int:
    return 1 if c == 2 else 0


def _lsb(c: int) -> int:
    return c & 1


@functools.cache
def rgrb_from_pr() -> WiringProtocol:
    """Two XOR calls rebuild the colour box exactly.

    Encode colours in two bits.  a = b iff the msb's agree AND the lsb's
    agree; expanding that AND of XORs leaves the two cross products
    msb(a)&lsb(b) and lsb(a)&msb(b), which is precisely what two XOR-box
    calls with crossed inputs hand out as shared parities.  Folding the
    local terms into each side gives sign bits

        sign_a = [a = 0] ^ x' ^ x'',     sign_b = [b != 0] ^ y' ^ y''

    with sign_a ^ sign_b = [a = b] on every colour pair.  Each party then
    steps its colour forward on sign 0 and backward on sign 1; the base
    box's uniform outputs make the two admissible pairs equally likely.
    """
    def alice_out(a, xs, r):
        sign = ((a == 0) + xs[0] + xs[1]) % 2
        return next_colour(a) if sign == 0 else prev_colour(a)

    def bob_out(b, ys, r):
        sign = ((b != 0) + ys[0] + ys[1]) % 2
        return next_colour(b) if sign == 0 else prev_colour(b)

    return WiringProtocol(
        calls=2,
        randomness=1,
        outer_shape=(3, 3, 3, 3),
        inner_shape=(2, 2, 2, 2),
        alice_inputs=(
            lambda a, xs, r: _msb(a),
            lambda a, xs, r: _lsb(a),
        ),
        bob_inputs=(
            lambda b, ys, r: _lsb(b),
            lambda b, ys, r: _msb(b),
        ),
        alice_output=alice_out,
        bob_output=bob_out,
    )


# ---------------------------------------------------------------------------
# noise propagation


def noisy_pr(p) -> StrategyTable:
    """A unit-marginal XOR box whose parity is correct with probability p.

    Exact, with entries n and d - n over 2d, when p = n/d is rational; float-valued otherwise.
    """
    p = _unit(p, "noise parameter p")
    if not isinstance(p, float):
        n, d = p.numerator, p.denominator
        bits = itertools.product((0, 1), repeat=4)
        cells = [n if (x ^ y) == (a & b) else d - n for a, b, x, y in bits]
        return StrategyTable._from_numerators((2, 2, 2, 2), cells, 2 * d)
    hit, miss = p / 2, (1 - p) / 2
    return StrategyTable.from_function(
        (2, 2, 2, 2), lambda a, b, x, y: hit if (x ^ y) == (a & b) else miss
    )


def noisy_composition_win(p):
    """Colour-game win probability of the two-call wiring over a noisy XOR box."""
    composed = evaluate_wiring(rgrb_from_pr(), noisy_pr(p))
    return win_probability(composed, rgb_game())


def noisy_parity_survival(p):
    """Probability the two-call equality test survives base noise: both calls
    correct or both incorrect, p^2 + (1-p)^2.

    The composed box is exactly this mixture: survival weight on the ideal
    colour box, the rest on its parity-flipped twin (see parity_flip_box).
    """
    p = _unit(p, "noise parameter p")
    return p * p + (1 - p) * (1 - p)


def parity_flip_box() -> StrategyTable:
    """The colour box produced when exactly one of the two calls errs.

    Same-colour rows become uniform over the agreeing pair (u+1, u+1),
    (u-1, u-1); different-colour rows uniform over (a+1, b-1), (a-1, b+1).
    """
    half = Fraction(1, 2)

    def rule(a, b, x, y):
        if a == b:
            flipped = {
                (next_colour(a), next_colour(b)),
                (prev_colour(a), prev_colour(b)),
            }
        else:
            flipped = {
                (next_colour(a), prev_colour(b)),
                (prev_colour(a), next_colour(b)),
            }
        return half if (x, y) in flipped else 0

    return StrategyTable.from_function((3, 3, 3, 3), rule)
