"""Exact strategy tables for the three-colour anti-agreement game.

Two referees hand Alice and Bob one colour each, drawn uniformly from
{red, green, blue} = {0, 1, 2}.  Alice answers x, Bob answers y, and the
round is won when

    a != x  and  x != y  and  y != b.

Everything in this module is exact: probabilities are `fractions.Fraction`
throughout, and table equality means equality of every entry.  Float-valued
tables (produced by the quantum simulation) reuse the same container but are
validated with tolerances instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

RED, GREEN, BLUE = 0, 1, 2

#: Hard ceiling on the work of local_bound: |X|^|A| x |B| x |Y| score cells.
ENUMERATION_GUARD = 10**9

#: Row-sum slack allowed for float-valued tables (exact tables get none).
FLOAT_ROW_TOL = 1e-9


def next_colour(c: int) -> int:
    """The colour one step forward in the red -> green -> blue cycle."""
    return (c + 1) % 3


def prev_colour(c: int) -> int:
    """The colour one step backward in the red -> green -> blue cycle."""
    return (c + 2) % 3


def rgb_predicate(a: int, b: int, x: int, y: int) -> bool:
    """Winning condition: neighbours in the chain a-x-y-b never agree."""
    return a != x and x != y and y != b


_ZERO, _ONE = Fraction(0), Fraction(1)


def _coerce(p):
    # Exact entries stay exact; only genuine floats stay floats.  Fractions
    # are immutable, so a Fraction and the constants 0 and 1 are shared.
    if isinstance(p, float) or type(p) is Fraction:
        return p
    if type(p) is int and 0 <= p <= 1:
        return _ONE if p else _ZERO
    return Fraction(p)


def probability_to_string(p) -> str:
    """Canonical text for one probability: lowest-terms "num/den" or %.17g."""
    if isinstance(p, float):
        return "%.17g" % p
    p = Fraction(p)
    return f"{p.numerator}/{p.denominator}"


def _numerators(values) -> tuple[list, int]:
    """Exact values as integer numerators over their least common denominator.

    Returns (numerators, denominator); the exact kernels do their sums and
    products on these integers and build each output Fraction once.
    """
    dens = [p.denominator for p in values]
    den = math.lcm(*set(dens))
    return [p.numerator * (den // d) for p, d in zip(values, dens)], den


class _Frozen:
    """An immutable value over ``__slots__``, set once by ``__init__``.

    Equality compares the slots of two instances of one class, the hash and
    the repr are taken over them, and assignment after ``__init__`` raises.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the slots, in order, to ``values``; called once, by ``__init__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor.
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StrategyTable(_Frozen):
    """A conditional distribution P(x, y | a, b) over finite alphabets.

    ``shape`` is (|A|, |B|, |X|, |Y|); symbols are 0-based.  ``probs`` is the
    dense row-major tuple of entries.  Exact tables (every entry a Fraction)
    must have every row summing to 1 exactly; float tables within 1e-9, and
    their entries must be finite.  Exact rows are validated in integers, on
    the numerators over the table's common denominator.
    """

    __slots__ = ("shape", "probs")

    def __init__(self, shape: tuple[int, int, int, int], probs: tuple):
        self._init(shape, probs)
        na, nb, nx, ny = shape
        if min(shape) < 1:
            raise ValueError(f"alphabet sizes must be positive, got {shape}")
        if len(probs) != na * nb * nx * ny:
            raise ValueError(
                f"need {na * nb * nx * ny} entries for shape {shape}, got {len(probs)}"
            )
        n = nx * ny
        exact = self.is_exact
        if exact:
            nums, den = _numerators(probs)
        for k, (a, b) in enumerate(self.inputs()):
            if exact:
                # Numerators over the table's common denominator den.
                row = nums[k * n : (k + 1) * n]
                if sum(row) != den:
                    raise ValueError(f"row ({a},{b}) sums to {Fraction(sum(row), den)}, not 1")
                if min(row) < 0 or max(row) > den:
                    raise ValueError(f"row ({a},{b}) has an entry outside [0,1]")
            else:
                row = probs[k * n : (k + 1) * n]
                # NaN fails every comparison below, so it is caught here.
                if not all(math.isfinite(p) for p in row):
                    raise ValueError(f"row ({a},{b}) has a non-finite entry")
                total = sum(p for p in row if p != 0)
                if abs(total - 1) > FLOAT_ROW_TOL:
                    raise ValueError(f"row ({a},{b}) sums to {total!r}, not 1")
                if any(p < -1e-12 or p > 1 + 1e-9 for p in row):
                    raise ValueError(f"row ({a},{b}) has an entry outside [0,1]")

    @property
    def is_exact(self) -> bool:
        return not any(isinstance(p, float) for p in self.probs)

    @classmethod
    def from_function(cls, shape, fn) -> "StrategyTable":
        """Build a table from fn(a, b, x, y) -> probability."""
        na, nb, nx, ny = shape
        probs = tuple(
            _coerce(fn(a, b, x, y))
            for a in range(na)
            for b in range(nb)
            for x in range(nx)
            for y in range(ny)
        )
        return cls(tuple(shape), probs)

    @classmethod
    def from_dict(cls, shape, entries: Mapping) -> "StrategyTable":
        """Build a table from {(a, b, x, y): p}; missing tuples are zero."""
        return cls.from_function(shape, lambda a, b, x, y: entries.get((a, b, x, y), 0))

    def _index(self, a, b, x, y) -> int:
        na, nb, nx, ny = self.shape
        if not (0 <= a < na and 0 <= b < nb and 0 <= x < nx and 0 <= y < ny):
            for value, size, name in ((a, na, "a"), (b, nb, "b"), (x, nx, "x"), (y, ny, "y")):
                if not 0 <= value < size:
                    raise ValueError(f"symbol {name}={value} outside range(0, {size})")
        return ((a * nb + b) * nx + x) * ny + y

    def prob(self, a: int, b: int, x: int, y: int):
        """The entry P(x, y | a, b)."""
        return self.probs[self._index(a, b, x, y)]

    def cells(self, a: int, b: int) -> tuple:
        """Row (a, b) as one slice of ``probs``, entry (x, y) at x * |Y| + y."""
        _, _, nx, ny = self.shape
        start = self._index(a, b, 0, 0)
        return self.probs[start : start + nx * ny]

    def row(self, a: int, b: int) -> dict:
        """Nonzero output probabilities for one input pair, as {(x, y): p}."""
        outputs = itertools.product(range(self.shape[2]), range(self.shape[3]))
        return {xy: p for xy, p in zip(outputs, self.cells(a, b)) if p != 0}

    def support(self, a: int, b: int) -> set:
        """Output pairs with nonzero probability for one input pair."""
        return set(self.row(a, b))

    def inputs(self):
        na, nb = self.shape[:2]
        return itertools.product(range(na), range(nb))


class Game(_Frozen):
    """A two-player game: alphabets, winning predicate, input distribution."""

    __slots__ = ("shape", "predicate", "input_dist")

    def __init__(
        self,
        shape: tuple[int, int, int, int],
        predicate: Callable[[int, int, int, int], bool],
        input_dist: Mapping[tuple[int, int], Fraction],
    ):
        self._init(shape, predicate, input_dist)
        if min(shape) < 1:
            raise ValueError(f"alphabet sizes must be positive, got {shape}")
        total = sum(input_dist.values())
        if total != 1:
            raise ValueError(f"input distribution sums to {total}, not 1")
        if any(w < 0 for w in input_dist.values()):
            raise ValueError("input distribution has a negative weight")


def rgb_game() -> Game:
    """The colour game: uniform inputs over 3 x 3, anti-agreement predicate."""
    weight = Fraction(1, 9)
    dist = {(a, b): weight for a in range(3) for b in range(3)}
    return Game((3, 3, 3, 3), rgb_predicate, dist)


def chsh_game() -> Game:
    """The binary XOR game (x ^ y must equal a & b), uniform inputs."""
    weight = Fraction(1, 4)
    dist = {(a, b): weight for a in range(2) for b in range(2)}
    return Game((2, 2, 2, 2), lambda a, b, x, y: (x ^ y) == (a & b), dist)


def win_probability(table: StrategyTable, game: Game):
    """Expected winning probability of a strategy table in a game.

    Exact when the table is exact; float otherwise.
    """
    if table.shape != game.shape:
        raise ValueError(f"table shape {table.shape} != game shape {game.shape}")
    ny = table.shape[3]
    total = Fraction(0)
    for (a, b), weight in game.input_dist.items():
        if weight == 0:
            continue
        # Zero cells are skipped, so an all-losing float row adds int 0.
        mass = sum(
            p for i, p in enumerate(table.cells(a, b))
            if p != 0 and game.predicate(a, b, *divmod(i, ny))
        )
        total += weight * mass
    return total


def deterministic_strategy(f_a, f_b, shape=(3, 3, 3, 3)) -> StrategyTable:
    """The 0/1 table where Alice plays f_a[a] and Bob plays f_b[b]."""
    return StrategyTable.from_function(
        shape, lambda a, b, x, y: 1 if (x == f_a[a] and y == f_b[b]) else 0
    )


_CROSS_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _check_unit(name, value) -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{name} = {value} outside [0, 1]")
    return value


class WinningFamilyParams(_Frozen):
    """The 15 free parameters of the perfectly-winning no-signalling-free family.

    Same-colour rows (a = b = u) put mass p_u on (u+1, u-1) and 1 - p_u on
    (u-1, u+1).  Different-colour rows (a, b) = (u, v) with third colour w put
    p_cross[(u, v)] on (w, u), q_cross[(u, v)] on (v, w), and the remainder on
    (v, u).  Any assignment with every value in [0, 1] and
    p_cross + q_cross <= 1 per pair wins the colour game with certainty.
    """

    __slots__ = ("p0", "p1", "p2", "p_cross", "q_cross")

    def __init__(
        self,
        p0: Fraction,
        p1: Fraction,
        p2: Fraction,
        p_cross: Mapping[tuple[int, int], Fraction],
        q_cross: Mapping[tuple[int, int], Fraction],
    ):
        p0, p1, p2 = _check_unit("p0", p0), _check_unit("p1", p1), _check_unit("p2", p2)
        for name, table in (("p_cross", p_cross), ("q_cross", q_cross)):
            if set(table) != set(_CROSS_PAIRS):
                raise ValueError(f"{name} must be keyed by the 6 ordered colour pairs")
        p_cross = {uv: _check_unit(f"p_cross{uv}", p) for uv, p in p_cross.items()}
        q_cross = {uv: _check_unit(f"q_cross{uv}", q) for uv, q in q_cross.items()}
        for uv in _CROSS_PAIRS:
            if p_cross[uv] + q_cross[uv] > 1:
                raise ValueError(f"p_cross{uv} + q_cross{uv} exceeds 1")
        self._init(p0, p1, p2, p_cross, q_cross)

    def __hash__(self):
        # The cross tables are dicts, so only the same-colour values hash.
        return hash(self.p_same)

    @property
    def p_same(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p0, self.p1, self.p2)

    @classmethod
    def constant(cls, value) -> "WinningFamilyParams":
        """All 15 parameters set to the same value."""
        v = Fraction(value)
        return cls(v, v, v, dict.fromkeys(_CROSS_PAIRS, v), dict.fromkeys(_CROSS_PAIRS, v))

    @classmethod
    def from_vector(cls, values: Sequence) -> "WinningFamilyParams":
        """Inverse of as_vector (canonical order p0 p1 p2, p_uv, q_uv)."""
        if len(values) != 15:
            raise ValueError(f"need 15 parameters, got {len(values)}")
        p0, p1, p2 = values[:3]
        p_cross = dict(zip(_CROSS_PAIRS, values[3:9]))
        q_cross = dict(zip(_CROSS_PAIRS, values[9:15]))
        return cls(p0, p1, p2, p_cross, q_cross)

    def as_vector(self) -> tuple:
        """The 15 parameters in canonical order p0 p1 p2, p_uv, q_uv."""
        return (
            (self.p0, self.p1, self.p2)
            + tuple(self.p_cross[uv] for uv in _CROSS_PAIRS)
            + tuple(self.q_cross[uv] for uv in _CROSS_PAIRS)
        )


def parameter_names() -> tuple[str, ...]:
    """Canonical names matching WinningFamilyParams.as_vector order."""
    return (
        ("p0", "p1", "p2")
        + tuple(f"p{u}{v}" for u, v in _CROSS_PAIRS)
        + tuple(f"q{u}{v}" for u, v in _CROSS_PAIRS)
    )


def family_strategy(params: WinningFamilyParams) -> StrategyTable:
    """The exact strategy table realized by a family parameter assignment."""
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for u in range(3):
        entries[(u, u, next_colour(u), prev_colour(u))] = params.p_same[u]
        entries[(u, u, prev_colour(u), next_colour(u))] = 1 - params.p_same[u]
    for u, v in _CROSS_PAIRS:
        w = 3 - u - v  # the third colour
        p, q = params.p_cross[(u, v)], params.q_cross[(u, v)]
        entries[(u, v, w, u)] = p
        entries[(u, v, v, w)] = q
        entries[(u, v, v, u)] = 1 - p - q
    return StrategyTable.from_dict((3, 3, 3, 3), entries)


# The constant boxes are immutable, so each is built once and shared.
@functools.cache
def rgb0() -> StrategyTable:
    """The deterministic winning box: x = a+1; y = a if b = a-1, else a-1."""
    def rule(a, b, x, y):
        wanted_y = a if b == prev_colour(a) else prev_colour(a)
        return 1 if (x == next_colour(a) and y == wanted_y) else 0

    return StrategyTable.from_function((3, 3, 3, 3), rule)


@functools.cache
def rgrb() -> StrategyTable:
    """The symmetric winning box: every valid output except (b, a), each 1/2.

    This is family_strategy at the all-1/2 parameter point, and the unique
    no-signalling member of the winning family.
    """
    half = Fraction(1, 2)

    def rule(a, b, x, y):
        if (x, y) == (b, a) or not rgb_predicate(a, b, x, y):
            return 0
        return half

    return StrategyTable.from_function((3, 3, 3, 3), rule)


def enumerate_winning_deterministic_boxes(game: Game) -> int:
    """Count deterministic boxes (one output pair per input pair) that always win.

    The count is the product over input pairs of the number of winning output
    pairs, so an unsatisfiable row makes it zero.
    """
    na, nb, nx, ny = game.shape
    count = 1
    for a in range(na):
        for b in range(nb):
            count *= sum(
                1
                for x in range(nx)
                for y in range(ny)
                if game.predicate(a, b, x, y)
            )
    return count


def local_bound(game: Game):
    """Maximum winning probability over unassisted deterministic pairs.

    Best response: for each of Alice's |X|^|A| functions, Bob answers each
    input b on its own with the y that wins the most weight, because the
    score of a pair is a sum of one term per b.  That is |X|^|A| x |B| x |Y|
    work, and games where it exceeds ENUMERATION_GUARD are refused.  The
    weights are scaled to integers by the lcm of their exact denominators
    (floats included), so every comparison is exact and cheap.

    Returns (value, f_a, f_b) where (f_a, f_b) is the lexicographically first
    argmax, and value sums the game's own weights (Fractions stay Fractions).
    """
    na, nb, nx, ny = game.shape
    if nx**na * nb * ny > ENUMERATION_GUARD:
        raise ValueError("deterministic strategy space exceeds the enumeration guard")
    weights = {ab: Fraction(w) for ab, w in game.input_dist.items()}
    scale = math.lcm(*(w.denominator for w in weights.values()))
    # gain[a][x][b * ny + y]: the scaled weight of (a, b) when (x, y) wins it.
    gain = [[[0] * (nb * ny) for _ in range(nx)] for _ in range(na)]
    for (a, b), w in weights.items():
        units = int(w * scale)
        for x in range(nx):
            for y in range(ny):
                if game.predicate(a, b, x, y):
                    gain[a][x][b * ny + y] += units
    best, best_pair = -1, None
    for f_a in itertools.product(range(nx), repeat=na):
        scores = list(map(sum, zip(*(gain[a][x] for a, x in enumerate(f_a)))))
        total, f_b = 0, []
        for b in range(nb):
            row = scores[b * ny : (b + 1) * ny]
            top = max(row)
            total += top
            f_b.append(row.index(top))
        # Strictly greater keeps the first f_a, and row.index the first y.
        if total > best:
            best, best_pair = total, (f_a, tuple(f_b))
    f_a, f_b = best_pair
    value = sum(
        weight
        for (a, b), weight in game.input_dist.items()
        if game.predicate(a, b, f_a[a], f_b[b])
    )
    return value, f_a, f_b


def l1_distance(table_a: StrategyTable, table_b: StrategyTable):
    """Entrywise L1 distance between two tables on the same alphabets."""
    if table_a.shape != table_b.shape:
        raise ValueError(f"shape mismatch: {table_a.shape} != {table_b.shape}")
    return sum(abs(p - q) for p, q in zip(table_a.probs, table_b.probs))


def mix(tables: Sequence[StrategyTable], weights: Sequence) -> StrategyTable:
    """Convex combination of tables over identical alphabets."""
    if len(tables) != len(weights) or not tables:
        raise ValueError("need one weight per table and at least one table")
    shape = tables[0].shape
    if any(t.shape != shape for t in tables):
        raise ValueError("mixed tables must share alphabets")
    weights = [_coerce(w) for w in weights]
    slack = FLOAT_ROW_TOL if any(isinstance(w, float) for w in weights) else 0
    if any(w < 0 for w in weights) or abs(sum(weights) - 1) > slack:
        raise ValueError("weights must be nonnegative and sum to 1")
    if not slack and all(t.is_exact for t in tables):
        # Each column summed in integers over one common denominator.
        units, unit = _numerators(weights)
        nums, den = _numerators([p for t in tables for p in t.probs])
        n = len(tables[0].probs)
        totals = [0] * n
        for i, u in enumerate(units):
            if u:
                totals = [s + u * v for s, v in zip(totals, nums[i * n : (i + 1) * n])]
        den *= unit
        return StrategyTable(shape, tuple(Fraction(s, den) if s else _ZERO for s in totals))
    # Zero terms are skipped, except a float zero among exact terms: it turns
    # the running sum into a float, and later terms are then added as floats.
    all_float = all(isinstance(w, float) for w in weights)
    zero = 0.0 if all_float else _ZERO
    probs = []
    for column in zip(*(t.probs for t in tables)):
        terms = [
            w * p
            for w, p in zip(weights, column)
            if p != 0 or not all_float and (isinstance(w, float) or isinstance(p, float))
        ]
        probs.append(sum(terms) if terms else zero)
    return StrategyTable(shape, tuple(probs))
