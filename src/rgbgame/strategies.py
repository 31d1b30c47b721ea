"""Exact strategy tables for the three-colour anti-agreement game.

Two referees hand Alice and Bob one colour each, drawn uniformly from
{red, green, blue} = {0, 1, 2}.  Alice answers x, Bob answers y, and the
round is won when

    a != x  and  x != y  and  y != b.

Everything in this module is exact: probabilities are `fractions.Fraction`
throughout, and table equality means equality of every entry.  Float-valued
tables (produced by the quantum simulation) reuse the same container.  Row
sums, marginals and sure-losing mass are checked exactly on exact tables and
within ``FLOAT_ROW_TOL`` on float ones.  Every probability, weight and
parameter a caller passes is read by ``_number``: a rational is exact, a
float stays a float, and anything else is refused; only ``formats`` reads text.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

RED, GREEN, BLUE = 0, 1, 2

#: Hard ceiling on the work of local_bound without pruning, its worst case:
#: |X|^|A| x |B| x |Y| score cells.  Pruning only ever lowers the work.
ENUMERATION_GUARD = 10**9

#: Slack of the sums checked on a float-valued table (exact tables get none).
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


def _number(value, what, key=""):
    """A caller's number: a rational (int, bool, Fraction) as a Fraction, 0 and 1 shared, any
    other real as a float; anything else, text included, raises a ValueError naming ``what``."""
    if type(value) is Fraction or isinstance(value, float):
        return value
    if isinstance(value, numbers.Rational):
        return _ONE if value == 1 else _ZERO if value == 0 else Fraction(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise ValueError(f"{what}{key} is {value!r}, not a number")


def _unit(value, what, key=""):
    """``value`` read by _number, refused outside [0, 1] (NaN too); exact, in integers."""
    v = value if type(value) is Fraction else _number(value, what, key)
    if not (0 <= v.numerator <= v.denominator if type(v) is Fraction else 0 <= v <= 1):
        raise ValueError(f"{what}{key} = {v} outside [0, 1]")
    return v


def _distribution(items, what, name):
    """The weights of (key, weight) ``items`` read by _number, refused unless nonnegative and
    summing to 1 (within FLOAT_ROW_TOL if one is a float), and their _numerators if exact."""
    weights = [_number(w, name, key) for key, w in items]
    exact = None if any(isinstance(w, float) for w in weights) else _numerators(weights)
    values, one = exact or (weights, 1)
    total = sum(values)
    # Written as negations so that a NaN weight, which fails every comparison, is refused.
    if not abs(total - one) <= (0 if exact else FLOAT_ROW_TOL):
        raise ValueError(f"{what} sums to {Fraction(total, one) if exact else total}, not 1")
    if not all(v >= 0 for v in values):
        raise ValueError(f"{what} has a negative weight")
    return weights, exact or (None, None)


def _is_int(value) -> bool:
    """An int and not a bool; JSON true/false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_symbol(s, size) -> bool:
    # An int, not a bool, in range(size); a range test alone holds 1.0 and True.
    return _is_int(s) and 0 <= s < size


def _shape(shape) -> tuple:
    """Four alphabet sizes, each an int of at least 1, as a tuple."""
    shape = tuple(shape) if hasattr(shape, "__iter__") else (shape,)
    if len(shape) != 4 or not all(_is_int(n) and n >= 1 for n in shape):
        raise ValueError(f"alphabet sizes must be four integers, each at least 1, got {shape}")
    return shape


def probability_to_string(p) -> str:
    """Canonical text for one probability: lowest-terms "num/den" or %.17g."""
    p = _number(p, "probability")
    if isinstance(p, float):
        return "%.17g" % p
    return f"{p.numerator}/{p.denominator}"


def _numerators(values) -> tuple[tuple, int]:
    """Exact values as integer numerators over their least common denominator.

    Returns (numerators, denominator); the exact kernels do their sums and
    products on these integers and build each output Fraction once.
    """
    dens = [p.denominator for p in values]
    den = math.lcm(*set(dens))
    return tuple(p.numerator * (den // d) for p, d in zip(values, dens)), den


class _Frozen:
    """An immutable value over ``__slots__``, set once by ``__init__``.

    The constructor binds the public slots in ``__slots__`` order, by position
    and then by name; a missing, repeated or unknown field raises TypeError.
    Equality compares the public slots of two instances of one class, the
    hash and the repr are taken over them, and copy and pickle rebuild from
    them; a slot named with a leading underscore is derived, and left out.
    Assignment after ``__init__`` raises.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            given, rest = fields[: len(values)], fields[len(values) :]
            if len(values) > len(fields) or named.keys() != set(rest):
                missing = [name for name in rest if name not in named]
                raise TypeError(
                    f"{type(self).__qualname__}() takes fields {', '.join(fields)}: got "
                    f"{len(values)} by position, missing {missing}, repeated "
                    f"{sorted(named.keys() & given)}, unknown {sorted(named.keys() - fields)}"
                )
            values += tuple(map(named.__getitem__, rest))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
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
    dense row-major tuple of entries.  Exact tables (no entry a float) must
    have every row summing to 1 exactly; float tables within 1e-9, and their
    entries must be finite.

    An exact table keeps the pair (numerators, D) of its entries over their
    least common denominator D in the private slot ``_exact`` (None on a
    float table).  Its rows are validated on these integers, and the exact
    kernels read them in place of the entries.  The pair is derived from
    ``probs``, so equality, hashing, the repr and pickling ignore it.
    """

    __slots__ = ("shape", "probs", "_exact")

    def __init__(self, shape: tuple[int, int, int, int], probs: tuple):
        super().__init__(_shape(shape), tuple(probs))
        self._validate(None)

    @classmethod
    def _from_numerators(cls, shape, nums, den) -> "StrategyTable":
        """The exact table of entries nums[i] / den, built from the integers;
        with den None, the table of entries nums, built by the constructor."""
        if den is None:
            return cls(shape, tuple(map(_number, nums, itertools.repeat("entry"))))
        # Dividing by this gcd leaves den the least common denominator.
        g = math.gcd(den, *nums)
        nums, den = (tuple(n // g for n in nums) if g != 1 else tuple(nums)), den // g
        # One Fraction per distinct value; Fractions are immutable.
        shared = {n: Fraction(n, den) if n else _ZERO for n in set(nums)}
        table = cls.__new__(cls)
        _Frozen.__init__(table, _shape(shape), tuple(map(shared.__getitem__, nums)))
        table._validate((nums, den))
        return table

    def _validate(self, exact) -> None:
        """Check shape and rows and set ``_exact``; None means derive it."""
        shape, probs = self.shape, self.probs
        na, nb, nx, ny = shape
        if len(probs) != na * nb * nx * ny:
            raise ValueError(
                f"need {na * nb * nx * ny} entries for shape {shape}, got {len(probs)}"
            )
        n = nx * ny
        if exact is None and not any(isinstance(p, float) for p in probs):
            try:
                exact = _numerators(probs)
            except AttributeError:  # an entry without a denominator: "1", None, 1j
                self._refuse()  # any other real number makes a float table
        object.__setattr__(self, "_exact", exact)
        for k, (a, b) in enumerate(self.inputs()):
            if exact:
                # Numerators over the table's common denominator den.
                nums, den = exact
                row = nums[k * n : (k + 1) * n]
                if sum(row) != den:
                    raise ValueError(f"row ({a},{b}) sums to {Fraction(sum(row), den)}, not 1")
                if min(row) < 0 or max(row) > den:
                    raise ValueError(f"row ({a},{b}) has an entry outside [0,1]")
            else:
                row = probs[k * n : (k + 1) * n]
                # NaN fails every comparison below, so it is caught here.
                try:
                    finite = all(map(math.isfinite, row))
                    total = sum(filter(None, row))
                except TypeError:  # beside a float: "0.5", None, 0.5j, Decimal("0.5")
                    self._refuse()
                    raise
                if not finite:
                    raise ValueError(f"row ({a},{b}) has a non-finite entry")
                if abs(total - 1) > FLOAT_ROW_TOL:
                    raise ValueError(f"row ({a},{b}) sums to {total!r}, not 1")
                if min(row) < -1e-12 or max(row) > 1 + 1e-9:
                    raise ValueError(f"row ({a},{b}) has an entry outside [0,1]")

    def _refuse(self) -> None:
        """Raise the ValueError of _number for the first entry that is not a number."""
        for key, p in zip(itertools.product(*map(range, self.shape)), self.probs):
            _number(p, "entry ", key)

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    def _slack(self) -> float:
        """The slack of a check on this table: 0 if exact, else FLOAT_ROW_TOL."""
        return FLOAT_ROW_TOL if self._exact is None else 0

    @classmethod
    def from_function(cls, shape, fn) -> "StrategyTable":
        """Build a table from fn(a, b, x, y) -> probability."""
        keys = itertools.product(*map(range, _shape(shape)))
        return cls(shape, tuple(_number(fn(*key), "entry ", key) for key in keys))

    @classmethod
    def from_dict(cls, shape, entries: Mapping) -> "StrategyTable":
        """Build a table from {(a, b, x, y): p}; missing tuples are zero."""
        na, nb, nx, ny = _shape(shape)
        probs = [_ZERO] * (na * nb * nx * ny)
        for key, p in entries.items():
            if not (len(key) == 4 and all(map(_is_symbol, key, shape))):
                raise ValueError(f"entry {key!r} outside the alphabets of shape {tuple(shape)}")
            a, b, x, y = key
            probs[((a * nb + b) * nx + x) * ny + y] = _number(p, "entry ", key)
        return cls(shape, tuple(probs))

    def _index(self, a, b, x, y) -> int:
        na, nb, nx, ny = self.shape
        index = ((a * nb + b) * nx + x) * ny + y
        # 1.0, Fraction(1) and True are in range but are not symbols.
        if not (type(a) is type(b) is type(x) is type(y) is int and 0 <= a < na
                and 0 <= b < nb and 0 <= x < nx and 0 <= y < ny):
            for value, size, name in ((a, na, "a"), (b, nb, "b"), (x, nx, "x"), (y, ny, "y")):
                if not _is_symbol(value, size):
                    raise ValueError(f"symbol {name}={value!r} outside range(0, {size})")
        return index

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
        super().__init__(_shape(shape), predicate, input_dist)
        if not callable(predicate):
            raise ValueError(f"predicate is {predicate!r}, not callable")
        na, nb = self.shape[:2]
        for pair in input_dist:
            if not (len(pair) == 2 and all(map(_is_symbol, pair, self.shape))):
                raise ValueError(f"input pair {pair!r} outside range({na}) x range({nb})")
        _distribution(input_dist.items(), "input distribution", "weight of input pair ")


def rgb_game() -> Game:
    """The colour game: uniform inputs over 3 x 3, anti-agreement predicate."""
    weight = Fraction(1, 9)
    dist = {(a, b): weight for a in range(3) for b in range(3)}
    return Game((3, 3, 3, 3), rgb_predicate, dist)


def _chsh_predicate(a: int, b: int, x: int, y: int) -> bool:
    return (x ^ y) == (a & b)


def chsh_game() -> Game:
    """The binary XOR game (x ^ y must equal a & b), uniform inputs."""
    weight = Fraction(1, 4)
    dist = {(a, b): weight for a in range(2) for b in range(2)}
    return Game((2, 2, 2, 2), _chsh_predicate, dist)


def win_probability(table: StrategyTable, game: Game):
    """Expected winning probability of a strategy table in a game.

    Exact when the table is exact; float otherwise.  Under int or Fraction
    weights an exact table is summed in integers, over one denominator.
    """
    if table.shape != game.shape:
        raise ValueError(f"table shape {table.shape} != game shape {game.shape}")
    _, nb, nx, ny = table.shape
    dist = game.input_dist
    values, den, weights, total = table.probs, None, dist.values(), _ZERO
    if table._exact and all(isinstance(w, (int, Fraction)) for w in weights):
        # The table's numerators over D, the weights' numerators over unit.
        (values, d), (weights, unit) = table._exact, _numerators(list(weights))
        den, total = d * unit, 0
    n = nx * ny
    for (a, b), w in zip(dist, weights):
        if w:
            start = (a * nb + b) * n
            # Zero cells are skipped, so an all-losing float row adds int 0.
            total += w * sum(
                v for i, v in enumerate(values[start : start + n])
                if v and game.predicate(a, b, *divmod(i, ny))
            )
    return Fraction(total, den) if den else total


def deterministic_strategy(f_a, f_b, shape=(3, 3, 3, 3)) -> StrategyTable:
    """The 0/1 table where Alice plays f_a[a] and Bob plays f_b[b]."""
    na, nb, nx, ny = _shape(shape)
    for name, f, size, alphabet in (("f_a", f_a, na, "|A|"), ("f_b", f_b, nb, "|B|")):
        if len(f) != size:
            raise ValueError(f"{name} has length {len(f)}, not {alphabet} = {size}")
    cells = []
    for a in range(na):
        x = f_a[a]
        for b in range(nb):
            row, y = [0] * (nx * ny), f_b[b]
            # An answer outside the alphabet leaves the row zero, which the
            # table's row check refuses.
            if _is_symbol(x, nx) and _is_symbol(y, ny):
                row[x * ny + y] = 1
            cells += row
    return StrategyTable._from_numerators(shape, cells, 1)


_CROSS_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _check_unit(value, name, key="") -> Fraction:
    value = _unit(value, name, key)  # a family parameter is exact: a float at its binary value
    return value if type(value) is Fraction else Fraction(value)


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
        p0, p1, p2 = _check_unit(p0, "p0"), _check_unit(p1, "p1"), _check_unit(p2, "p2")
        for name, table in (("p_cross", p_cross), ("q_cross", q_cross)):
            if set(table) != set(_CROSS_PAIRS):
                raise ValueError(f"{name} must be keyed by the 6 ordered colour pairs")
        p_cross = {uv: _check_unit(p, "p_cross", uv) for uv, p in p_cross.items()}
        q_cross = {uv: _check_unit(q, "q_cross", uv) for uv, q in q_cross.items()}
        for uv in _CROSS_PAIRS:
            (p, d), (q, e) = p_cross[uv].as_integer_ratio(), q_cross[uv].as_integer_ratio()
            if p * e + q * d > d * e:
                raise ValueError(f"p_cross{uv} + q_cross{uv} exceeds 1")
        super().__init__(p0, p1, p2, p_cross, q_cross)

    def __hash__(self):
        # The cross tables are dicts, so only the same-colour values hash.
        return hash(self.p_same)

    @property
    def p_same(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p0, self.p1, self.p2)

    @classmethod
    def constant(cls, value) -> "WinningFamilyParams":
        """All 15 parameters set to the same value."""
        v = _check_unit(value, "value")
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
    nums, den = _numerators(params.as_vector())
    cells = [0] * 81
    for u in range(3):
        row = (u * 3 + u) * 9
        cells[row + next_colour(u) * 3 + prev_colour(u)] = nums[u]
        cells[row + prev_colour(u) * 3 + next_colour(u)] = den - nums[u]
    for (u, v), p, q in zip(_CROSS_PAIRS, nums[3:9], nums[9:]):
        row, w = (u * 3 + v) * 9, 3 - u - v  # w is the third colour
        cells[row + w * 3 + u] = p
        cells[row + v * 3 + w] = q
        cells[row + v * 3 + u] = den - p - q
    return StrategyTable._from_numerators((3, 3, 3, 3), cells, den)


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
    pairs, so an unsatisfiable row makes it zero.  It runs over every input
    pair of the alphabets, including pairs that ``input_dist`` leaves out or
    weights zero: such a pair's row still counts.
    """
    na, nb, nx, ny = game.shape
    outputs = list(itertools.product(range(nx), range(ny)))
    return math.prod(
        sum(1 for x, y in outputs if game.predicate(a, b, x, y))
        for a, b in itertools.product(range(na), range(nb))
    )


def _best_response(gain, ny) -> tuple:
    """The lexicographically first best pair (score, f_a, f_b) for integer payoffs.

    ``gain[a][x][b * ny + y]``, of any sign, is what input pair (a, b) pays
    when Alice answers x and Bob y; a pair scores the sum of its payoffs.
    Best response: for each of Alice's functions, Bob answers each input b
    on its own with the y that scores the most, because the score of a pair
    is a sum of one term per b.  Alice's functions are searched depth first,
    one input at a time, and a prefix is dropped when even the best answers
    to her remaining inputs could not beat the best pair found so far.
    With no pruning that is |X|^|A| x |B| x |Y| work; typical games reach
    far fewer of her functions (a median of 20 of 256, quartiles 12 and 28,
    on random 4-letter games with half of each row's output pairs winning).
    """
    na, nx, width = len(gain), len(gain[0]), len(gain[0][0])
    # rest[a][j]: the most that inputs a, a + 1, ... can still add to column j.
    rest = [[0] * width]
    for rows in reversed(gain):
        rest.append(list(map(operator.add, rest[-1], map(max, zip(*rows)))))
    rest.reverse()
    # ahead[a][x][j]: what answering x to input a adds to column j, plus the
    # most that the inputs after a can still add.
    ahead = [
        [list(map(operator.add, row, after)) for row in rows] for rows, after in zip(gain, rest[1:])
    ]
    slices = [slice(i, i + ny) for i in range(0, width, ny)]
    best, best_column, f_a = -math.inf, None, None
    # Depth first in itertools.product order.  A stack entry (a, x, column)
    # sets Alice's answer to input a to x; column[b * ny + y] is the score
    # of the prefix before a when Bob answers y to b.  An entry's own column
    # is built only once it survives its bound, and only if it has children.
    path, answers = [0] * na, range(nx - 1, -1, -1)
    stack = [(0, x, [0] * width) for x in answers]
    while stack:
        a, x, column = stack.pop()
        path[a] = x
        reach = list(map(operator.add, column, ahead[a][x]))
        bound = sum(map(max, map(reach.__getitem__, slices)))
        # A leaf scores bound and must be strictly greater, which keeps the
        # first f_a; a prefix that cannot be is dropped.
        if bound <= best:
            continue
        if a + 1 == na:
            # Nothing is left to add, so a leaf's reach is its column.
            best, best_column, f_a = bound, reach, tuple(path)
            continue
        child = list(map(operator.add, column, gain[a][x]))
        stack.extend([(a + 1, z, child) for z in answers])
    # index takes the first best y for each b.
    f_b = tuple(best_column.index(max(best_column[s]), s.start) - s.start for s in slices)
    return best, f_a, f_b


def local_bound(game: Game):
    """Maximum winning probability over unassisted deterministic pairs.

    ``_best_response`` searches the game's weights, scaled to integers by the
    lcm of their exact denominators (floats included) so that every
    comparison is exact and cheap; games where its work without pruning
    exceeds ENUMERATION_GUARD are refused.  Returns (value, f_a, f_b) for
    the lexicographically first argmax; value sums the game's own weights
    (Fractions stay Fractions).
    """
    na, nb, nx, ny = game.shape
    if nx**na * nb * ny > ENUMERATION_GUARD:
        raise ValueError("deterministic strategy space exceeds the enumeration guard")
    dist, predicate = game.input_dist, game.predicate
    weights = [w if type(w) is Fraction else Fraction(w) for w in dist.values()]
    scale = math.lcm(*(w.denominator for w in weights))
    # gain[a][x][b * ny + y]: the scaled weight of (a, b) when (x, y) wins it.
    gain = [[[0] * (nb * ny) for _ in range(nx)] for _ in range(na)]
    for (a, b), w in zip(dist, weights):
        # int(): a Fraction of a numpy integer keeps it as its numerator, of fixed width.
        units, start = int(w.numerator) * (scale // w.denominator), b * ny
        for x, row in enumerate(gain[a]):
            for y in range(ny):
                if predicate(a, b, x, y):
                    row[start + y] += units
    _, f_a, f_b = _best_response(gain, ny)
    value = sum(weight for (a, b), weight in dist.items() if predicate(a, b, f_a[a], f_b[b]))
    return value, f_a, f_b


def l1_distance(table_a: StrategyTable, table_b: StrategyTable):
    """Entrywise L1 distance between two tables on the same alphabets."""
    if table_a.shape != table_b.shape:
        raise ValueError(f"shape mismatch: {table_a.shape} != {table_b.shape}")
    if table_a._exact and table_b._exact:
        (nums_a, den_a), (nums_b, den_b) = table_a._exact, table_b._exact
        den = math.lcm(den_a, den_b)
        scale_a, scale_b = den // den_a, den // den_b
        return Fraction(
            sum(abs(p * scale_a - q * scale_b) for p, q in zip(nums_a, nums_b)), den
        )
    return sum(abs(p - q) for p, q in zip(table_a.probs, table_b.probs))


def mix(tables: Sequence[StrategyTable], weights: Sequence) -> StrategyTable:
    """Convex combination of tables over identical alphabets."""
    if len(tables) != len(weights) or not tables:
        raise ValueError("need one weight per table and at least one table")
    shape = tables[0].shape
    if any(t.shape != shape for t in tables):
        raise ValueError("mixed tables must share alphabets")
    weights, (units, unit) = _distribution(enumerate(weights), "weight vector", "weight ")
    if unit and all(t._exact for t in tables):
        # Each column summed in integers over one common denominator.
        den = math.lcm(*(t._exact[1] for t in tables))
        totals = [0] * len(tables[0].probs)
        for u, t in zip(units, tables):
            if u:
                nums, d = t._exact
                u *= den // d
                totals = [s + u * v for s, v in zip(totals, nums)]
        return StrategyTable._from_numerators(shape, totals, den * unit)
    columns = zip(*(t.probs for t in tables))
    return StrategyTable(shape, tuple(sum(map(operator.mul, weights, c)) for c in columns))
