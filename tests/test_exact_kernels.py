"""The integer exact kernels against the Fraction code they replaced.

Each ``_fraction_*`` function below is a kernel as it read before exact
tables kept their integer numerators: it rebuilds integers from the entries
on every call, or sums and divides the entries as Fractions.  The new
kernels must give the same values with the same types, the same witnesses,
and tables whose cached pair is the entries over their least common
denominator.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbgame.locality import (
    Direction,
    OneWayProtocol,
    SignallingError,
    SignallingWitness,
    decompose_one_way,
    is_no_signalling,
    recompose_one_way,
)
from rgbgame.strategies import (
    FLOAT_ROW_TOL,
    Game,
    StrategyTable,
    _coerce,
    _numerators,
    l1_distance,
    mix,
    rgb_predicate,
    rgrb,
    win_probability,
)

F = Fraction


# ---------------------------------------------------------------------------
# the Fraction oracles


class _FractionSwapped:
    """The view with the parties exchanged, entries transposed row by row."""

    def __init__(self, table):
        na, nb, nx, ny = table.shape
        self.table = table
        self.shape = (nb, na, ny, nx)
        self.probs = _fraction_transposed(table.shape, table.probs)

    _index = StrategyTable._index
    cells = StrategyTable.cells


def _fraction_transposed(shape, probs):
    na, nb, nx, ny = shape
    n = nx * ny
    swapped = []
    for b in range(nb):
        for a in range(na):
            row = probs[(a * nb + b) * n : (a * nb + b + 1) * n]
            for y in range(ny):
                swapped += row[y::ny]
    return tuple(swapped)


def _fraction_swap(table):
    return table.table if isinstance(table, _FractionSwapped) else _FractionSwapped(table)


def _fraction_x_marginal(table, a, b):
    _, _, nx, ny = table.shape
    row = table.cells(a, b)
    return {x: sum(row[x * ny : (x + 1) * ny]) for x in range(nx)}


def _fraction_y_marginal(table, a, b):
    _, _, _, ny = table.shape
    row = table.cells(a, b)
    return {y: sum(row[y::ny]) for y in range(ny)}


def _fraction_right_witness(table, atol, side="right"):
    na, nb, _, ny = table.shape
    for b in range(nb):
        reference = _fraction_y_marginal(table, 0, b)
        for a in range(1, na):
            current = _fraction_y_marginal(table, a, b)
            for y in range(ny):
                if abs(current[y] - reference[y]) > atol:
                    return SignallingWitness(side, b, y, (0, a), (reference[y], current[y]))
    return None


def _fraction_left_witness(table, atol):
    return _fraction_right_witness(_fraction_swap(table), atol, side="left")


def _fraction_is_no_signalling(table):
    atol = table._slack()
    witness = _fraction_right_witness(table, atol) or _fraction_left_witness(table, atol)
    return (witness is None), witness


def _fraction_decompose(table, direction):
    atol = table._slack()
    if direction is Direction.LEFT_TO_RIGHT:
        witness, view = _fraction_left_witness(table, atol), table
    else:
        witness, view = _fraction_right_witness(table, atol), _fraction_swap(table)
    if witness is not None:
        raise SignallingError(witness)
    na, nb, nx, ny = view.shape
    sender = {a: _fraction_x_marginal(view, a, 0) for a in range(na)}
    receiver = {}
    for a in range(na):
        for b in range(nb):
            row = view.cells(a, b)
            for x in range(nx):
                mass = sender[a][x]
                if mass == 0:
                    receiver[(a, b, x)] = {y: Fraction(1, ny) for y in range(ny)}
                else:
                    cells = row[x * ny : (x + 1) * ny]
                    receiver[(a, b, x)] = {y: p / mass for y, p in enumerate(cells)}
    return OneWayProtocol(direction, table.shape, sender, receiver)


def _fraction_recompose(protocol):
    na, nb, nx, ny = protocol.shape
    left_to_right = protocol.direction is Direction.LEFT_TO_RIGHT
    if not left_to_right:
        na, nb, nx, ny = nb, na, ny, nx
    probs = []
    for a in range(na):
        sender = protocol.sender[a]
        for b in range(nb):
            for x in range(nx):
                s, receiver = sender[x], protocol.receiver[(a, b, x)]
                probs += [_coerce(s * receiver[y]) for y in range(ny)]
    if not left_to_right:
        probs = _fraction_transposed((na, nb, nx, ny), probs)
    return StrategyTable(protocol.shape, tuple(probs))


def _fraction_win(table, game):
    ny = table.shape[3]
    total = Fraction(0)
    for (a, b), weight in game.input_dist.items():
        if weight == 0:
            continue
        mass = sum(
            p for i, p in enumerate(table.cells(a, b))
            if p != 0 and game.predicate(a, b, *divmod(i, ny))
        )
        total += weight * mass
    return total


def _fraction_mix(tables, weights):
    """mix's exact path as it was: numerators rebuilt from every entry."""
    weights = [_coerce(w) for w in weights]
    if any(isinstance(w, float) for w in weights) or not all(t.is_exact for t in tables):
        columns = zip(*(t.probs for t in tables))
        probs = tuple(sum(w * p for w, p in zip(weights, c)) for c in columns)
        return StrategyTable(tables[0].shape, probs)
    units, unit = _numerators(weights)
    nums, den = _numerators([p for t in tables for p in t.probs])
    n = len(tables[0].probs)
    totals = [0] * n
    for i, u in enumerate(units):
        if u:
            totals = [s + u * v for s, v in zip(totals, nums[i * n : (i + 1) * n])]
    den *= unit
    probs = tuple(Fraction(s, den) if s else Fraction(0) for s in totals)
    return StrategyTable(tables[0].shape, probs)


def _fraction_l1(table_a, table_b):
    return sum(abs(p - q) for p, q in zip(table_a.probs, table_b.probs))


# ---------------------------------------------------------------------------
# comparing results by value and type


def _typed(values):
    """Types and reprs: repr tells float bits apart, -0.0 included."""
    if isinstance(values, dict):
        return [(key, type(v), repr(v)) for key, v in values.items()]
    return [(type(v), repr(v)) for v in values]


def _typed_witness(witness):
    if witness is None:
        return None
    head = (witness.side, witness.fixed_input, witness.output, witness.sender_inputs)
    return head + (_typed(witness.marginals),)


def _typed_protocol(protocol):
    return (
        protocol.direction,
        protocol.shape,
        [(a, _typed(dist)) for a, dist in protocol.sender.items()],
        [(key, _typed(dist)) for key, dist in protocol.receiver.items()],
    )


def _assert_cached_pair(table):
    """The invariant: the cached pair is the entries over their least
    common denominator, or None on a float table."""
    if table.is_exact:
        assert table._exact == _numerators(table.probs)
    else:
        assert table._exact is None


# ---------------------------------------------------------------------------
# random exact tables


def _distributions(draw, count, size, values=st.integers(0, 7)):
    """count lists of size Fractions, each summing to 1, zeros included."""
    raw = draw(st.lists(values, min_size=count * size, max_size=count * size))
    rows = [raw[i : i + size] for i in range(0, count * size, size)]
    return [
        [F(v, sum(row)) for v in row] if sum(row) else [F(1)] + [F(0)] * (size - 1)
        for row in rows
    ]


def _one_way_box(draw, shape, direction):
    """A box that decomposes along direction: a random protocol recomposed
    by the Fraction oracle, sender outputs of zero mass included."""
    na, nb, nx, ny = shape
    if direction is Direction.RIGHT_TO_LEFT:
        na, nb, nx, ny = nb, na, ny, nx
    # Mostly zeros, so that some sender outputs keep zero mass in a mixture.
    senders = iter(_distributions(draw, na, nx, st.sampled_from([0, 0, 0, 1, 2, 7])))
    receivers = iter(_distributions(draw, na * nb * nx, ny))
    sender = {a: dict(enumerate(next(senders))) for a in range(na)}
    receiver = {
        (a, b, x): dict(enumerate(next(receivers)))
        for a in range(na)
        for b in range(nb)
        for x in range(nx)
    }
    return _fraction_recompose(OneWayProtocol(direction, shape, sender, receiver))


@st.composite
def exact_tables(draw, shape):
    """Mixtures of a left-to-right box, a right-to-left box and random
    (signalling) rows, with weights that are often zero: no-signalling,
    one-way in either direction, and signalling tables all occur."""
    na, nb, nx, ny = shape
    random_rows = [p for row in _distributions(draw, na * nb, nx * ny) for p in row]
    boxes = [
        _one_way_box(draw, shape, Direction.LEFT_TO_RIGHT),
        _one_way_box(draw, shape, Direction.RIGHT_TO_LEFT),
        StrategyTable(shape, tuple(random_rows)),
    ]
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=3, max_size=3).filter(sum))
    return _fraction_mix(boxes, [F(w, sum(weights)) for w in weights])


@st.composite
def table_pairs(draw):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    return draw(exact_tables(shape)), draw(exact_tables(shape))


def _random_game(draw, shape):
    na, nb, nx, ny = shape
    wins = draw(st.lists(st.booleans(), min_size=na * nb * nx * ny, max_size=na * nb * nx * ny))
    weights = _distributions(draw, 1, na * nb)[0]
    if draw(st.booleans()):
        weights = [float(w) for w in weights]
    dist = {(a, b): weights[a * nb + b] for a in range(na) for b in range(nb)}
    if draw(st.booleans()):
        # An omitted pair counts as weight zero.
        dist = {ab: w for ab, w in dist.items() if w != 0}
    return Game(shape, lambda a, b, x, y: wins[((a * nb + b) * nx + x) * ny + y], dist)


# ---------------------------------------------------------------------------
# the properties


def _check_locality(table):
    ok, witness = is_no_signalling(table)
    expected_ok, expected = _fraction_is_no_signalling(table)
    assert ok == expected_ok
    assert _typed_witness(witness) == _typed_witness(expected)
    for direction in Direction:
        try:
            expected = _fraction_decompose(table, direction)
        except SignallingError as err:
            with pytest.raises(SignallingError, match=re.escape(str(err))) as raised:
                decompose_one_way(table, direction)
            assert _typed_witness(raised.value.witness) == _typed_witness(err.witness)
            continue
        protocol = decompose_one_way(table, direction)
        assert _typed_protocol(protocol) == _typed_protocol(expected)
        recomposed = recompose_one_way(protocol)
        assert _typed(recomposed.probs) == _typed(_fraction_recompose(expected).probs)
        _assert_cached_pair(recomposed)
        if table.is_exact:
            assert recomposed == table


@settings(max_examples=70, deadline=None)
@given(table_pairs(), st.data())
def test_exact_kernels_match_the_fraction_code(pair, data):
    table, other = pair
    for t in (table, other):
        _assert_cached_pair(t)
        _check_locality(t)
    game = _random_game(data.draw, table.shape)
    assert _typed([win_probability(table, game)]) == _typed([_fraction_win(table, game)])
    assert _typed([l1_distance(table, other)]) == _typed([_fraction_l1(table, other)])
    lam = data.draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), 0.25]))
    mixed = mix([table, other], [lam, 1 - lam])
    assert _typed(mixed.probs) == _typed(_fraction_mix([table, other], [lam, 1 - lam]).probs)
    _assert_cached_pair(mixed)


@settings(max_examples=20, deadline=None)
@given(table_pairs(), st.data())
def test_float_tables_take_the_float_path(pair, data):
    # The float twins give the same bits as the Fraction code's float path.
    table, other = (StrategyTable(t.shape, tuple(map(float, t.probs))) for t in pair)
    _check_locality(table)
    game = _random_game(data.draw, table.shape)
    assert _typed([win_probability(table, game)]) == _typed([_fraction_win(table, game)])
    assert _typed([l1_distance(table, other)]) == _typed([_fraction_l1(table, other)])
    mixed = mix([table, other], [F(1, 3), F(2, 3)])
    assert _typed(mixed.probs) == _typed(_fraction_mix([table, other], [F(1, 3), F(2, 3)]).probs)
    _assert_cached_pair(mixed)


# ---------------------------------------------------------------------------
# the cached pair is not part of the value


def test_the_cached_pair_is_invisible_to_the_value():
    table = mix([rgrb(), StrategyTable((3, 3, 3, 3), (F(1, 9),) * 81)], [F(1, 3), F(2, 3)])
    again = StrategyTable(table.shape, table.probs)
    assert table._exact == again._exact == _numerators(table.probs)
    assert table == again and hash(table) == hash(again)
    assert repr(table) == f"StrategyTable(shape={table.shape!r}, probs={table.probs!r})"
    assert table.__reduce__() == (StrategyTable, (table.shape, table.probs))
    for rebuilt in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert rebuilt == table
        assert rebuilt._exact == table._exact
    float_table = StrategyTable((1, 1, 1, 2), (0.5, 0.5))
    assert float_table._exact is None
    assert pickle.loads(pickle.dumps(float_table))._exact is None
    with pytest.raises(AttributeError, match="^cannot assign to field '_exact'$"):
        table._exact = None


def test_a_table_built_from_numerators_is_in_lowest_terms():
    # 2/4 and 2/4 over 4 reduce to 1/2 and 1/2 over 2, as the constructor has them.
    table = StrategyTable._from_numerators((1, 1, 1, 2), [2, 2], 4)
    assert table._exact == ((1, 1), 2) == StrategyTable((1, 1, 1, 2), (F(1, 2), F(1, 2)))._exact
    assert _typed(table.probs) == _typed((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match=re.escape("row (0,0) sums to 3/4, not 1")):
        StrategyTable._from_numerators((1, 1, 1, 2), [1, 2], 4)


# ---------------------------------------------------------------------------
# games and dictionaries read from outside


def test_game_weights_follow_the_rule_of_mix():
    predicate = lambda a, b, x, y: True  # noqa: E731
    tenths = Game((1, 10, 1, 1), predicate, {(0, b): 0.1 for b in range(10)})
    assert sum(tenths.input_dist.values()) != 1
    Game((1, 2, 1, 1), predicate, {(0, 0): 0.5 + FLOAT_ROW_TOL / 2, (0, 1): 0.5})
    with pytest.raises(ValueError, match="sums to"):
        Game((1, 2, 1, 1), predicate, {(0, 0): F(1, 2) + F(1, 10**12), (0, 1): F(1, 2)})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="input distribution sums to"):
            Game((1, 2, 1, 1), predicate, {(0, 0): bad, (0, 1): 0.5})
    with pytest.raises(ValueError, match="negative weight"):
        Game((1, 2, 1, 1), predicate, {(0, 0): F(2), (0, 1): F(-1)})


@pytest.mark.parametrize(
    "pair",
    [(-1, 0), (2, 0), (0, 2), (0, -1), (0, 0, 0), (0,), (1.0, 0), (0, F(1)), (True, 0), (1, True)],
)
def test_game_refuses_input_pairs_outside_the_alphabets(pair):
    # 1.0, Fraction(1) and True lie in range(2) but are not symbols.
    half = F(1, 2)
    message = f"input pair {pair!r} outside range(2) x range(2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Game((2, 2, 2, 2), rgb_predicate, {(0, 0): half, pair: half})


@pytest.mark.parametrize(
    "key",
    [
        (0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 1.0, 0),
        (0, 0, True, 0),
    ],
)
def test_from_dict_refuses_keys_outside_the_alphabets(key):
    # Two outputs for x, so that a float or bool key does not equal the key (0, 0, 0, 0).
    with pytest.raises(ValueError, match=re.escape(f"entry {key!r} outside the alphabets")):
        StrategyTable.from_dict((1, 1, 2, 1), {(0, 0, 0, 0): 1, key: 7})
