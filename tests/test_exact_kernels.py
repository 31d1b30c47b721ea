"""The integer exact kernels against the Fraction code they replaced.

Each ``_fraction_*`` function below is a kernel as it read before exact
tables kept their integer numerators: it rebuilds integers from the entries
on every call, or sums and divides the entries as Fractions.  The box file
reader and writer, the family parameters, ``family_strategy``, ``noisy_pr``
and ``evaluate_wiring`` are here as they read before they worked on
numerators too.  The new kernels must give the same values with the same
types, the same witnesses and messages, and tables whose cached pair is the
entries over their least common denominator.
"""

import copy
import itertools
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbgame.formats import (
    BoxFormatError,
    _read_alphabets,
    box_from_json_dict,
    box_to_json_dict,
    dump_box,
    json_text,
)
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
    _CROSS_PAIRS,
    FLOAT_ROW_TOL,
    Game,
    StrategyTable,
    WinningFamilyParams,
    _coerce,
    _is_int,
    _numerators,
    family_strategy,
    l1_distance,
    mix,
    next_colour,
    prev_colour,
    probability_to_string,
    rgb_predicate,
    rgrb,
    win_probability,
)
from rgbgame.wiring import WiringProtocol, _maps, evaluate_wiring, noisy_pr

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


def _fraction_check_unit(name, value):
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{name} = {value} outside [0, 1]")
    return value


def _fraction_params(values):
    """WinningFamilyParams.from_vector as it read: the 15 values, checked as
    Fractions, in canonical order."""
    p0, p1, p2 = (_fraction_check_unit(f"p{u}", v) for u, v in enumerate(values[:3]))
    p_cross, q_cross = (
        {uv: _fraction_check_unit(f"{name}{uv}", v) for uv, v in zip(_CROSS_PAIRS, part)}
        for name, part in (("p_cross", values[3:9]), ("q_cross", values[9:]))
    )
    for uv in _CROSS_PAIRS:
        if p_cross[uv] + q_cross[uv] > 1:
            raise ValueError(f"p_cross{uv} + q_cross{uv} exceeds 1")
    return (p0, p1, p2, *p_cross.values(), *q_cross.values())


def _fraction_family_strategy(params):
    entries = {}
    for u in range(3):
        entries[(u, u, next_colour(u), prev_colour(u))] = params.p_same[u]
        entries[(u, u, prev_colour(u), next_colour(u))] = 1 - params.p_same[u]
    for u, v in _CROSS_PAIRS:
        w = 3 - u - v
        p, q = params.p_cross[(u, v)], params.q_cross[(u, v)]
        entries[(u, v, w, u)] = p
        entries[(u, v, v, w)] = q
        entries[(u, v, v, u)] = 1 - p - q
    return StrategyTable.from_dict((3, 3, 3, 3), entries)


def _fraction_noisy_pr(p):
    if not isinstance(p, float):
        p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"noise parameter {p} outside [0, 1]")
    hit, miss = p / 2, (1 - p) / 2
    return StrategyTable.from_function(
        (2, 2, 2, 2), lambda a, b, x, y: hit if (x ^ y) == (a & b) else miss
    )


def _dict_evaluate_wiring(protocol, base):
    """evaluate_wiring as it read: entries summed into a dict, each map read
    at xs * R + r, base rows read when a branch first reaches them."""
    oa, ob, ox, oy = protocol.outer_shape
    _, ib, ix, iy = protocol.inner_shape
    randomness = protocol.randomness
    exact = base._exact
    share, den = Fraction(1, randomness), None
    if exact:
        nums, unit = exact
        share, den = 1, randomness * unit**protocol.calls
    rows = {}
    entries = {}
    for a in range(oa):
        for b in range(ob):
            for r in range(randomness):
                branches = [(a, b, share)]
                for alice_map, bob_map in zip(protocol.alice_inputs, protocol.bob_inputs):
                    grown = []
                    for xs, ys, weight in branches:
                        a_k = alice_map[xs * randomness + r]
                        b_k = bob_map[ys * randomness + r]
                        items = rows.get((a_k, b_k))
                        if items is None:
                            start = (a_k * ib + b_k) * ix * iy
                            items = rows[a_k, b_k] = [
                                (*divmod(i, iy), nums[start + i] if exact else p)
                                for i, p in enumerate(base.cells(a_k, b_k))
                                if p != 0
                            ]
                        for x_k, y_k, p in items:
                            grown.append((xs * ix + x_k, ys * iy + y_k, weight * p))
                    branches = grown
                for xs, ys, weight in branches:
                    x = protocol.alice_output[xs * randomness + r]
                    y = protocol.bob_output[ys * randomness + r]
                    key = ((a * ob + b) * ox + x) * oy + y
                    entries[key] = entries.get(key, 0) + weight
    totals = [entries.get(key, 0) for key in range(oa * ob * ox * oy)]
    return StrategyTable._from_numerators(protocol.outer_shape, totals, den)


def _fraction_entry_text(p):
    text = probability_to_string(p)
    return text + ".0" if isinstance(p, float) and text.isdigit() else text


def _fraction_box_to_json_dict(table):
    records = [
        {"a": a, "b": b, "x": x, "y": y, "p": _fraction_entry_text(p)}
        for a, b in table.inputs()
        for (x, y), p in table.row(a, b).items()
    ]
    return {"alphabets": list(table.shape), "table": records}


def _fraction_parse_probability(value, where):
    if isinstance(value, bool):
        raise BoxFormatError(f"{where}: probability must be a number or string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                return Fraction(text)
            if text.lstrip("+-").isdigit():
                return Fraction(int(text))
            return float(text)
        except (ValueError, ZeroDivisionError):
            raise BoxFormatError(f"{where}: cannot parse probability {value!r}") from None
    raise BoxFormatError(f"{where}: probability must be a number or string")


def _fraction_box_from_json_dict(data):
    """The reader as it was, from its alphabets on: every field checked in
    turn, every probability parsed by Fraction, the table built by the
    constructor."""
    shape = _read_alphabets(data["alphabets"], "alphabets", BoxFormatError)
    entries = {}
    for i, record in enumerate(data["table"]):
        where = f"table[{i}]"
        if not isinstance(record, dict):
            raise BoxFormatError(f"{where}: record must be an object")
        if set(record) != {"a", "b", "x", "y", "p"}:
            raise BoxFormatError(f"{where}: record must have exactly the keys a, b, x, y, p")
        key, index = [], 0
        for name, size in zip("abxy", shape):
            v = record[name]
            if not _is_int(v):
                raise BoxFormatError(f"{where}: field {name!r} must be an integer")
            if not 0 <= v < size:
                raise BoxFormatError(f"{where}: field {name!r} = {v} outside range({size})")
            key.append(v)
            index = index * size + v
        if index in entries:
            raise BoxFormatError(f"{where}: duplicate entry for (a,b,x,y) = {tuple(key)}")
        entries[index] = _fraction_parse_probability(record["p"], f"{where}: field 'p'")
    covered = {index // (shape[2] * shape[3]) for index in entries}
    for row, (a, b) in enumerate(itertools.product(range(shape[0]), range(shape[1]))):
        if row not in covered:
            raise BoxFormatError(f"row ({a},{b}) sums to 0, not 1")
    probs = [Fraction(0)] * math.prod(shape)
    for index, p in entries.items():
        probs[index] = p
    try:
        return StrategyTable(shape, tuple(probs))
    except ValueError as err:
        raise BoxFormatError(str(err)) from err


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


def _outcome(fn, *args):
    """What a call gives, typed: its result through ``_typed``, or the class
    and message of the ValueError it raises."""
    try:
        result = fn(*args)
    except ValueError as err:
        return type(err), str(err)
    if isinstance(result, StrategyTable):
        _assert_cached_pair(result)
        return result.shape, _typed(result.probs)
    return _typed(result)


_ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

#: Spellings of an exact entry n/d that the reader accepts besides the canonical one.
_SPELLINGS = (
    lambda n, d: f"{2 * n}/{2 * d}",
    lambda n, d: f" {n}/{d} ",
    lambda n, d: f"+{n}/{d}",
    lambda n, d: f"{n}/{d}".translate(_ARABIC_INDIC_DIGITS),
    lambda n, d: f"{n}_0/{d}0",
    lambda n, d: n if d == 1 else f"{n}/{d}",
    lambda n, d: n / d,
)

#: Malformed values of a record field, and of the probability.
_BAD_FIELDS = (True, 1.0, "0", None, -1, 3)
_BAD_PROBABILITIES = (True, None, [1], "1/0", "00/0", "1/-2", "1 /2", "one", "-1/2", "3/2", 2)


def _faults(doc, i):
    """Copies of the document, each with one fault at or near record i."""
    table = doc["table"]
    record = table[i]
    for bad in ([0, 0, 0, 0], "record", {**record, "q": 1}, {"a": 0, "b": 0, "x": 0, "y": 0}):
        yield {**doc, "table": table[:i] + [bad] + table[i + 1 :]}
    for name, bad in itertools.product("abxyp", _BAD_FIELDS + _BAD_PROBABILITIES):
        yield {**doc, "table": table[:i] + [{**record, name: bad}] + table[i + 1 :]}
    yield {**doc, "table": table[:i] + [record] + table[i:]}
    yield {**doc, "table": table[:i] + table[i + 1 :]}


_SHAPES = st.tuples(*[st.integers(1, 3)] * 4)


@settings(max_examples=60, deadline=None)
@given(_SHAPES.flatmap(exact_tables), st.booleans(), st.data())
def test_box_files_match_the_fraction_reader_and_writer(table, exact, data):
    if not exact:
        table = StrategyTable(table.shape, tuple(map(float, table.probs)))
    doc = box_to_json_dict(table)
    assert doc == _fraction_box_to_json_dict(table)
    assert dump_box(table) == json_text(_fraction_box_to_json_dict(table))
    respelled = {**doc, "table": [dict(record) for record in doc["table"]]}
    for record in respelled["table"]:
        if "/" in record["p"] and data.draw(st.booleans()):
            n, d = map(int, record["p"].split("/"))
            record["p"] = data.draw(st.sampled_from(_SPELLINGS))(n, d)
    i = data.draw(st.integers(0, len(doc["table"]) - 1))
    for changed in (doc, respelled, *_faults(respelled, i)):
        assert _outcome(box_from_json_dict, changed) == _outcome(_fraction_box_from_json_dict, changed)


def _parameter(draw):
    """A family parameter: mostly a Fraction in [0, 1]; sometimes one outside
    it, an int, a float or a string."""
    d = draw(st.integers(1, 12))
    kind = draw(st.integers(0, 39))
    if kind < 36:
        return F(draw(st.integers(0, d)), d)
    return [
        F(draw(st.integers(-2, d + 2)), d),
        draw(st.integers(-1, 2)),
        draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -0.5])),
        f"{draw(st.integers(0, d))}/{d}",
    ][kind - 36]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_family_parameters_and_tables_match_the_fraction_code(data):
    values = [_parameter(data.draw) for _ in range(15)]
    if data.draw(st.booleans()):
        # q = (1 - p) k/4 keeps p + q <= 1 wherever p is a Fraction in [0, 1].
        for i in range(3, 9):
            if type(values[i]) is F and 0 <= values[i] <= 1:
                values[i + 6] = (1 - values[i]) * F(data.draw(st.integers(0, 4)), 4)
    params = _outcome(lambda v: WinningFamilyParams.from_vector(v).as_vector(), values)
    assert params == _outcome(_fraction_params, values)
    if params[0] is not ValueError:
        family = WinningFamilyParams.from_vector(values)
        assert _outcome(family_strategy, family) == _outcome(_fraction_family_strategy, family)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_noisy_pr_matches_the_fraction_code(data):
    p = _parameter(data.draw)
    assert _outcome(noisy_pr, p) == _outcome(_fraction_noisy_pr, p)


@st.composite
def wirings(draw, inner):
    """A protocol of 0-2 calls and 1-2 shared values onto a base of shape
    inner, from an outer shape of 1-3 letters, every map a random table."""
    outer = tuple(draw(st.integers(1, 3)) for _ in range(4))
    calls, randomness = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    tables = [
        tuple(draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count)))
        for _, _, count, size in _maps(calls, randomness, outer, inner)
    ]
    return WiringProtocol(
        calls, randomness, outer, inner, tables[:calls], tables[calls:-2], *tables[-2:]
    )


@settings(max_examples=60, deadline=None)
@given(_SHAPES.flatmap(exact_tables), st.data())
def test_evaluate_wiring_matches_the_dict_code(base, data):
    protocol = data.draw(wirings(base.shape))
    for box in (base, StrategyTable(base.shape, tuple(map(float, base.probs)))):
        expected = _outcome(_dict_evaluate_wiring, protocol, box)
        assert _outcome(evaluate_wiring, protocol, box) == expected


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
