"""The integer exact kernels against their references.

Exact tables keep their integer numerators, and the kernels below work on
them: win probability, distance and mixtures, the box file reader and
writer, the family parameters, ``family_strategy``, ``noisy_pr``.  Their
references in ``oracles`` sum and divide the entries as Fractions.  The
kernels must give the same values with the same types and messages, and
tables whose cached pair is the entries over their least common
denominator.  The locality and wiring kernels are checked against their
references in ``test_locality`` and ``test_wiring``.
"""

import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SHAPES,
    assert_cached_pair,
    distributions,
    exact_tables,
    outcome,
    reference_box_from_json_dict,
    reference_box_to_json_dict,
    reference_family_strategy,
    reference_family_vector,
    reference_l1_distance,
    reference_mix,
    reference_noisy_pr,
    reference_win,
    typed,
)
from rgbgame.formats import box_from_json_dict, box_to_json_dict, dump_box, json_text
from rgbgame.strategies import (
    FLOAT_ROW_TOL,
    Game,
    StrategyTable,
    WinningFamilyParams,
    _numerators,
    family_strategy,
    l1_distance,
    mix,
    rgb_predicate,
    rgrb,
    win_probability,
)
from rgbgame.wiring import noisy_pr

F = Fraction


@st.composite
def table_pairs(draw):
    shape = draw(SHAPES)
    return draw(exact_tables(shape)), draw(exact_tables(shape))


def _random_game(draw, shape):
    na, nb, nx, ny = shape
    wins = draw(st.lists(st.booleans(), min_size=na * nb * nx * ny, max_size=na * nb * nx * ny))
    weights = distributions(draw, 1, na * nb)[0]
    if draw(st.booleans()):
        weights = [float(w) for w in weights]
    dist = {(a, b): weights[a * nb + b] for a in range(na) for b in range(nb)}
    if draw(st.booleans()):
        # An omitted pair counts as weight zero.
        dist = {ab: w for ab, w in dist.items() if w != 0}
    return Game(shape, lambda a, b, x, y: wins[((a * nb + b) * nx + x) * ny + y], dist)


def _check_against_the_references(table, other, draw):
    for t in (table, other):
        assert_cached_pair(t)
    game = _random_game(draw, table.shape)
    assert typed([win_probability(table, game)]) == typed([reference_win(table, game)])
    assert typed([l1_distance(table, other)]) == typed([reference_l1_distance(table, other)])
    lam = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), 0.25]))
    mixed = mix([table, other], [lam, 1 - lam])
    assert typed(mixed.probs) == typed(reference_mix([table, other], [lam, 1 - lam]))
    assert_cached_pair(mixed)


@settings(max_examples=70, deadline=None)
@given(table_pairs(), st.data())
def test_exact_kernels_match_the_fraction_code(pair, data):
    _check_against_the_references(*pair, data.draw)


@settings(max_examples=20, deadline=None)
@given(table_pairs(), st.data())
def test_float_tables_take_the_float_path(pair, data):
    # The float twins of exact tables give the bits of the references' float path.
    table, other = (StrategyTable(t.shape, tuple(map(float, t.probs))) for t in pair)
    _check_against_the_references(table, other, data.draw)


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


@settings(max_examples=60, deadline=None)
@given(SHAPES.flatmap(exact_tables), st.booleans(), st.data())
def test_box_files_match_the_fraction_reader_and_writer(table, exact, data):
    if not exact:
        table = StrategyTable(table.shape, tuple(map(float, table.probs)))
    doc = box_to_json_dict(table)
    assert doc == reference_box_to_json_dict(table)
    assert dump_box(table) == json_text(reference_box_to_json_dict(table))
    respelled = {**doc, "table": [dict(record) for record in doc["table"]]}
    for record in respelled["table"]:
        if "/" in record["p"] and data.draw(st.booleans()):
            n, d = map(int, record["p"].split("/"))
            record["p"] = data.draw(st.sampled_from(_SPELLINGS))(n, d)
    i = data.draw(st.integers(0, len(doc["table"]) - 1))
    for changed in (doc, respelled, *_faults(respelled, i)):
        assert outcome(box_from_json_dict, changed) == outcome(reference_box_from_json_dict, changed)


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
    params = outcome(lambda v: WinningFamilyParams.from_vector(v).as_vector(), values)
    assert params == outcome(reference_family_vector, values)
    if params[0] is not ValueError:
        family = WinningFamilyParams.from_vector(values)
        assert outcome(family_strategy, family) == outcome(reference_family_strategy, family)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_noisy_pr_matches_the_fraction_code(data):
    p = _parameter(data.draw)
    assert outcome(noisy_pr, p) == outcome(reference_noisy_pr, p)


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
    assert typed(table.probs) == typed((F(1, 2), F(1, 2)))
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
    for bad in (None, "1"):
        message = f"weight of input pair (0, 0) is {bad!r}, not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Game((1, 1, 1, 1), rgb_predicate, {(0, 0): bad})
        with pytest.raises(ValueError, match=re.escape(message)):
            Game((1, 2, 1, 1), predicate, {(0, 1): 0.5, (0, 0): bad})


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


@pytest.mark.parametrize("predicate", [None, 1, "rgb", (0, 1)])
def test_game_refuses_a_predicate_that_is_not_callable(predicate):
    # Before, the game was built and local_bound failed on its first call.
    message = f"predicate is {predicate!r}, not callable"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Game((2, 2, 2, 2), predicate, {(0, 0): 1})


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
