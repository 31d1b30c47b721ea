"""Exact tables, the winning family, and the bounds against brute force."""

import copy
import itertools
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_cached_pair,
    brute_force_best_response,
    brute_force_local_bound,
    pair_value,
    reference_mix,
    reference_row_check,
    reference_win,
    sweep_local_bound,
    typed,
)
from rgbgame.bell import alternating_ascent, certify_quantum_bound
from rgbgame.locality import (
    Direction,
    build_ns_constraints,
    decompose_one_way,
    is_no_signalling,
    pr_box,
    r_sig_box,
)
from rgbgame.strategies import (
    Game,
    StrategyTable,
    WinningFamilyParams,
    _best_response,
    chsh_game,
    deterministic_strategy,
    enumerate_winning_deterministic_boxes,
    family_strategy,
    l1_distance,
    local_bound,
    mix,
    parameter_names,
    rgb0,
    rgb_game,
    rgb_predicate,
    rgrb,
    win_probability,
)
from rgbgame.wiring import WiringProtocol, evaluate_wiring

F = Fraction


def winning_pairs(a, b):
    """Oracle: scan all nine output pairs against the written-out predicate."""
    return {
        (x, y)
        for x in range(3)
        for y in range(3)
        if a != x and x != y and y != b
    }


def random_family_params(rng):
    same = [F(rng.randint(0, 16), 16) for _ in range(3)]
    ps, qs = [], []
    for _ in range(6):
        k = rng.randint(0, 16)
        ps.append(F(k, 16))
        qs.append(F(rng.randint(0, 16 - k), 16))
    return WinningFamilyParams.from_vector(same + ps + qs)


# ---------------------------------------------------------------------------
# oracles for the derived counts and bounds


def test_winning_box_count_against_row_census():
    # Independent census: a deterministic box wins everywhere iff each row
    # picks one of that row's winning pairs, so the count is the product.
    count = 1
    for a in range(3):
        for b in range(3):
            count *= len(winning_pairs(a, b))
    assert count == 5832
    assert enumerate_winning_deterministic_boxes(rgb_game()) == count


def test_winning_box_count_chsh():
    count = 1
    for a in range(2):
        for b in range(2):
            count *= sum(
                1 for x in range(2) for y in range(2) if (x ^ y) == (a & b)
            )
    assert count == 16
    assert enumerate_winning_deterministic_boxes(chsh_game()) == count


def test_local_bound_against_exhaustive_sweep():
    best = F(0)
    for f in itertools.product(range(3), repeat=3):
        for g in itertools.product(range(3), repeat=3):
            wins = sum(
                1
                for a in range(3)
                for b in range(3)
                if (f[a], g[b]) in winning_pairs(a, b)
            )
            best = max(best, F(wins, 9))
    assert best == F(8, 9)

    value, f, g = local_bound(rgb_game())
    assert value == best
    assert win_probability(deterministic_strategy(f, g), rgb_game()) == value


def test_local_witness_structure():
    """Any optimal pair avoids own colours and collides exactly once."""
    _, f, g = local_bound(rgb_game())
    assert all(f[a] != a for a in range(3))
    assert all(g[b] != b for b in range(3))
    collisions = sum(1 for a in range(3) for b in range(3) if f[a] == g[b])
    assert collisions == 1


def test_local_bound_chsh():
    value, f, g = local_bound(chsh_game())
    assert value == F(3, 4)


def test_enumeration_guard_trips():
    big = Game(
        (10, 10, 8, 8),
        lambda a, b, x, y: True,
        {(a, b): F(1, 100) for a in range(10) for b in range(10)},
    )
    # The count is a closed-form product, so only the sweep is guarded.
    assert enumerate_winning_deterministic_boxes(big) == 64**100
    with pytest.raises(ValueError):
        local_bound(big)


# ---------------------------------------------------------------------------
# best response against the brute-force oracle


def _lookup_game(shape, wins, weights):
    """A game whose predicate reads the row-major tuple `wins`."""
    na, nb, nx, ny = shape

    def predicate(a, b, x, y):
        return wins[((a * nb + b) * nx + x) * ny + y]

    total = sum(weights.values())
    return Game(shape, predicate, {ab: w / total for ab, w in weights.items()})


@st.composite
def small_games(draw):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    na, nb, nx, ny = shape
    cells = math.prod(shape)
    wins = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    weight = st.builds(F, st.integers(0, 6), st.integers(1, 7))
    pairs = list(itertools.product(range(na), range(nb)))
    # Each pair is left out of input_dist, weighted zero, or weighted.
    weights = {ab: w for ab in pairs if (w := draw(st.none() | weight)) is not None}
    # One pair gets positive weight, so the distribution can be normalised.
    keep = draw(st.sampled_from(pairs))
    weights[keep] = weights.get(keep, 0) + draw(weight.filter(bool))
    return _lookup_game(shape, tuple(wins), weights)


@settings(max_examples=300, deadline=None)
@given(small_games())
def test_best_response_equals_brute_force(game):
    expected = brute_force_local_bound(game)
    got = local_bound(game)
    assert got == expected
    assert type(got[0]) is type(expected[0])


@st.composite
def signed_payoff_tables(draw):
    na, nb, nx, ny = (draw(st.integers(1, 3)) for _ in range(4))
    entries = draw(st.sampled_from([st.integers(-9, -1), st.just(0), st.integers(-9, 9)]))
    row = st.lists(entries, min_size=nb * ny, max_size=nb * ny)
    return [[draw(row) for _ in range(nx)] for _ in range(na)], ny


@settings(max_examples=300, deadline=None)
@given(signed_payoff_tables())
def test_signed_best_response_equals_brute_force(table):
    # All negative, all zero and mixed payoffs: the first leaf is kept
    # whatever its sign.
    gain, ny = table
    got = _best_response(gain, ny)
    assert got == brute_force_best_response(gain, ny)
    assert type(got[0]) is int


def test_local_bound_rectangular_game_against_oracle():
    rng = random.Random(31)
    shape = (2, 4, 3, 2)
    wins = tuple(rng.random() < 0.4 for _ in range(math.prod(shape)))
    weights = {(a, b): F(rng.randint(1, 5)) for a in range(2) for b in range(4)}
    game = _lookup_game(shape, wins, weights)
    assert local_bound(game) == brute_force_local_bound(game)


def test_local_bound_five_letter_game():
    # 5^10 function pairs, too many to sweep; best response scores
    # 5^5 x 5 x 5 cells.
    rng = random.Random(55)
    shape = (5, 5, 5, 5)
    wins = tuple(rng.random() < 0.5 for _ in range(5**4))
    game = _lookup_game(shape, wins, {(a, b): F(1) for a in range(5) for b in range(5)})
    value, f, g = local_bound(game)
    assert isinstance(value, F)
    assert win_probability(deterministic_strategy(f, g, shape), game) == value
    # No change of a single answer wins more.
    for k in range(5):
        for z in range(5):
            assert pair_value(game, f[:k] + (z,) + f[k + 1 :], g) <= value
            assert pair_value(game, f, g[:k] + (z,) + g[k + 1 :]) <= value


def test_local_bound_many_bob_inputs():
    # CHSH with Bob's input read mod 2: 2^40 Bob functions, 2^2 x 40 x 2 cells.
    shape = (2, 40, 2, 2)
    game = Game(
        shape,
        lambda a, b, x, y: (x ^ y) == (a & (b % 2)),
        {(a, b): F(1, 80) for a in range(2) for b in range(40)},
    )
    assert local_bound(game)[0] == F(3, 4)


def test_local_bound_float_weights():
    exact = chsh_game()
    floats = Game(exact.shape, exact.predicate, {ab: 0.25 for ab in exact.input_dist})
    value, f, g = local_bound(floats)
    assert isinstance(value, float) and value == 0.75
    assert (f, g) == local_bound(exact)[1:] == brute_force_local_bound(floats)[1:]


# ---------------------------------------------------------------------------
# the pruned search against the unpruned sweep


@st.composite
def sweep_games(draw):
    """Games of 1-4 letters per alphabet: lookup, always-true or always-false
    predicates; each pair weighted, weighted zero or left out; exact or
    float weights (floats over a power of two, so that they sum to 1)."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(4))
    na, nb, nx, ny = shape
    kind = draw(st.sampled_from(["lookup", "true", "false"]))
    if kind == "lookup":
        cells = math.prod(shape)
        wins = tuple(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))

        def predicate(a, b, x, y):
            return wins[((a * nb + b) * nx + x) * ny + y]
    else:
        verdict = kind == "true"

        def predicate(a, b, x, y):
            return verdict
    pairs = list(itertools.product(range(na), range(nb)))
    counts = {ab: n for ab in pairs if (n := draw(st.none() | st.integers(0, 6))) is not None}
    keep = draw(st.sampled_from(pairs))
    counts[keep] = counts.get(keep, 0) + draw(st.integers(1, 6))
    total = sum(counts.values())
    if draw(st.booleans()):
        dist = {ab: F(n, total) for ab, n in counts.items()}
    else:
        # Counts rounded down to 64ths and the remainder on `keep`: dyadic
        # floats, so the weights sum to exactly 1.
        den = 64
        dist = {ab: n * den // total / den for ab, n in counts.items()}
        dist[keep] += 1 - sum(dist.values())
    return Game(shape, predicate, dist)


@settings(max_examples=300, deadline=None)
@given(sweep_games())
def test_local_bound_equals_the_unpruned_sweep(game):
    expected = sweep_local_bound(game)
    got = local_bound(game)
    assert got == expected
    assert type(got[0]) is type(expected[0])


def test_local_bound_deep_alphabet():
    # 3000 Alice inputs of one answer each: the search is 3000 levels deep.
    shape = (3000, 2, 1, 2)
    game = Game(
        shape,
        lambda a, b, x, y: y == (a + b) % 2,
        {(a, b): F(1, 6000) for a in range(3000) for b in range(2)},
    )
    assert local_bound(game) == sweep_local_bound(game) == (F(1, 2), (0,) * 3000, (0, 0))


@st.composite
def answer_functions(draw):
    """A shape of 1-4 letters per alphabet and answers that may leave it."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(4))
    na, nb, nx, ny = shape
    f_a = tuple(draw(st.lists(st.integers(-1, nx), min_size=na, max_size=na)))
    f_b = tuple(draw(st.lists(st.integers(-1, ny), min_size=nb, max_size=nb)))
    return shape, f_a, f_b


@settings(max_examples=300, deadline=None)
@given(answer_functions())
def test_deterministic_strategy_matches_the_per_cell_build(data):
    shape, f_a, f_b = data
    try:
        expected = StrategyTable.from_function(
            shape, lambda a, b, x, y: 1 if (x == f_a[a] and y == f_b[b]) else 0
        )
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            deterministic_strategy(f_a, f_b, shape)
        return
    got = deterministic_strategy(f_a, f_b, shape)
    assert got == expected
    assert all(type(p) is F for p in got.probs)


# ---------------------------------------------------------------------------
# table plumbing


class TestStrategyTable:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StrategyTable.from_function(
                (1, 1, 2, 2), lambda a, b, x, y: F(1, 3)
            )

    def test_entries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            StrategyTable.from_function(
                (1, 1, 1, 2), lambda a, b, x, y: 2 if x == y == 0 else -1
            )

    def test_float_rows_get_slack(self):
        t = StrategyTable.from_function(
            (1, 1, 2, 1), lambda a, b, x, y: 0.5 + (1e-10 if x else -1e-10)
        )
        assert not t.is_exact
        with pytest.raises(ValueError):
            StrategyTable.from_function(
                (1, 1, 2, 1), lambda a, b, x, y: 0.5 + (1e-6 if x else 0.0)
            )

    def test_from_dict_omits_zeros(self):
        entries = {(0, 0, 1, 2): F(1, 2), (0, 0, 2, 1): F(1, 2)}
        t = StrategyTable.from_dict((1, 1, 3, 3), entries)
        assert t.prob(0, 0, 0, 0) == 0
        assert t.row(0, 0) == {(1, 2): F(1, 2), (2, 1): F(1, 2)}
        assert t.support(0, 0) == {(1, 2), (2, 1)}

    def test_prob_bounds_checks(self):
        with pytest.raises(ValueError, match="outside"):
            rgrb().prob(3, 0, 0, 0)


def _exact_row(draw, n):
    """n Fractions of denominator k summing to 1, zeros included; k is small
    or up to 10^6."""
    k = draw(st.integers(1, 6) | st.integers(1, 10**6))
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=n - 1, max_size=n - 1)))
    return [F(hi - lo, k) for lo, hi in zip([0] + cuts, cuts + [k])]


@st.composite
def table_rows(draw, n, kind):
    """One row of n entries: valid, or broken the way a caller might break it."""
    row = _exact_row(draw, n)
    if kind == "int":
        row = [0] * n
        row[draw(st.integers(0, n - 1))] = 1
    elif kind == "float":
        row = [float(p) for p in row]
    elif kind == "mixed":
        row = [float(p) if draw(st.booleans()) else p for p in row]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    faults = ["none"] * 4 + ["off", "over", "int", "zeros", "nan", "inf", "slack", "edge"]
    fault = draw(st.sampled_from(faults))
    if fault == "off":
        row[i] += draw(st.sampled_from([1, -1])) * F(1, draw(st.integers(1, 6)))
    elif fault == "over" and i != j:
        # Sums to 1 with every entry out of range.
        row = [0] * n
        row[i], row[j] = F(3, 2), F(-1, 2)
    elif fault == "int":
        row = [0] * n
        row[i] = draw(st.sampled_from([1, 2, -1]))
        if i != j:
            row[j] = 1 - row[i]
    elif fault == "zeros":
        # A float zero may be a negative zero.
        row = [-0.0 if isinstance(p, float) and draw(st.booleans()) else p * 0 for p in row]
    elif fault == "nan":
        row[i] = math.nan
    elif fault == "inf":
        row[i] = draw(st.sampled_from([math.inf, -math.inf]))
    elif fault == "slack":
        # Within and just outside FLOAT_ROW_TOL of a sum of 1.
        row[i] = float(row[i]) + draw(st.sampled_from([1e-10, -1e-10, 2e-9, -2e-9, 1e-6, -1e-13]))
    elif fault == "edge":
        # Just outside the float bounds on an entry, -1e-12 and 1 + 1e-9.
        row[i] = draw(st.sampled_from([-1e-11, 1 + 2e-9]))
    return row


@st.composite
def table_data(draw, shape=None):
    shape = shape or tuple(draw(st.integers(1, 3)) for _ in range(4))
    kinds = st.sampled_from(["exact", "int", "float", "mixed"])
    table_kind = draw(kinds)
    probs = []
    for _ in range(shape[0] * shape[1]):
        kind = draw(kinds) if table_kind == "mixed" else table_kind
        probs += draw(table_rows(shape[2] * shape[3], kind))
    return shape, tuple(probs)


@settings(max_examples=500, deadline=None)
@given(table_data())
def test_row_check_matches_the_reference(data):
    _check_the_row_check(*data)


@settings(max_examples=400, deadline=None)
@given(table_data(shape=(3, 3, 3, 3)))
def test_row_check_matches_the_reference_on_full_size_tables(data):
    # Nine rows of nine, the shape of the colour game, each maybe broken.
    _check_the_row_check(*data)


def _check_the_row_check(shape, probs):
    try:
        table = StrategyTable(shape, probs)
    except ValueError as err:
        assert str(err) == reference_row_check(shape, probs)
        return
    assert reference_row_check(shape, probs) is None
    assert typed(table.probs) == typed(probs)
    assert table.is_exact == (not any(isinstance(p, float) for p in probs))


def test_row_check_reports_the_first_bad_row():
    rows = [F(1), F(0), F(1, 2), F(1, 3), F(3, 2), F(-1, 2), F(1, 2), F(1, 2)]
    with pytest.raises(ValueError, match=re.escape("row (0,1) sums to 5/6, not 1")):
        StrategyTable((2, 2, 2, 1), tuple(rows))
    with pytest.raises(ValueError, match=re.escape("row (1,0) has an entry outside [0,1]")):
        StrategyTable((2, 2, 2, 1), tuple(rows[:2] + rows[:2] + rows[4:]))
    # An entry with no denominator is not a number; the entry is named.
    for entry in ("1", None, 1j, Decimal("1")):
        with pytest.raises(ValueError, match=re.escape(f"entry (0, 0, 0, 0) is {entry!r}, not")):
            StrategyTable((1, 1, 1, 1), (entry,))
        with pytest.raises(ValueError, match=re.escape(f"entry (1, 0, 1, 0) is {entry!r}, not")):
            StrategyTable((2, 2, 2, 1), (1, 0, 1, 0, 1, entry, 1, 0))
    # Beside a float entry the table takes the float branch, which names it
    # too; a Decimal passes math.isfinite there and is refused by the row sum.
    for entry in ("0.5", None, 0.5j, Decimal("0.5")):
        message = f"entry (0, 0, 0, 1) is {entry!r}, not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StrategyTable((1, 1, 1, 2), (0.5, entry))
        with pytest.raises(ValueError, match=re.escape(f"entry (1, 0, 0, 0) is {entry!r}, not")):
            StrategyTable((2, 1, 1, 2), (0.5, 0.5, entry, 0.5))


@pytest.mark.parametrize(
    "a, b, message",
    [(-1, 0, "a=-1"), (3, 0, "a=3"), (0, -1, "b=-1"), (0, 3, "b=3"), (-1, -1, "a=-1")],
)
def test_accessors_reject_symbols_outside_the_alphabets(a, b, message):
    table = rgrb()
    expected = re.escape(f"symbol {message} outside range(0, 3)")
    for read in (lambda: table.prob(a, b, 0, 0), lambda: table.row(a, b), lambda: table.support(a, b)):
        with pytest.raises(ValueError, match=expected):
            read()
    for x, y, name in ((-1, 0, "x=-1"), (0, 3, "y=3")):
        with pytest.raises(ValueError, match=re.escape(f"symbol {name} outside range(0, 3)")):
            table.prob(0, 0, x, y)


def test_accessors_reject_symbols_that_are_not_integers():
    # 1.0 and Fraction(1) pass a range test; the read names them instead of
    # failing on the tuple index.
    table = rgrb()
    cases = [
        (lambda: table.prob(0, 0, 1.0, 0), "x=1.0"),
        (lambda: table.prob(F(1), 0, 0, 0), "a=Fraction(1, 1)"),
        (lambda: table.cells(0, 1.0), "b=1.0"),
        (lambda: table.cells(2.0, 0), "a=2.0"),
        (lambda: table.row(1, 0.0), "b=0.0"),
        (lambda: table.prob(True, 0, 0, 1), "a=True"),
        (lambda: table.cells(0, False), "b=False"),
    ]
    for read, message in cases:
        expected = re.escape(f"symbol {message} outside range(0, 3)")
        with pytest.raises(ValueError, match=expected):
            read()
    # An answer that is not an int leaves its row zero, as one outside the
    # alphabet does.
    for f_a in ((1.0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError, match=re.escape("row (0,0) sums to 0, not 1")):
            deterministic_strategy(f_a, (0, 0, 0))


def test_from_function_makes_every_exact_entry_a_fraction():
    t = StrategyTable.from_function((2, 1, 2, 1), lambda a, b, x, y: [1, 0, F(0), True][2 * a + x])
    assert t.probs == (1, 0, 0, 1)
    assert all(type(p) is F for p in t.probs)


def test_row_check_reads_any_rational_entry():
    # The check asks only for numerator and denominator, as numbers.Rational
    # defines them, so numpy integers handed straight to the constructor pass.
    np = pytest.importorskip("numpy")
    assert StrategyTable((1, 1, 1, 2), (np.int64(1), np.int64(0))).is_exact
    with pytest.raises(ValueError, match=re.escape("row (0,0) has an entry outside [0,1]")):
        StrategyTable((1, 1, 1, 2), (np.int64(2), np.int64(-1)))


@st.composite
def mixes(draw):
    """Valid tables of one shape (exact, float or both) and weights summing
    to 1 (exact, float or both)."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    n = shape[2] * shape[3]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["exact", "float", "mixed"]))
        probs = []
        for _ in range(shape[0] * shape[1]):
            row = _exact_row(draw, n)
            if kind != "exact":
                row = [float(p) if kind == "float" or draw(st.booleans()) else p for p in row]
            probs += row
        tables.append(StrategyTable(shape, tuple(probs)))
    part = st.integers(0, 4) | st.integers(0, 10**6)
    parts = draw(st.lists(part, min_size=len(tables), max_size=len(tables)).filter(sum))
    weights = [F(w, sum(parts)) for w in parts]
    weight_kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if weight_kind != "exact":
        weights = [float(w) if weight_kind == "float" or draw(st.booleans()) else w for w in weights]
    return tables, weights


@settings(max_examples=300, deadline=None)
@given(mixes())
def test_mix_matches_the_entry_by_entry_sum(data):
    tables, weights = data
    try:
        expected = typed(StrategyTable(tables[0].shape, reference_mix(tables, weights)).probs)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            mix(tables, weights)
        return
    mixed = mix(tables, weights)
    assert typed(mixed.probs) == expected
    assert_cached_pair(mixed)


def test_float_weight_mix_stays_float():
    tables = [rgrb(), r_sig_box()]
    mixed = mix(tables, [0.5, 0.5])
    assert all(type(p) is float for p in mixed.probs)
    assert typed(mixed.probs) == typed(reference_mix(tables, [0.5, 0.5]))
    exact = mix(tables, [F(1, 2), F(1, 2)])
    assert all(type(p) is F for p in exact.probs)
    assert exact.probs == reference_mix(tables, [F(1, 2), F(1, 2)])


def _losing_float_table():
    # Every row on a losing pair: x = a is never a winning answer.
    return StrategyTable.from_function(
        (3, 3, 3, 3), lambda a, b, x, y: 1.0 if (x, y) == (a, a) else 0.0
    )


def _win_cases():
    from rgbgame import locality, quantum, wiring

    colour_boxes = [
        rgb0(), rgrb(), wiring.parity_flip_box(), locality.id_box(), locality.sig_box(),
        locality.r_sig_box(), locality.l_sig_box(),
    ]
    rng = random.Random(7)
    qubit = [
        quantum.quantum_strategy_table(
            quantum.singlet(), quantum.trine_strategy(), quantum.trine_strategy()
        )
    ]
    for _ in range(5):
        alice, bob = (
            quantum.QubitStrategy(
                tuple(quantum.projector_from_angle(rng.uniform(-180, 180)) for _ in range(3))
            )
            for _ in range(2)
        )
        qubit.append(quantum.quantum_strategy_table(quantum.singlet(), alice, bob))
    cases = [(t, rgb_game()) for t in colour_boxes + qubit + [_losing_float_table()]]
    binary = [locality.pr_box(), wiring.noisy_pr(0.9), wiring.noisy_pr(F(3, 4))]
    return cases + [(t, chsh_game()) for t in binary]


def test_win_probability_matches_the_per_cell_oracle():
    for table, game in _win_cases():
        assert typed([win_probability(table, game)]) == typed([reference_win(table, game)])


def test_all_losing_float_table_wins_exact_zero():
    losing = _losing_float_table()
    assert not losing.is_exact
    assert typed([win_probability(losing, rgb_game())]) == typed([F(0)])


def test_rgb0_is_the_expected_deterministic_box():
    t = rgb0()
    assert t.is_exact
    # x = a + 1; y avoids both b and x.
    assert t.row(0, 0) == {(1, 2): 1}
    assert t.row(0, 2) == {(1, 0): 1}
    assert t.row(2, 1) == {(0, 2): 1}
    assert win_probability(t, rgb_game()) == 1
    for a, b in t.inputs():
        assert t.support(a, b) <= winning_pairs(a, b)


def test_rgrb_rows_are_uniform_over_non_reversed_solutions():
    t = rgrb()
    for a in range(3):
        for b in range(3):
            expected = winning_pairs(a, b) - {(b, a)}
            assert t.support(a, b) == expected
            for pair in expected:
                assert t.prob(a, b, *pair) == F(1, 2)
    assert t.row(0, 1) == {(1, 2): F(1, 2), (2, 0): F(1, 2)}
    assert t.row(2, 2) == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert win_probability(t, rgb_game()) == 1


# ---------------------------------------------------------------------------
# the winning family


def test_family_members_win_with_certainty():
    rng = random.Random(2026)
    for _ in range(100):
        t = family_strategy(random_family_params(rng))
        assert win_probability(t, rgb_game()) == 1
        for a, b in t.inputs():
            assert t.support(a, b) <= winning_pairs(a, b)


def test_family_vector_round_trip():
    rng = random.Random(5)
    names = parameter_names()
    assert len(names) == 15
    assert names[:3] == ("p0", "p1", "p2")
    params = random_family_params(rng)
    again = WinningFamilyParams.from_vector(params.as_vector())
    assert again == params


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        WinningFamilyParams.from_vector([F(1, 2)] * 14 + [2])
    vec = [F(1, 2)] * 15
    # p01 + q01 > 1, the second by 1/6 = 1/(2 * 3), the least step over these denominators.
    for p, q in ((F(3, 4), F(1, 2)), (F(1, 2), F(2, 3))):
        vec[3], vec[9] = p, q
        with pytest.raises(ValueError, match=r"^p_cross\(0, 1\) \+ q_cross\(0, 1\) exceeds 1$"):
            WinningFamilyParams.from_vector(vec)
    vec[3], vec[9] = F(1, 3), F(2, 3)  # p01 + q01 = 1 is allowed
    assert WinningFamilyParams.from_vector(vec).as_vector() == tuple(vec)
    # inf and NaN are named as values outside [0, 1].
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"p0 = {value} outside [0, 1]")):
            WinningFamilyParams.from_vector([value] * 15)
        with pytest.raises(ValueError, match=re.escape(f"q_cross(2, 1) = {value} outside [0, 1]")):
            WinningFamilyParams.from_vector([F(1, 2)] * 14 + [value])
    # None and a complex are no numbers; the parameter is named.
    for value in (None, 0.5j):
        with pytest.raises(ValueError, match=re.escape(f"p0 is {value!r}, not a number")):
            WinningFamilyParams.from_vector([value] * 15)
        with pytest.raises(ValueError, match=re.escape(f"q_cross(2, 1) is {value!r}, not a number")):
            WinningFamilyParams.from_vector([F(1, 2)] * 14 + [value])


def test_family_hits_the_named_boxes():
    assert l1_distance(family_strategy(WinningFamilyParams.constant(F(1, 2))), rgrb()) == 0
    values = {name: F(0) for name in parameter_names()}
    for name in ("p0", "p1", "p2", "p10", "p21", "p02", "q01", "q12", "q20"):
        values[name] = F(1)
    params = WinningFamilyParams.from_vector([values[n] for n in parameter_names()])
    assert l1_distance(family_strategy(params), rgb0()) == 0


def test_value_classes_are_immutable_values():
    table, half = rgrb(), WinningFamilyParams.constant(F(1, 2))
    other = WinningFamilyParams.from_vector([F(1, 2)] * 14 + [F(1, 3)])
    game = Game((1, 1, 1, 1), rgb_predicate, {(0, 0): F(1)})
    # The records, which _Frozen.__init__ binds with no constructor of their own.
    records = (
        (is_no_signalling(r_sig_box())[1], "side"),
        (decompose_one_way(pr_box(), Direction.LEFT_TO_RIGHT), "sender"),
        (build_ns_constraints(), "equalities"),
        (certify_quantum_bound(), "gap"),
        (alternating_ascent(1, restarts=1), "strategy"),
    )
    for value, field in ((table, "probs"), (half, "p0"), (game, "predicate"), *records):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
        # AscentResult compares by identity, so its rebuilt twins by their repr.
        same = repr if type(value).__eq__ is object.__eq__ else (lambda v: v)
        assert same(copy.copy(value)) == same(pickle.loads(pickle.dumps(value))) == same(value)
        cls, values = type(value), value._values()
        assert same(cls(*values)) == same(cls(**dict(zip(cls._fields, values)))) == same(value)
        # Missing, unknown and repeated fields are named, as by a signature.
        for args, named, wrong in (
            (values[:-1], {}, cls._fields[-1]),
            (values, {"colour": 0}, "colour"),
            (values, {field: None}, field),
        ):
            with pytest.raises(TypeError, match=re.escape(repr(wrong))):
                cls(*args, **named)
    twin = StrategyTable(list(table.shape), list(table.probs))
    assert table == StrategyTable(table.shape, table.probs) == twin != r_sig_box()
    assert hash(table) == hash(StrategyTable(table.shape, table.probs)) == hash(twin)
    assert repr(StrategyTable((1, 1, 1, 1), (F(1),))) == (
        "StrategyTable(shape=(1, 1, 1, 1), probs=(Fraction(1, 1),))"
    )
    # The cross tables are dicts: they count for equality, not for the hash.
    assert half != other and hash(half) == hash(other) == hash((F(1, 2),) * 3)
    assert game == Game((1, 1, 1, 1), rgb_predicate, {(0, 0): F(1)})
    with pytest.raises(TypeError, match="unhashable"):
        hash(game)


_PAIRS = tuple(itertools.product(range(3), range(3)))


_ONE_CELL = StrategyTable((1, 1, 1, 1), (F(1),))


def _answer_zero(outer, inner):
    """The wiring that calls no box and answers 0 on both sides."""
    return WiringProtocol(0, 1, outer, inner, (), (), lambda a, xs, r: 0, lambda b, ys, r: 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda shape: StrategyTable(shape, rgrb().probs),
        lambda shape: StrategyTable.from_function(shape, rgrb().prob),
        lambda shape: StrategyTable.from_dict(shape, {(a, b, 0, 0): 1 for a, b in _PAIRS}),
        lambda shape: deterministic_strategy((1, 2, 0), (2, 0, 1), shape),
        lambda shape: Game(shape, rgb_predicate, rgb_game().input_dist),
        lambda shape: evaluate_wiring(_answer_zero(shape, (1, 1, 1, 1)), _ONE_CELL),
        lambda shape: evaluate_wiring(_answer_zero((3, 3, 3, 3), shape), rgrb()),
    ],
    ids=[
        "StrategyTable", "from_function", "from_dict", "deterministic_strategy", "Game",
        "WiringProtocol outer", "WiringProtocol inner",
    ],
)
def test_shapes_are_four_positive_ints_held_as_a_tuple(build):
    assert build([3, 3, 3, 3]) == build((3, 3, 3, 3))
    assert build([3, 3, 3, 3]).shape == (3, 3, 3, 3)
    message = r"^alphabet sizes must be four integers, each at least 1, got \("
    bad = ((0, 3, 3, 3), (3.0, 3, 3, 3), (True, 1, 1, 1), (3, 3, 3), (2, 2, 2, 2.0), 5, None, 2.5)
    for shape in bad:
        with pytest.raises(ValueError, match=message):
            build(shape)
    # A module-level predicate: two calls build equal games.
    assert chsh_game() == chsh_game()


# ---------------------------------------------------------------------------
# distance and mixtures


def test_l1_metric_axioms_on_random_members():
    rng = random.Random(17)
    tables = [family_strategy(random_family_params(rng)) for _ in range(8)]
    for t in tables:
        assert l1_distance(t, t) == 0
    for s, t in itertools.combinations(tables, 2):
        d = l1_distance(s, t)
        assert d >= 0
        assert d == l1_distance(t, s)
        if d == 0:
            assert s.probs == t.probs
    for s, t, u in itertools.combinations(tables, 3):
        assert l1_distance(s, u) <= l1_distance(s, t) + l1_distance(t, u)


def test_distance_shape_mismatch():
    with pytest.raises(ValueError):
        l1_distance(rgrb(), StrategyTable.from_function((2, 2, 2, 2), lambda a, b, x, y: F(1, 4)))


def test_mix_is_linear_in_distance():
    rng = random.Random(23)
    for _ in range(10):
        s = family_strategy(random_family_params(rng))
        t = family_strategy(random_family_params(rng))
        lam = F(rng.randint(0, 8), 8)
        m = mix([s, t], [lam, 1 - lam])
        assert win_probability(m, rgb_game()) == 1
        assert l1_distance(m, s) == (1 - lam) * l1_distance(s, t)


def test_mix_weight_validation():
    with pytest.raises(ValueError):
        mix([rgrb(), rgrb()], [F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        mix([], [])
    # NaN fails every comparison, so the weight check must not pass it on.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^weight vector sums to {bad}, not 1$"):
            mix([rgrb(), rgb0()], [bad, 0.5])
    for bad in (None, 0.5j):
        with pytest.raises(ValueError, match=re.escape(f"weight 0 is {bad!r}, not a number")):
            mix([rgrb()], [bad])
        with pytest.raises(ValueError, match=re.escape(f"weight 1 is {bad!r}, not a number")):
            mix([rgrb(), rgb0()], [0.5, bad])


def test_rgb_predicate_matches_oracle():
    for a in range(3):
        for b in range(3):
            for x in range(3):
                for y in range(3):
                    assert rgb_predicate(a, b, x, y) == ((x, y) in winning_pairs(a, b))
