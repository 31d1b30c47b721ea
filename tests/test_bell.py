"""The Bell functional, the eigensolver, and the optimality certificates."""

import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    numpy_sym_eigenvalues,
    random_local_mixture,
    reference_alternating_ascent,
    reference_bell_maximum,
    reference_correlations,
    reference_lemma1_win,
    reference_reduce_to_binary,
    typed,
)
from rgbgame import bell
from rgbgame.bell import (
    GRAM_EXACT,
    MULTIPLIERS_EXACT,
    W_EXACT,
    CertificationError,
    VectorStrategy,
    alternating_ascent,
    bell_quantity,
    certify_quantum_bound,
    cyclic_rule,
    deterministic_bell_maximum,
    is_positive_semidefinite,
    lemma1_win,
    sym_eigenvalues,
    trine_table,
    verify_dual,
    verify_primal,
    win_from_correlations,
)
from rgbgame.locality import is_no_signalling
from rgbgame.quantum import (
    QubitStrategy,
    correlations_from_table,
    projector_from_angle,
    quantum_strategy_table,
    reduce_to_binary,
    singlet,
    trine_strategy,
)
from rgbgame.strategies import (
    FLOAT_ROW_TOL,
    StrategyTable,
    mix,
    rgb_game,
    rgrb,
    win_probability,
)

F = Fraction


# ---------------------------------------------------------------------------
# eigensolver, checked against an independent implementation first


_ENTRIES = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_matrices(draw):
    upper = draw(st.lists(_ENTRIES, min_size=21, max_size=21))
    m = np.zeros((6, 6))
    m[np.triu_indices(6)] = upper
    return m + np.triu(m, 1).T


@st.composite
def gram_matrices(draw):
    dim = draw(st.integers(1, 6))
    rows = np.array(draw(st.lists(
        st.lists(_ENTRIES, min_size=dim, max_size=dim), min_size=6, max_size=6
    )))
    return rows @ rows.T


@settings(max_examples=200, deadline=None)
@given(st.one_of(symmetric_matrices(), gram_matrices()))
def test_jacobi_matches_the_numpy_oracle_bit_for_bit(matrix):
    try:
        expected = numpy_sym_eigenvalues(matrix)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            sym_eigenvalues(matrix)
        return
    assert sym_eigenvalues(matrix) == expected


def test_jacobi_matches_the_numpy_oracle_on_the_certificate():
    w = np.array(W_EXACT, dtype=float)
    slack = -0.5 * w + np.array(MULTIPLIERS_EXACT, dtype=float)
    for matrix in (GRAM_EXACT, slack, -0.5 * w):
        assert sym_eigenvalues(matrix) == numpy_sym_eigenvalues(matrix)
    report = certify_quantum_bound()
    assert report.primal_eigenvalues == numpy_sym_eigenvalues(GRAM_EXACT)
    assert report.dual_slack_eigenvalues == numpy_sym_eigenvalues(slack)


def test_jacobi_against_numpy():
    rng = np.random.default_rng(83)
    for n in (2, 3, 4, 6, 7, 8):
        for _ in range(8):
            m = rng.standard_normal((n, n))
            m = m + m.T
            mine = np.array(sym_eigenvalues(m))
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            np.testing.assert_allclose(mine, ref, atol=1e-8)


def test_jacobi_trace_identities():
    rng = np.random.default_rng(89)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        eigs = sym_eigenvalues(m)
        assert sorted(eigs, reverse=True) == list(eigs)
        assert abs(sum(eigs) - np.trace(m)) < 1e-8
        assert abs(sum(e * e for e in eigs) - (m * m).sum()) < 1e-8


def test_jacobi_input_validation():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))
    assert sym_eigenvalues(np.array([[4.0]])) == (4.0,)
    assert sym_eigenvalues(np.diag([1.0, 3.0, 2.0])) == (3.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# the functional on known correlation matrices


def test_bell_quantity_on_named_boxes():
    ns_corr = correlations_from_table(reduce_to_binary(rgrb()))
    assert bell_quantity(ns_corr) == 12
    assert win_from_correlations(ns_corr) == 1

    trine_corr = correlations_from_table(
        reduce_to_binary(
            quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
        )
    )
    assert abs(bell_quantity(trine_corr) - 9) < 1e-9
    assert abs(win_from_correlations(trine_corr) - F(11, 12)) < 1e-12


def test_deterministic_sweep_reaches_eight():
    value, (f, g) = deterministic_bell_maximum()
    assert (value, (f, g)) == reference_bell_maximum() == (8, ((0, 0, 1), (1, 1, 0)))
    assert type(value) is int
    corr = [[1 if f[a] == g[b] else -1 for b in range(3)] for a in range(3)]
    assert bell_quantity(corr) == 8


def test_linear_relation_between_r_and_win():
    """R = 36 p_win - 24 whenever the signed sum is nonnegative."""
    cases = [correlations_from_table(reduce_to_binary(rgrb()))]
    _, (f, g) = deterministic_bell_maximum()
    cases.append([[1 if f[a] == g[b] else -1 for b in range(3)] for a in range(3)])
    for corr in cases:
        assert bell_quantity(corr) == 36 * win_from_correlations(corr) - 24


def test_agreement_form_agrees_on_ns_tables():
    # On no-signalling binary tables the marginal terms cancel, so the
    # agreement-only form gives the true winning probability exactly.
    rng = random.Random(97)
    game = rgb_game()
    for _ in range(25):
        binary = random_local_mixture(rng, (3, 3, 2, 2), parts=5, den=16)
        colour = StrategyTable.from_function(
            (3, 3, 3, 3),
            lambda a, b, x, y: (
                binary.prob(a, b, 0 if x == (a - 1) % 3 else 1, 0 if y == (b - 1) % 3 else 1)
                if x != a and y != b
                else 0
            ),
        )
        expected = win_probability(colour, game)
        assert lemma1_win(binary) == reference_lemma1_win(binary) == expected
        assert win_from_correlations(correlations_from_table(binary)) == expected


def test_lemma1_win_shape_check():
    with pytest.raises(ValueError):
        lemma1_win(rgrb())


def test_lemma1_win_refuses_a_signalling_table():
    # A deterministic binary table whose correlations give 13/18, while the
    # colour table it relabels wins 7/9: its marginal terms do not cancel.
    answers = {
        (0, 0): (0, 0), (0, 1): (1, 1), (0, 2): (0, 0),
        (1, 0): (1, 1), (1, 1): (0, 0), (1, 2): (1, 1),
        (2, 0): (1, 0), (2, 1): (0, 0), (2, 2): (1, 0),
    }
    binary = StrategyTable.from_function(
        (3, 3, 2, 2), lambda a, b, x, y: 1 if (x, y) == answers[a, b] else 0
    )
    colour = StrategyTable.from_function(
        (3, 3, 3, 3),
        lambda a, b, x, y: 1 if (x, y) == tuple(map(cyclic_rule, (a, b), answers[a, b])) else 0,
    )
    assert reduce_to_binary(colour) == binary
    assert win_probability(colour, rgb_game()) == F(7, 9)
    assert win_from_correlations(correlations_from_table(binary)) == F(13, 18)
    floats = StrategyTable(binary.shape, tuple(map(float, binary.probs)))
    for table in (binary, floats):
        with pytest.raises(ValueError, match=r"^table signals, .*: side=right, b=0, y=0: "):
            lemma1_win(table)
    # Float tables are checked within FLOAT_ROW_TOL: the qubit trine table passes.
    trine = reduce_to_binary(quantum_strategy_table(singlet(), trine_strategy(), trine_strategy()))
    assert abs(lemma1_win(trine) - F(11, 12)) < 1e-12


def test_the_functional_is_defined_once():
    # The payoffs the maximum searches are the cross block of W_EXACT times
    # the correlation sign of the answers, and their maximum is R = 8 at the
    # sweep's witness.
    with mock.patch.object(bell, "_best_response", wraps=bell._best_response) as search:
        value, (f, g) = deterministic_bell_maximum()
    search.assert_called_once()
    gain, ny = search.call_args.args
    assert ny == 2 and len(gain) == 3
    assert all(len(gain[a]) == 2 and len(gain[a][x]) == 6 for a in range(3) for x in (0, 1))
    for a, b, x, y in itertools.product(range(3), range(3), (0, 1), (0, 1)):
        payoff = gain[a][x][2 * b + y]
        assert type(payoff) is int
        assert payoff == W_EXACT[a][3 + b] * (1 if x == y else -1)
    best, (f_sweep, g_sweep) = reference_bell_maximum()
    assert sum(gain[a][f_sweep[a]][2 * b + g_sweep[b]] for a in range(3) for b in range(3)) == 8
    assert (value, (f, g)) == (best, (f_sweep, g_sweep)) == (8, ((0, 0, 1), (1, 1, 0)))


# ---------------------------------------------------------------------------
# the Bell layer reads rows as slices: its per-cell definitions as oracles


def _own_colour_box(rows):
    """Mass 1 on (a, b) in the given rows, on (a-1, b-1) elsewhere."""
    return StrategyTable.from_function(
        (3, 3, 3, 3),
        lambda a, b, x, y: int(
            (x, y) == ((a, b) if (a, b) in rows else (cyclic_rule(a, 0), cyclic_rule(b, 0)))
        ),
    )


_ROWS = st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)))


#: Own-colour mass: none, rounding-sized, just inside, at and just outside
#: the reduction's float tolerance, and far above it.
_OWN_MASS = st.sampled_from(
    [0.0, 1e-14, FLOAT_ROW_TOL * (1 - 1e-6), FLOAT_ROW_TOL, FLOAT_ROW_TOL * (1 + 1e-6), 1e-3]
)


@st.composite
def qubit_tables(draw):
    """Qubit tables at random angles, some rounded as the golden ``quantum``
    cases print them, with own-colour mass in some rows: mixed in from an
    own-colour box, or moved from the row's largest cyclic answer, so that
    the row still sums to 1 within rounding."""
    angles = draw(st.lists(st.floats(-360.0, 360.0), min_size=6, max_size=6))
    if draw(st.booleans()):
        angles = [float(f"{t:.15f}") for t in angles]
    alice, bob = (
        QubitStrategy(tuple(projector_from_angle(t) for t in part))
        for part in (angles[:3], angles[3:])
    )
    table = quantum_strategy_table(singlet(), alice, bob)
    if draw(st.booleans()):
        eps = draw(_OWN_MASS)
        return mix([table, _own_colour_box(draw(_ROWS))], [1 - eps, eps]) if eps else table
    probs = list(table.probs)
    for a, b in draw(_ROWS):
        mass, other = draw(_OWN_MASS), draw(st.sampled_from([c for c in range(3) if c != b]))
        cyclic = [
            27 * a + 9 * b + 3 * cyclic_rule(a, xb) + cyclic_rule(b, yb)
            for xb in (0, 1)
            for yb in (0, 1)
        ]
        probs[max(cyclic, key=probs.__getitem__)] -= mass
        # Alice plays her own colour a; Bob an answer that is not b.
        probs[27 * a + 9 * b + 3 * a + other] += mass
    return StrategyTable((3, 3, 3, 3), tuple(probs))


@st.composite
def colour_tables(draw):
    """Exact tables on the four cyclic answers of each row, some with
    own-colour mass on a few rows, on one or several own-colour cells."""
    bad = draw(_ROWS)
    probs = []
    for a, b in itertools.product(range(3), range(3)):
        cyclic = {3 * cyclic_rule(a, xb) + cyclic_rule(b, yb) for xb in (0, 1) for yb in (0, 1)}
        weights = draw(st.lists(st.integers(0, 4), min_size=9, max_size=9))
        if (a, b) not in bad:
            weights = [w if i in cyclic else 0 for i, w in enumerate(weights)]
        elif draw(st.booleans()):
            # A single own-colour cell, as a strategy's one wrong answer.
            own = draw(st.sampled_from(sorted(set(range(9)) - cyclic)))
            weights = [w if i in cyclic or i == own else 0 for i, w in enumerate(weights)]
        if not any(weights):
            weights[min(cyclic)] = 1
        probs += [F(w, sum(weights)) for w in weights]
    return StrategyTable((3, 3, 3, 3), tuple(probs))


def _reduction(reduce, correlations, table):
    try:
        binary = reduce(table)
    except ValueError as err:
        return str(err)
    return typed(binary.probs), [typed(row) for row in correlations(binary)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(qubit_tables(), colour_tables()))
def test_slice_reads_match_the_per_cell_definitions(table):
    # Bit-identical probs and correlations, or the same first bad row.
    got = _reduction(reduce_to_binary, correlations_from_table, table)
    assert got == _reduction(reference_reduce_to_binary, reference_correlations, table)
    if table.is_exact and not isinstance(got, str):
        binary = reduce_to_binary(table)
        if is_no_signalling(binary)[0]:
            assert lemma1_win(binary) == reference_lemma1_win(binary)
        else:
            with pytest.raises(ValueError, match="^table signals"):
                lemma1_win(binary)


# ---------------------------------------------------------------------------
# certificates


def test_w_matrix_layout():
    w = W_EXACT
    assert isinstance(w, tuple) and [len(row) for row in w] == [6] * 6
    assert all(isinstance(v, F) for row in w for v in row)
    assert all(w[i][j] == 0 == w[3 + i][3 + j] for i in range(3) for j in range(3))
    block = [row[3:] for row in w[:3]]
    assert [block[i][i] for i in range(3)] == [-2, -2, -2]
    assert sum(map(sum, block)) == 0  # -2 diagonal, +1 elsewhere
    assert all(w[i][j] == w[j][i] for i in range(6) for j in range(6))


def test_primal_certificate():
    value, feasible = verify_primal(GRAM_EXACT)
    assert value == 9.0
    assert feasible
    eigs = sym_eigenvalues(GRAM_EXACT)
    np.testing.assert_allclose(eigs, [3, 3, 0, 0, 0, 0], atol=1e-9)


def test_primal_candidate_from_planar_trine_vectors():
    # The optimum is realized in dimension 2: three unit vectors at 120
    # degrees for one party and their negatives for the other.
    angles = [2 * np.pi * i / 3 for i in range(3)]
    xs = np.array([[np.cos(t), np.sin(t)] for t in angles])
    gram = VectorStrategy(xs, -xs).gram()
    np.testing.assert_allclose(gram, np.array(GRAM_EXACT, dtype=float), atol=1e-12)
    value, _ = verify_primal(gram)
    assert abs(value - 9) < 1e-9


def test_dual_certificate():
    value, feasible = verify_dual(MULTIPLIERS_EXACT)
    assert value == 9.0
    assert feasible
    slack = -0.5 * np.array(W_EXACT, dtype=float) + np.array(MULTIPLIERS_EXACT, dtype=float)
    np.testing.assert_allclose(
        sym_eigenvalues(slack), [3, 3, 1.5, 1.5, 0, 0], atol=1e-9
    )


def test_zero_multipliers_are_infeasible():
    value, feasible = verify_dual(np.zeros((6, 6)))
    assert value == 0.0
    assert not feasible
    # The unshifted slack has eigenvalues down to -3/2.
    eigs = sym_eigenvalues(-0.5 * np.array(W_EXACT, dtype=float))
    assert abs(eigs[-1] + 1.5) < 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_checks_reject_non_finite_entries(bad):
    # Unchecked, NaN passes every tolerance test (each comparison is False),
    # and the eigensolver runs 100 sweeps before a misleading ArithmeticError.
    rows = np.vstack([np.eye(3), -np.eye(3)])
    rows[4, 1] = bad
    with pytest.raises(ValueError, match="bob has non-finite entries"):
        VectorStrategy(rows[:3], rows[3:])
    with pytest.raises(ValueError, match="alice has non-finite entries"):
        VectorStrategy(np.full((3, 2), bad), rows[3:, :2])
    matrix = np.array(GRAM_EXACT, dtype=float)
    matrix[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sym_eigenvalues(matrix)
    with pytest.raises(ValueError, match="non-finite"):
        verify_primal(matrix)
    multipliers = np.array(MULTIPLIERS_EXACT, dtype=float)
    multipliers[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        verify_dual(multipliers)


def test_verify_input_validation():
    with pytest.raises(ValueError):
        verify_primal(np.eye(3))
    with pytest.raises(ValueError):
        verify_dual(np.full((6, 6), 0.1))  # not diagonal
    with pytest.raises(ValueError):
        VectorStrategy(np.ones((3, 4)), np.ones((3, 4)))  # rows not unit
    # Anything but a real number is refused, the entry named; inf and NaN
    # keep their message.
    for bad in ("x", "1/2", None, 1j):
        message = f"matrix entry (0, 0) is {bad!r}, not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            is_positive_semidefinite([[bad]])
        for verify, candidate, what in (
            (verify_primal, GRAM_EXACT, "primal"),
            (verify_dual, MULTIPLIERS_EXACT, "dual"),
        ):
            rows = [list(row) for row in candidate]
            rows[2][2] = bad
            message = f"{what} candidate entry (2, 2) is {bad!r}, not a number"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                verify(rows)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            is_positive_semidefinite([[1.0, 0.0], [0.0, bad]])


_E1, _E2 = (1.0, 0.0), (0.0, 1.0)

#: Inputs that are not a stack of equal-length vectors of numbers.
_MALFORMED = [
    np.array(1.0),  # 0-d
    [1.0, 0.0, 0.0],  # one flat vector
    [_E1, (1.0,), _E2],  # ragged
    [(), (), ()],  # no dimension
    [_E1, _E2, ("a", 0.0)],  # not numbers
    [_E1, _E2, (1j, 0.0)],
]


@pytest.mark.parametrize("rows", _MALFORMED + [[_E1, _E2], [_E1] * 4], ids=repr)
def test_vector_strategy_rejects_malformed_input(rows):
    # A 0-d array used to raise IndexError and a plain list AttributeError.
    with pytest.raises(ValueError, match="alice: need 3 vectors of one nonzero dimension"):
        VectorStrategy(rows, [_E1, _E2, _E1])
    with pytest.raises(ValueError, match="bob: need 3 vectors"):
        VectorStrategy([_E1, _E2, _E1], rows)


def test_vector_strategy_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="differ in dimension"):
        VectorStrategy([_E1, _E2, _E1], [(1.0, 0.0, 0.0)] * 3)


@pytest.mark.parametrize("rows", _MALFORMED + [[_E1, _E2] * 2, [_E1] * 7], ids=repr)
def test_gram_input_rejects_malformed_vectors(rows):
    # A Gram matrix is read only off a VectorStrategy, which checks both stacks.
    with pytest.raises(ValueError, match="alice: need 3 vectors of one nonzero dimension"):
        VectorStrategy(rows, rows).gram()


def test_vector_inputs_come_back_as_tuples_of_floats():
    strategy = VectorStrategy(np.eye(3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert strategy.bob == ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert all(type(v) is float for row in strategy.alice for v in row)
    assert strategy.correlations() == ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    gram = strategy.gram()
    assert isinstance(gram, tuple) and gram[0] == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def _rational_unit_vector(rng, dim):
    """The inverse stereographic projection of a random point p of Q^(dim-1):
    (2 p, |p|^2 - 1) / (|p|^2 + 1), a unit vector with rational coordinates."""
    p = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim - 1)]
    s = sum(v * v for v in p)
    return [2 * v / (s + 1) for v in p] + [(s - 1) / (s + 1)]


def test_weak_duality_caps_random_grams():
    rng = random.Random(101)
    for _ in range(30):
        rows = [_rational_unit_vector(rng, 6) for _ in range(6)]
        assert all(sum(v * v for v in row) == 1 for row in rows)
        gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
        value, feasible = verify_primal(gram)
        assert feasible
        assert value <= 9


def test_certification_report():
    report = certify_quantum_bound()
    assert report.primal_value == 9.0
    assert report.dual_value == 9.0
    assert report.gap <= 1e-9
    assert report.bound == 9.0
    assert abs(report.implied_win_bound - F(11, 12)) < 1e-12
    np.testing.assert_allclose(report.primal_eigenvalues, [3, 3, 0, 0, 0, 0], atol=1e-9)
    np.testing.assert_allclose(
        report.dual_slack_eigenvalues, [3, 3, 1.5, 1.5, 0, 0], atol=1e-9
    )
    doc = report.to_json_dict()
    assert set(doc) == {
        "primal_value",
        "dual_value",
        "gap",
        "primal_eigenvalues",
        "dual_slack_eigenvalues",
        "bound",
        "implied_win_bound",
    }


def test_certificate_is_exact():
    assert verify_primal(GRAM_EXACT) == (F(9), True)
    assert verify_dual(MULTIPLIERS_EXACT) == (F(9), True)
    assert certify_quantum_bound().gap == 0
    assert all(isinstance(v, F) for m in (W_EXACT, GRAM_EXACT, MULTIPLIERS_EXACT)
               for row in m for v in row)


def _multipliers(value):
    return [[value if i == j else 0 for j in range(6)] for i in range(6)]


def test_multipliers_a_hair_below_three_halves_are_rejected():
    # The slack's least eigenvalue is -1e-12: inside the float slack of 1e-9,
    # but the exact LDL^T sees the negative pivot.
    lam = _multipliers(F(3, 2) - F(1, 10**12))
    value, feasible = verify_dual(lam)
    assert value == 9 - F(6, 10**12)
    assert not feasible
    slack = -0.5 * np.array(W_EXACT, dtype=float) + np.array(lam, dtype=float)
    assert sym_eigenvalues(slack)[-1] > -1e-9


def test_float_candidates_are_read_at_their_binary_value():
    # 1.5 - 2**-40 is a double: the slack's least eigenvalue, about -1e-12,
    # is a negative pivot of the exact LDL^T, and the value is exact too.
    assert verify_dual(_multipliers(1.5 - 2**-40)) == (9 - F(6, 2**40), False)
    assert verify_primal(np.array(GRAM_EXACT, dtype=float)) == (F(9), True)
    assert verify_dual(np.array(MULTIPLIERS_EXACT, dtype=float)) == (F(9), True)


def test_multipliers_of_149_hundredths_are_rejected():
    assert verify_dual(_multipliers(F(149, 100))) == (F(447, 50), False)


def test_primal_exact_path_demands_a_unit_diagonal():
    gram = [list(row) for row in GRAM_EXACT]
    gram[0][0] = F(1) + F(1, 10**12)  # still positive semidefinite
    value, feasible = verify_primal(gram)
    assert value == 9
    assert not feasible


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=6, max_size=6
        )
    )
)
def test_ldlt_on_singular_integer_grams(rows):
    # B B^T with B of rank < 6 is positive semidefinite and singular, so any
    # negative shift of the diagonal, however small, leaves the cone.
    gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
    assert is_positive_semidefinite(gram)
    shifted = [[g - (F(1, 10**12) if i == j else 0) for j, g in enumerate(row)]
               for i, row in enumerate(gram)]
    assert not is_positive_semidefinite(shifted)


def test_ldlt_input_validation():
    with pytest.raises(ValueError):
        is_positive_semidefinite([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        is_positive_semidefinite([[1, 0, 0], [0, 1, 0]])
    assert is_positive_semidefinite([[0, 0], [0, 0]])
    assert not is_positive_semidefinite([[0, 1], [1, 0]])
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            is_positive_semidefinite([[1, 0], [0, value]])


def test_exact_trine_table():
    table = trine_table()
    assert table.is_exact
    assert win_probability(table, rgb_game()) == F(11, 12)
    simulated = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    assert all(
        abs(exact - float_) <= 1e-15 for exact, float_ in zip(table.probs, simulated.probs)
    )
    corr = correlations_from_table(reduce_to_binary(table))
    assert bell_quantity(corr) == 9
    assert corr == tuple(tuple(F(-1) if a == b else F(1, 2) for b in range(3)) for a in range(3))


def test_certification_error_names_a_nonzero_gap(monkeypatch):
    # 2 I leaves the slack -(1/2) W + 2 I positive semidefinite, so it is a
    # feasible dual point, but of value 12: three above the primal 9.
    two = _multipliers(F(2))
    assert verify_dual(two) == (F(12), True)
    monkeypatch.setattr(bell, "MULTIPLIERS_EXACT", two)
    with pytest.raises(CertificationError, match=r"^primal/dual gap 3 is not zero$"):
        certify_quantum_bound()


# ---------------------------------------------------------------------------
# variational search


def test_ascent_reaches_the_bound():
    result = alternating_ascent(seed=2026, restarts=20)
    assert 9 - 1e-6 <= result.value <= 9 + 1e-9
    diffs = [b - a for a, b in zip(result.sweep_values, result.sweep_values[1:])]
    assert all(d >= -1e-9 for d in diffs)


def test_ascent_is_deterministic():
    first = alternating_ascent(seed=4, restarts=3)
    second = alternating_ascent(seed=4, restarts=3)
    assert first.value == second.value
    assert first.sweep_values == second.sweep_values
    assert first.strategy.alice == second.strategy.alice
    assert first.strategy.bob == second.strategy.bob
    # Equal fields, yet distinct results: both classes compare by identity.
    assert first != second and first.strategy != second.strategy
    assert len({first, second, first.strategy, second.strategy}) == 4


def test_single_restarts_are_monotone():
    for seed in range(5):
        result = alternating_ascent(seed=seed, restarts=1)
        diffs = [
            b - a for a, b in zip(result.sweep_values, result.sweep_values[1:])
        ]
        assert all(d >= -1e-9 for d in diffs)
        assert [len(v) for v in result.strategy.alice] == [6, 6, 6]
        assert [len(v) for v in result.strategy.bob] == [6, 6, 6]


def test_ascent_solution_is_essentially_planar():
    result = alternating_ascent(seed=2026, restarts=20)
    eigs = sym_eigenvalues(result.strategy.gram())
    rank = sum(1 for e in eigs if e > 1e-6)
    assert rank == 2


def test_ascent_correlations_match_objective():
    result = alternating_ascent(seed=12, restarts=5)
    corr = result.strategy.correlations()
    assert abs(bell_quantity(corr) - result.value) < 1e-9


@pytest.mark.parametrize("restarts", [0, -1, True, False, 2.0, "2", None])
def test_ascent_validates_restarts(restarts):
    # Unchecked, True ran one restart and 2.0 failed in range() with TypeError.
    with pytest.raises(ValueError, match="need at least one restart") as refusal:
        alternating_ascent(1, restarts)
    assert str(refusal.value) == f"need at least one restart: an int >= 1, got {restarts!r}"


@pytest.mark.parametrize("seed", [-5, 1.5, True, False, 2.0, "3", None])
def test_ascent_validates_seed(seed):
    # Unchecked, random.Random would seed with abs(seed), so -5 would rerun 5;
    # 1.5 and True seeded streams of their own, and "3" failed on the sign test.
    with pytest.raises(ValueError, match="seed must be nonnegative") as refusal:
        alternating_ascent(seed, 2)
    assert str(refusal.value) == f"seed must be nonnegative: an int >= 0, got {seed!r}"


@pytest.mark.parametrize("seed", [0, 1, 7, 2019, 2026, 10**6])
def test_ascent_reaches_nine_with_a_rank_two_gram(seed):
    result = alternating_ascent(seed)
    assert abs(result.value - 9) <= 1e-9
    values = result.sweep_values
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
    assert sum(1 for e in sym_eigenvalues(result.strategy.gram()) if e > 1e-6) == 2


def _ascent(seed, restarts, dim=6, max_sweeps=10_000, min_gain=1e-12):
    """``alternating_ascent`` with its dimension, sweep cap and gain floor set."""
    with (
        mock.patch.object(bell, "_ASCENT_DIM", dim),
        mock.patch.object(bell, "_ASCENT_MAX_SWEEPS", max_sweeps),
        mock.patch.object(bell, "_ASCENT_MIN_GAIN", min_gain),
    ):
        return alternating_ascent(seed, restarts)


def _assert_same_ascent(result, expected):
    assert result.value == expected.value
    assert result.sweep_values == expected.sweep_values
    assert result.strategy.alice == expected.strategy.alice
    assert result.strategy.bob == expected.strategy.bob


_MAX_SWEEPS = st.sampled_from([0, 1, 2, 10_000])
_MIN_GAINS = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**63), st.integers(1, 40), st.integers(1, 8), _MAX_SWEEPS, _MIN_GAINS)
@example(seed=0, restarts=8, dim=6, max_sweeps=10_000, min_gain=1e-3)
@example(seed=2019, restarts=40, dim=6, max_sweeps=10_000, min_gain=1e-12)
@example(seed=0, restarts=8, dim=1, max_sweeps=10_000, min_gain=1e-12)
@example(seed=5, restarts=3, dim=6, max_sweeps=0, min_gain=1e-12)
@example(seed=5, restarts=3, dim=6, max_sweeps=1, min_gain=1e-12)
@example(seed=5, restarts=3, dim=6, max_sweeps=2, min_gain=1e-12)
def test_ascent_matches_the_norm_based_code_bit_for_bit(seed, restarts, dim, max_sweeps, min_gain):
    # dim=1 makes every Bell row of three equal signs zero, so the
    # degenerate-vector reseed and its draws from each restart's stream are
    # exercised.
    _assert_same_ascent(
        _ascent(seed, restarts, dim, max_sweeps, min_gain),
        reference_alternating_ascent(seed, restarts, dim, max_sweeps, min_gain),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63), st.integers(1, 12), st.integers(1, 8), _MIN_GAINS)
def test_each_restart_runs_as_if_alone(seed, restarts, dim, min_gain):
    alone = [_ascent(seed + k, 1, dim, min_gain=min_gain) for k in range(restarts)]
    first_best = max(alone, key=lambda result: result.value)
    _assert_same_ascent(_ascent(seed, restarts, dim, min_gain=min_gain), first_best)


class _ZeroedDraws(random.Random):
    """A seeded generator whose chosen draws of one vector come out zero.

    Draws are counted in vectors of ``dim`` coordinates; each coordinate of
    a zeroed vector is 2 * 0.5 - 1 = 0.
    """

    def __init__(self, seed, dim, zeroed):
        super().__init__(seed)
        self._dim, self._zeroed, self._drawn = dim, zeroed, 0

    def random(self):
        value = super().random()
        vector = self._drawn // self._dim
        self._drawn += 1
        return 0.5 if vector in self._zeroed else value


@pytest.mark.parametrize("dim", [1, 2, 6])
@pytest.mark.parametrize(
    "zeroed",
    [{0}, {2}, {5}, {1, 2}, {0, 6}, {5, 6, 7}, set(range(6)), {6, 7, 8, 9}, {8, 10, 11}],
)
def test_degenerate_draws_are_reseeded_in_stream_order(monkeypatch, dim, zeroed):
    # Zeroed starting draws exercise the reseed of the starting vectors, and
    # zeroed later draws (with dim=1) that of the reseeds inside a sweep.
    # Each restart's generator zeroes other draws, so a reseed from another
    # restart's stream would show.
    seed = 40
    streams = {seed + k: zeroed if k % 2 == 0 else {v + 1 for v in zeroed} for k in range(4)}
    generators = []

    def generator(s):
        generators.append(_ZeroedDraws(s, dim, streams[s]))
        return generators[-1]

    monkeypatch.setattr(random, "Random", generator)
    result = _ascent(seed, 4, dim)
    assert len(generators) == 4
    for g in generators:
        # A zeroed start vector is replaced by a draw after the first six.
        assert g._drawn > 6 * dim or min(g._zeroed) >= 6
    _assert_same_ascent(result, reference_alternating_ascent(seed, 4, dim))


@pytest.mark.parametrize("seed", [*range(10), 2019])
def test_default_ascent_matches_the_norm_based_code_bit_for_bit(seed):
    _assert_same_ascent(alternating_ascent(seed), reference_alternating_ascent(seed))
