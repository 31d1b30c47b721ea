"""Singlet-state simulation of projective qubit strategies."""

import cmath
import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    complement,
    numpy_born_prob,
    numpy_complement,
    reference_born_prob,
    reference_quantum_table,
)
from rgbgame import quantum
from rgbgame.bell import cyclic_rule
from rgbgame.locality import (
    Direction,
    decompose_one_way,
    id_box,
    is_no_signalling,
    recompose_one_way,
)
from rgbgame.quantum import (
    ALGEBRA_TOL,
    QubitStrategy,
    _born_prob,
    _check_state,
    correlations_from_table,
    joint_prob,
    projector_from_angle,
    quantum_strategy_table,
    reduce_to_binary,
    singlet,
    trine_projectors,
    trine_strategy,
)
from rgbgame.strategies import (
    FLOAT_ROW_TOL,
    rgb_game,
    rgb_predicate,
    rgrb,
    win_probability,
)

from fractions import Fraction

F = Fraction


def test_projector_at_angle_zero_is_spin_up():
    np.testing.assert_allclose(
        projector_from_angle(0.0), np.array([[1, 0], [0, 0]]), atol=1e-15
    )


def test_trine_projector_algebra():
    projs = [np.asarray(p) for p in trine_projectors()]
    for p in projs:
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 1) < 1e-12
    # 120 degree separation means overlap tr(PQ) = cos^2(60) = 1/4.
    for i, j in itertools.combinations(range(3), 2):
        assert abs(np.trace(projs[i] @ projs[j]).real - 0.25) < 1e-12


def test_singlet_anticorrelates_every_direction():
    state = singlet()
    assert abs(np.linalg.norm(state) - 1) < 1e-12
    rng = np.random.default_rng(71)
    for angle in rng.uniform(-180, 180, size=20):
        p = projector_from_angle(float(angle))
        assert joint_prob(state, p, p) < 1e-12


def test_joint_probabilities_for_trine_pairs():
    # Fixed-point oracle: same projector 0, distinct projectors (1-1/4)/2,
    # complement against distinct projector (1-3/4)/2.
    projs = trine_projectors()
    eye = np.eye(2)
    for i in range(3):
        for j in range(3):
            p = joint_prob(singlet(), projs[i], projs[j])
            if i == j:
                assert abs(p) < 1e-12
            else:
                assert abs(p - 3 / 8) < 1e-12
                assert abs(joint_prob(singlet(), eye - projs[i], projs[j]) - 1 / 8) < 1e-12


def test_joint_prob_rejects_bad_inputs():
    with pytest.raises(ValueError):
        joint_prob(np.array([1.0, 0.0, 0.0, 1.0]), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        joint_prob(singlet(), 2 * np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="not normalized"):
        quantum_strategy_table([2 * v for v in singlet()], trine_strategy(), trine_strategy())
    for state in (np.array(1.0), [[1, 0], [0, 0]], [1, 0, 0], [0.5] * 8, ["a", 0, 0, 0]):
        with pytest.raises(ValueError, match="state must"):
            joint_prob(state, np.eye(2), np.eye(2))
    for effect in (np.eye(3), np.array(1.0), [1, 0, 0, 1], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="Alice effect is not 2x2"):
            joint_prob(singlet(), effect, np.eye(2))


def test_born_kernel_clamps_rounding_and_rejects_larger_excursions():
    eye = np.eye(2, dtype=complex)
    # <singlet| c I (x) I |singlet> = c: rounding-sized excursions are clamped.
    assert _born_prob(singlet(), (1 + ALGEBRA_TOL / 2) * eye, eye) == 1.0
    assert _born_prob(singlet(), -ALGEBRA_TOL / 2 * eye, eye) == 0.0
    with pytest.raises(ValueError, match="outside"):
        _born_prob(singlet(), 2 * eye, eye)
    with pytest.raises(ValueError, match="outside"):
        _born_prob(singlet(), -4 * ALGEBRA_TOL * eye, eye)


def test_qubit_strategy_validation():
    with pytest.raises(ValueError):
        QubitStrategy((np.eye(2), np.eye(2), np.array([[0.5, 0.5], [0.5, 0.6]])))
    red, green, blue = trine_projectors()
    for bad, what in (
        ([[0.5, 0.5], [0.5, 0.6]], "not idempotent"),
        (np.eye(2), "not rank one"),
        ([[1, 0.5], [0, 0]], "not Hermitian"),
        (np.eye(3), "not 2x2"),
        (np.array(1.0), "not 2x2"),
        ([1, 0, 0, 0], "not 2x2"),
    ):
        with pytest.raises(ValueError, match=f"colour 1 is {what}"):
            QubitStrategy((red, bad, blue))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_qubit_strategy_rejects_non_finite_projectors(bad):
    # Every tolerance comparison is False on NaN, so the Hermitian,
    # idempotence and trace checks alone would let these through.
    proj = np.full((2, 2), bad, dtype=complex)
    with pytest.raises(ValueError, match="projector for colour 2 has non-finite entries"):
        QubitStrategy((*trine_projectors()[:2], proj))
    partly = np.array(projector_from_angle(0.0), dtype=complex)
    partly[1, 0] = bad
    with pytest.raises(ValueError, match="projector for colour 0 has non-finite entries"):
        QubitStrategy((partly, *trine_projectors()[1:]))


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_projector_refuses_a_non_finite_angle(angle):
    # Unchecked, inf failed in math.cos with "math domain error" and nan gave a
    # NaN matrix that only QubitStrategy refused.
    with pytest.raises(ValueError, match=re.escape(f"angle must be finite, got {angle!r}")):
        projector_from_angle(angle)


@pytest.mark.parametrize("projectors", [3, None, 1.5, (), [np.eye(2)] * 2, [np.eye(2)] * 4])
def test_qubit_strategy_needs_one_projector_per_colour(projectors):
    # Unchecked, an int failed in len() with TypeError.
    with pytest.raises(ValueError, match="^need one projector per colour$"):
        QubitStrategy(projectors)


def test_the_trine_strategy_is_built_once():
    assert trine_strategy() is trine_strategy()
    assert trine_strategy() == QubitStrategy(trine_projectors())


class TestTrineTable:
    def table(self):
        return quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())

    def test_never_plays_own_colour(self):
        t = self.table()
        for a in range(3):
            for b in range(3):
                for (x, y), p in t.row(a, b).items():
                    assert x != a and y != b

    def test_row_losses(self):
        # Equal colours never lose; distinct colours lose exactly 1/8.
        t = self.table()
        for a in range(3):
            for b in range(3):
                loss = sum(
                    p for (x, y), p in t.row(a, b).items()
                    if not rgb_predicate(a, b, x, y)
                )
                assert abs(loss - (0 if a == b else 1 / 8)) < 1e-12

    def test_win_probability(self):
        win = win_probability(self.table(), rgb_game())
        assert abs(win - F(11, 12)) < 1e-12

    def test_colour_permutation_invariance(self):
        projs = trine_projectors()
        for perm in itertools.permutations(range(3)):
            strat = QubitStrategy(tuple(projs[perm[c]] for c in range(3)))
            win = win_probability(
                quantum_strategy_table(singlet(), strat, strat), rgb_game()
            )
            assert abs(win - F(11, 12)) < 1e-12

    def test_correlations(self):
        corr = correlations_from_table(reduce_to_binary(self.table()))
        for a in range(3):
            for b in range(3):
                expected = -1 if a == b else 0.5
                assert abs(corr[a][b] - expected) < 1e-12


def test_product_state_stays_classical():
    product = np.zeros(4)
    product[0] = 1.0
    win = win_probability(
        quantum_strategy_table(product, trine_strategy(), trine_strategy()),
        rgb_game(),
    )
    assert win <= F(8, 9) + 1e-9


def test_reduce_to_binary_exact_path():
    binary = reduce_to_binary(rgrb())
    assert binary.shape == (3, 3, 2, 2)
    assert binary.is_exact
    corr = correlations_from_table(binary)
    for a in range(3):
        for b in range(3):
            assert corr[a][b] == (F(-1) if a == b else F(1))


def test_reduce_to_binary_rejects_own_colour_mass():
    with pytest.raises(ValueError, match="sure-losing"):
        reduce_to_binary(id_box())


def test_off_trine_angles_still_normalize():
    strat = QubitStrategy(
        tuple(projector_from_angle(t) for t in (10.0, -95.0, 140.0))
    )
    t = quantum_strategy_table(singlet(), strat, trine_strategy())
    win = win_probability(t, rgb_game())
    assert 0 <= win <= 1
    ok, _ = is_no_signalling(t)
    assert ok


@pytest.mark.parametrize("seed", range(20))
def test_qubit_tables_are_no_signalling_and_decompose_both_ways(seed):
    # Rounding leaves marginals ~1e-16 apart; a float table is read within
    # FLOAT_ROW_TOL, so every quantum table is no-signalling.
    rng = random.Random(seed)
    alice, bob = (
        QubitStrategy(tuple(projector_from_angle(rng.uniform(-180, 180)) for _ in range(3)))
        for _ in range(2)
    )
    table = quantum_strategy_table(singlet(), alice, bob)
    assert is_no_signalling(table) == (True, None)
    for direction in Direction:
        recomposed = recompose_one_way(decompose_one_way(table, direction))
        assert max(abs(p - q) for p, q in zip(recomposed.probs, table.probs)) <= FLOAT_ROW_TOL


# ---------------------------------------------------------------------------
# the table kernel: bit for bit against the per-cell definition, and within
# 4 ulp(1.0) of the np.kron code it replaced


_ANGLE = st.one_of(
    st.sampled_from([0.0, -0.0, 180.0, -180.0, 120.0, -120.0, 90.0, 360.0]),
    st.floats(-720.0, 720.0),
)
_ANGLES = st.one_of(
    st.just((0.0, -120.0, 120.0)),
    st.tuples(_ANGLE, _ANGLE, _ANGLE),
    _ANGLE.map(lambda t: (t, t, t)),
    st.tuples(_ANGLE, _ANGLE).map(lambda ts: (ts[0], ts[1], ts[0])),
)
#: Whether a party measures I - P in place of each projector P.
_FLIPS = st.booleans()


@st.composite
def _states(draw):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    state = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(state)
    if norm < 1e-3:
        return singlet()
    return state / norm


def _strategies(alice_angles, bob_angles, alice_flip, bob_flip):
    def strategy(angles, flip):
        projectors = (projector_from_angle(t) for t in angles)
        return QubitStrategy(tuple(map(complement, projectors) if flip else projectors))

    return strategy(alice_angles, alice_flip), strategy(bob_angles, bob_flip)


_TRINE = (0.0, -120.0, 120.0)
_HALF = 1 / math.sqrt(2)


@settings(max_examples=300, deadline=None)
@given(_ANGLES, _ANGLES, _FLIPS, _FLIPS, st.one_of(st.just(None), _states()))
# Product states |00> and |01>: one nonzero density term each.
@example(_TRINE, _TRINE, False, False, (1.0, 0.0, 0.0, 0.0))
@example((10.0, -95.0, 140.0), _TRINE, False, True, (0.0, 1.0, 0.0, 0.0))
# Negative zeros in the amplitudes make negative-zero density terms.
@example(_TRINE, _TRINE, False, False, (-0.0, _HALF, -_HALF, complex(-0.0, -0.0)))
# The singlet with both parties measuring I - P.
@example(_TRINE, (33.0, -71.5, 90.0), True, True, None)
def test_table_matches_the_per_cell_kernel_bit_for_bit(
    alice_angles, bob_angles, alice_flip, bob_flip, state
):
    state = singlet() if state is None else state
    alice, bob = _strategies(alice_angles, bob_angles, alice_flip, bob_flip)
    expected = reference_quantum_table(_check_state(state), alice, bob, reference_born_prob, complement)
    table = quantum_strategy_table(state, alice, bob)
    assert table.probs == expected.probs
    assert [type(p) for p in table.probs] == [type(p) for p in expected.probs]


def test_complex_projectors_match_the_per_cell_kernel_bit_for_bit():
    # Projectors off the x-z plane have imaginary entries, so a density term
    # with a zero real part still adds to the sum: only zero terms are left out.
    def projector(theta, phi):
        ket = (math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))
        return tuple(tuple(u * v.conjugate() for v in ket) for u in ket)

    alice = QubitStrategy(tuple(projector(t, p) for t, p in ((0.3, 1.1), (2.0, -0.7), (1.2, 2.5))))
    bob = QubitStrategy(tuple(projector(t, p) for t, p in ((1.7, 0.4), (0.9, -2.2), (2.6, 1.3))))
    for state in (singlet(), (_HALF, 1j * _HALF, 0.0, 0.0), (0.0, _HALF, -1j * _HALF, 0.0)):
        checked = _check_state(state)
        expected = reference_quantum_table(checked, alice, bob, reference_born_prob, complement)
        assert quantum_strategy_table(state, alice, bob).probs == expected.probs


#: The bound on the distance of a table entry from the np.kron kernel's.  An
#: entry is at most 1, so 4 ulp(1.0) is a few roundings of either sum; a
#: relative bound cannot hold near zero entries.
NUMPY_ATOL = 4 * math.ulp(1.0)


@settings(max_examples=300, deadline=None)
@given(_ANGLES, _ANGLES, _FLIPS, _FLIPS, st.one_of(st.just(None), _states()))
def test_table_is_within_four_ulps_of_the_np_kron_kernel(
    alice_angles, bob_angles, alice_flip, bob_flip, state
):
    state = singlet() if state is None else state
    alice, bob = _strategies(alice_angles, bob_angles, alice_flip, bob_flip)
    expected = reference_quantum_table(state, alice, bob, numpy_born_prob, numpy_complement)
    table = quantum_strategy_table(state, alice, bob)
    assert max(abs(p - q) for p, q in zip(table.probs, expected.probs)) <= NUMPY_ATOL


def test_table_calls_each_output_rule_once_per_colour_and_outcome():
    calls = []

    def counting_rule(colour, outcome):
        calls.append((colour, outcome))
        return cyclic_rule(colour, outcome)

    with mock.patch.object(quantum, "cyclic_rule", counting_rule):
        quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    assert sorted(calls) == sorted(2 * list(itertools.product(range(3), (0, 1))))


def test_the_swapped_rule_is_the_cyclic_rule_on_the_complements():
    # Why a strategy takes no rule: the other rule that answers both
    # neighbours, c-1 when P fires and c+1 otherwise, gives the table of
    # cyclic_rule on each I - P.
    angles = (10.0, -95.0, 140.0), (0.0, 33.0, -71.5)

    def swapped_rule(colour, outcome):
        return cyclic_rule(colour, 1 - outcome)

    with mock.patch.object(quantum, "cyclic_rule", swapped_rule):
        swapped = quantum_strategy_table(singlet(), *_strategies(*angles, False, False))
    flipped = quantum_strategy_table(singlet(), *_strategies(*angles, True, True))
    assert max(abs(p - q) for p, q in zip(swapped.probs, flipped.probs)) <= NUMPY_ATOL


def test_born_kernel_matches_np_kron_on_mixed_dtypes():
    # Float and complex effects, as numpy arrays or as tuples.
    eye = np.eye(2)
    for effect_a, effect_b in (
        (eye, np.eye(2, dtype=complex) - projector_from_angle(33.0)),
        (projector_from_angle(-71.5), 0.5 * eye),
        (trine_projectors()[1], trine_projectors()[2]),
    ):
        got = _born_prob(singlet(), effect_a, effect_b)
        assert abs(got - numpy_born_prob(singlet(), effect_a, effect_b)) <= NUMPY_ATOL
