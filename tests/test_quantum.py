"""Singlet-state simulation of projective qubit strategies."""

import itertools

import numpy as np
import pytest

from rgbgame.locality import id_box, is_no_signalling
from rgbgame.quantum import (
    ALGEBRA_TOL,
    QubitStrategy,
    _born_prob,
    correlations_from_table,
    joint_prob,
    projector_from_angle,
    quantum_strategy_table,
    reduce_to_binary,
    singlet,
    trine_projectors,
    trine_strategy,
)
from rgbgame.strategies import rgb_game, rgb_predicate, rgrb, win_probability

from fractions import Fraction

F = Fraction


def test_projector_at_angle_zero_is_spin_up():
    np.testing.assert_allclose(
        projector_from_angle(0.0), np.array([[1, 0], [0, 0]]), atol=1e-15
    )


def test_trine_projector_algebra():
    projs = trine_projectors()
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
        quantum_strategy_table(2 * singlet(), trine_strategy(), trine_strategy())


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
    # Output rule must avoid the input colour.
    with pytest.raises(ValueError):
        QubitStrategy(trine_projectors(), output_rule=lambda colour, outcome: colour)


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
    ok, _ = is_no_signalling(t, atol=1e-9)
    assert ok
