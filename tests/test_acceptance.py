"""Acceptance gate: one test per headline claim.

Run with ``pytest -s tests/test_acceptance.py`` to get a one-line PASS/FAIL
verdict per criterion.  Tolerances are part of the claims and are pinned
here, not imported, so a library change cannot silently relax the gate.
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from oracles import random_local_mixture, random_wiring
from rgbgame.bell import (
    GRAM_EXACT,
    MULTIPLIERS_EXACT,
    W_EXACT,
    alternating_ascent,
    bell_quantity,
    deterministic_bell_maximum,
    sym_eigenvalues,
    verify_dual,
    verify_primal,
    win_from_correlations,
)
from rgbgame.locality import (
    Direction,
    SignallingError,
    decompose_one_way,
    is_no_signalling,
    pr_box,
    recompose_one_way,
    sig_box,
    solve_ns_unique,
)
from rgbgame.quantum import (
    QubitStrategy,
    correlations_from_table,
    quantum_strategy_table,
    reduce_to_binary,
    singlet,
    trine_projectors,
    trine_strategy,
)
from rgbgame.strategies import (
    StrategyTable,
    deterministic_strategy,
    enumerate_winning_deterministic_boxes,
    family_strategy,
    l1_distance,
    local_bound,
    rgb_game,
    rgb_predicate,
    rgrb,
    win_probability,
)
from rgbgame.wiring import (
    evaluate_wiring,
    noisy_composition_win,
    pr_from_rgrb,
    rgrb_from_pr,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL")
        raise
    print(f"criterion {number:02d} [{label}]: PASS")


def test_criterion_01_winning_strategy_count():
    with criterion(1, "winning strategy count"):
        start = time.perf_counter()
        count = enumerate_winning_deterministic_boxes(rgb_game())
        elapsed = time.perf_counter() - start
        assert count == 5832
        assert elapsed < 0.1


def test_criterion_02_local_bound():
    with criterion(2, "local bound"):
        start = time.perf_counter()
        value, f, g = local_bound(rgb_game())
        elapsed = time.perf_counter() - start
        assert value == F(8, 9)
        # the witness never answers its own question and collides exactly once
        assert all(f[a] != a for a in range(3))
        assert all(g[b] != b for b in range(3))
        assert sum(f[a] == g[b] for a in range(3) for b in range(3)) == 1
        assert win_probability(deterministic_strategy(f, g), rgb_game()) == F(8, 9)
        assert elapsed < 0.1


def test_criterion_03_quantum_value():
    with criterion(3, "quantum value"):
        table = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
        for a in range(3):
            for b in range(3):
                loss = sum(
                    p for (x, y), p in table.row(a, b).items()
                    if not rgb_predicate(a, b, x, y)
                )
                assert abs(loss - (0 if a == b else 1 / 8)) < 1e-12
        assert abs(win_probability(table, rgb_game()) - F(11, 12)) < 1e-12


def test_criterion_04_bell_chain():
    with criterion(4, "bell quantity chain"):
        trine = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
        trine_win = win_probability(trine, rgb_game())
        trine_r = bell_quantity(correlations_from_table(reduce_to_binary(trine)))
        assert abs(trine_r - 9) < 1e-9
        assert abs(trine_r - (36 * trine_win - 24)) < 1e-9

        ns_corr = correlations_from_table(reduce_to_binary(rgrb()))
        assert bell_quantity(ns_corr) == 12
        assert 36 * win_probability(rgrb(), rgb_game()) - 24 == 12

        best, (f_bits, g_bits) = deterministic_bell_maximum()
        assert best == 8
        corr = tuple(
            tuple(1 if f_bits[a] == g_bits[b] else -1 for b in range(3))
            for a in range(3)
        )
        assert bell_quantity(corr) == 8
        assert 36 * win_from_correlations(corr) - 24 == 8


def test_criterion_05_sdp_certificates():
    with criterion(5, "sdp certificates"):
        primal_value, primal_ok = verify_primal(GRAM_EXACT)
        dual_value, dual_ok = verify_dual(MULTIPLIERS_EXACT)
        assert primal_ok and dual_ok
        assert primal_value == 9.0
        assert dual_value == 9.0
        assert abs(primal_value - dual_value) <= 1e-9

        gram_eigs = sym_eigenvalues(GRAM_EXACT)
        for got, want in zip(gram_eigs, (3, 3, 0, 0, 0, 0)):
            assert abs(got - want) < 1e-9
        slack = [
            [-0.5 * w + m for w, m in zip(w_row, m_row)]
            for w_row, m_row in zip(W_EXACT, MULTIPLIERS_EXACT)
        ]
        for got, want in zip(sym_eigenvalues(slack), (3, 3, 1.5, 1.5, 0, 0)):
            assert abs(got - want) < 1e-9


def test_criterion_06_optimizer():
    with criterion(6, "alternating ascent"):
        start = time.perf_counter()
        result = alternating_ascent(seed=2026, restarts=20)
        elapsed = time.perf_counter() - start
        assert 9 - 1e-6 <= result.value <= 9 + 1e-9
        values = result.sweep_values
        assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))
        assert elapsed < 1.0


def test_criterion_07_reductions():
    with criterion(7, "wiring reductions"):
        to_pr = evaluate_wiring(pr_from_rgrb(), rgrb())
        assert l1_distance(to_pr, pr_box()) == 0
        to_rgrb = evaluate_wiring(rgrb_from_pr(), pr_box())
        assert l1_distance(to_rgrb, rgrb()) == 0


def test_criterion_08_noisy_composition():
    with criterion(8, "noisy composition"):
        rng = random.Random(8)
        for _ in range(20):
            p = F(rng.randint(1, 63), 64)
            assert noisy_composition_win(p) == p * p + (1 - p) * (1 - p)
        win = noisy_composition_win(math.sqrt(3) / 2)
        assert abs(win - (5 / 2 - math.sqrt(3))) < 1e-12


def test_criterion_09_ns_uniqueness():
    with criterion(9, "no-signalling uniqueness"):
        params = solve_ns_unique()
        assert params.as_vector() == (F(1, 2),) * 15
        assert l1_distance(family_strategy(params), rgrb()) == 0


def test_criterion_10_one_way_decomposition():
    with criterion(10, "one-way decomposition"):
        rng = random.Random(10)
        corpus = [rgrb(), pr_box()]
        corpus += [random_local_mixture(rng) for _ in range(50)]
        for table in corpus:
            for direction in Direction:
                rebuilt = recompose_one_way(decompose_one_way(table, direction))
                assert l1_distance(rebuilt, table) == 0
        for direction in Direction:
            with pytest.raises(SignallingError) as exc:
                decompose_one_way(sig_box(), direction)
            assert exc.value.witness is not None


def test_criterion_11_property_suite():
    with criterion(11, "property suite"):
        rng = random.Random(11)

        # normalization on random family members and the quantum table
        for _ in range(20):
            table = random_local_mixture(rng)
            for a, b in table.inputs():
                assert sum(table.row(a, b).values()) == 1
        trine = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
        for a, b in trine.inputs():
            assert abs(sum(trine.row(a, b).values()) - 1) < 1e-9

        # metric axioms on a small corpus
        corpus = [random_local_mixture(rng) for _ in range(4)] + [rgrb()]
        for s, t in itertools.product(corpus, repeat=2):
            assert l1_distance(s, t) == l1_distance(t, s) >= 0
            assert (l1_distance(s, t) == 0) == (s.probs == t.probs)
        for s, t, u in itertools.combinations(corpus, 3):
            assert l1_distance(s, u) <= l1_distance(s, t) + l1_distance(t, u)

        # wirings cannot create signalling
        for base in (pr_box(), rgrb()):
            for _ in range(3):
                protocol = random_wiring(rng, (3, 3, 2, 2), base.shape)
                ok, witness = is_no_signalling(evaluate_wiring(protocol, base))
                assert ok, witness

        # simultaneous colour relabelling fixes both optimal strategies
        projs = trine_projectors()
        ns_box = rgrb()
        for perm in itertools.permutations(range(3)):
            strat = QubitStrategy(tuple(projs[perm[c]] for c in range(3)))
            win = win_probability(
                quantum_strategy_table(singlet(), strat, strat), rgb_game()
            )
            assert abs(win - F(11, 12)) < 1e-12
            relabeled = StrategyTable.from_dict(
                (3, 3, 3, 3),
                {
                    (a, b, x, y): ns_box.prob(perm[a], perm[b], perm[x], perm[y])
                    for a in range(3)
                    for b in range(3)
                    for x in range(3)
                    for y in range(3)
                },
            )
            assert l1_distance(relabeled, ns_box) == 0
