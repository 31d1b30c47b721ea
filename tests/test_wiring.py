"""Wiring evaluation, both named reductions, and noise propagation."""

import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SHAPES,
    exact_tables,
    random_maps,
    random_wiring,
    reference_evaluate_wiring,
    typed,
)
from rgbgame.locality import is_no_signalling, pr_box
from rgbgame.strategies import (
    StrategyTable,
    _numerators,
    chsh_game,
    deterministic_strategy,
    l1_distance,
    mix,
    rgb_game,
    rgrb,
    win_probability,
)
from rgbgame.wiring import (
    WiringProtocol,
    evaluate_wiring,
    noisy_composition_win,
    noisy_parity_survival,
    noisy_pr,
    parity_flip_box,
    pr_from_rgrb,
    rgrb_from_pr,
)

F = Fraction


def passthrough(shape):
    """One call forwarding inputs and outputs unchanged."""
    return WiringProtocol(
        calls=1,
        randomness=1,
        outer_shape=shape,
        inner_shape=shape,
        alice_inputs=(lambda a, xs, r: a,),
        bob_inputs=(lambda b, ys, r: b,),
        alice_output=lambda a, xs, r: xs[0],
        bob_output=lambda b, ys, r: ys[0],
    )


def test_passthrough_wiring_is_the_identity():
    assert l1_distance(evaluate_wiring(passthrough((3, 3, 3, 3)), rgrb()), rgrb()) == 0
    assert l1_distance(evaluate_wiring(passthrough((2, 2, 2, 2)), pr_box()), pr_box()) == 0


def test_shared_randomness_is_averaged_out():
    # Flipping both outputs with a shared coin preserves the XOR box exactly.
    protocol = WiringProtocol(
        calls=1,
        randomness=2,
        outer_shape=(2, 2, 2, 2),
        inner_shape=(2, 2, 2, 2),
        alice_inputs=(lambda a, xs, r: a,),
        bob_inputs=(lambda b, ys, r: b,),
        alice_output=lambda a, xs, r: xs[0] ^ r,
        bob_output=lambda b, ys, r: ys[0] ^ r,
    )
    assert l1_distance(evaluate_wiring(protocol, pr_box()), pr_box()) == 0


def test_wiring_validation():
    with pytest.raises(ValueError):
        WiringProtocol(
            calls=2,
            randomness=1,
            outer_shape=(2, 2, 2, 2),
            inner_shape=(2, 2, 2, 2),
            alice_inputs=(lambda a, xs, r: a,),  # one map short
            bob_inputs=(lambda b, ys, r: b,),
            alice_output=lambda a, xs, r: 0,
            bob_output=lambda b, ys, r: 0,
        )
    with pytest.raises(ValueError):
        evaluate_wiring(passthrough((3, 3, 3, 3)), pr_box())
    # 1.0 and True compare as 1, but a float count fails in evaluate_wiring
    # and a bool is written as JSON true, which load_wiring refuses.
    for calls, randomness, message in (
        (-1, 1, "number of calls must be an integer of at least 0, got -1"),
        (1.0, 1, "number of calls must be an integer of at least 0, got 1.0"),
        (True, 1, "number of calls must be an integer of at least 0, got True"),
        (0, 0, "randomness must be an integer of at least 1, got 0"),
        (0, 1.0, "randomness must be an integer of at least 1, got 1.0"),
        (0, True, "randomness must be an integer of at least 1, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WiringProtocol(calls, randomness, (1, 1, 1, 1), (1, 1, 1, 1), (), (), (0,), (0,))
    message = r"^alice_inputs\[0\] map sends \(0, \(\), 0\) to 5, not an integer in range\(2\)$"
    with pytest.raises(ValueError, match=message):
        WiringProtocol(
            calls=1,
            randomness=1,
            outer_shape=(2, 2, 2, 2),
            inner_shape=(2, 2, 2, 2),
            alice_inputs=(lambda a, xs, r: 5,),
            bob_inputs=(lambda b, ys, r: b,),
            alice_output=lambda a, xs, r: xs[0],
            bob_output=lambda b, ys, r: ys[0],
        )


def test_maps_given_as_tables_or_callables_make_one_protocol():
    # pr_from_rgrb's maps written out in domain order: own input, then the
    # earlier sub-outputs, then shared randomness.
    tables = ((0, 1),), ((0, 2),), (0, 0, 1, 0, 0, 1), (0, 1, 0, 0, 1, 0)
    protocol = WiringProtocol(1, 1, (2, 2, 2, 2), (3, 3, 3, 3), *tables)
    assert protocol == pr_from_rgrb() and hash(protocol) == hash(pr_from_rgrb())
    assert (protocol.alice_inputs, protocol.bob_inputs) == tables[:2]
    assert (protocol.alice_output, protocol.bob_output) == tables[2:]
    assert pickle.loads(pickle.dumps(rgrb_from_pr())) == rgrb_from_pr()
    assert pr_from_rgrb() != rgrb_from_pr()
    with pytest.raises(ValueError, match=r"^bob_output map has 5 values, not 6$"):
        WiringProtocol(1, 1, (2, 2, 2, 2), (3, 3, 3, 3), *tables[:3], tables[3][:5])
    float_value = (0, 0, 1, 0, 0, 2.0)
    with pytest.raises(ValueError, match=r"^alice_output map sends \(1, \(2,\), 0\) to 2\.0"):
        WiringProtocol(1, 1, (2, 2, 2, 2), (3, 3, 3, 3), *tables[:2], float_value, tables[3])


# ---------------------------------------------------------------------------
# the two named reductions


def test_xor_box_from_colour_box():
    protocol = pr_from_rgrb()
    assert protocol.calls == 1
    composed = evaluate_wiring(protocol, rgrb())
    # Hand expansion of the (0,0) row: base inputs (0,0), base outputs
    # (1,2) and (2,1) map to (0,0) and (1,1).
    assert composed.row(0, 0) == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    assert l1_distance(composed, pr_box()) == 0
    assert win_probability(composed, chsh_game()) == 1


def test_colour_box_from_two_xor_calls():
    protocol = rgrb_from_pr()
    assert protocol.calls == 2
    composed = evaluate_wiring(protocol, pr_box())
    # Hand expansion of the (0,1) row: the winning pairs except (1,0).
    assert composed.row(0, 1) == {(1, 2): F(1, 2), (2, 0): F(1, 2)}
    assert composed.row(2, 2) == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert l1_distance(composed, rgrb()) == 0
    assert win_probability(composed, rgb_game()) == 1


def test_reductions_compose_to_the_identity():
    # colour -> XOR -> colour lands back on the same box.
    middle = evaluate_wiring(pr_from_rgrb(), rgrb())
    back = evaluate_wiring(rgrb_from_pr(), middle)
    assert l1_distance(back, rgrb()) == 0


# ---------------------------------------------------------------------------
# no-signalling preservation (wirings cannot create signalling)


def test_random_wirings_preserve_no_signalling():
    rng = random.Random(59)
    for base in (pr_box(), rgrb()):
        for _ in range(10):
            protocol = random_wiring(rng, (3, 3, 2, 2), base.shape)
            table = evaluate_wiring(protocol, base)
            ok, witness = is_no_signalling(table)
            assert ok, witness


@st.composite
def ns_boxes(draw):
    """Random exact mixtures of no-signalling boxes: deterministic boxes of a
    random shape, joined by the PR box or rgrb where the shape is theirs."""
    shape = draw(st.sampled_from([(2, 2, 2, 2), (3, 3, 3, 3)]) | SHAPES)
    na, nb, nx, ny = shape
    tables = [
        deterministic_strategy(
            draw(st.lists(st.integers(0, nx - 1), min_size=na, max_size=na)),
            draw(st.lists(st.integers(0, ny - 1), min_size=nb, max_size=nb)),
            shape,
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    tables += [box for box in (pr_box(), rgrb()) if box.shape == shape]
    weights = draw(
        st.lists(st.integers(0, 4), min_size=len(tables), max_size=len(tables)).filter(sum)
    )
    return mix(tables, [F(w, sum(weights)) for w in weights])


@settings(max_examples=100, deadline=None)
@given(
    ns_boxes(),
    SHAPES,
    st.integers(0, 2),
    st.integers(1, 2),
    st.randoms(use_true_random=False),
)
def test_wirings_of_random_ns_boxes_stay_no_signalling(base, outer, calls, randomness, rng):
    assert is_no_signalling(base)[0]
    protocol = random_wiring(rng, outer, base.shape, calls, randomness)
    ok, witness = is_no_signalling(evaluate_wiring(protocol, base))
    assert ok, witness


# ---------------------------------------------------------------------------
# evaluate_wiring against the per-cell loop


@st.composite
def base_boxes(draw, max_side=3):
    """Random boxes, not necessarily no-signalling: exact rows of small
    denominators or of denominators up to ~10^6, or float rows of random
    weights normalised by their sum, zeros included in all of them; or the
    one-way mixtures of ``oracles.exact_tables``."""
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(4))
    kind = draw(st.sampled_from(["exact", "float", "one-way"]))
    if kind == "one-way":
        return draw(exact_tables(shape))
    exact = kind == "exact"
    n = shape[2] * shape[3]
    top = draw(st.sampled_from([5, 10**5]))
    probs = []
    for _ in range(shape[0] * shape[1]):
        raw = draw(st.lists(st.integers(0, top), min_size=n, max_size=n).filter(sum))
        if exact:
            probs += [F(v, sum(raw)) for v in raw]
        else:
            scaled = [v * draw(st.floats(0.1, 1.0)) for v in raw]
            probs += [v / sum(scaled) for v in scaled]
    return StrategyTable(shape, tuple(probs))


@settings(max_examples=200, deadline=None)
@given(
    base_boxes(),
    SHAPES,
    st.integers(0, 2),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.05]),
    st.randoms(use_true_random=False),
)
def test_evaluate_wiring_matches_the_per_cell_loop(base, outer, calls, randomness, spill, rng):
    fields, spilled = random_maps(rng, outer, base.shape, calls, randomness, spill)
    _check_against_the_per_cell_loop(fields, spilled, base)


def _check_against_the_per_cell_loop(fields, spilled, base):
    # A map value outside its alphabet is refused when the protocol is
    # built, whether or not an evaluation would reach it.
    if spilled:
        with pytest.raises(ValueError, match=r"map sends .* not an integer in range\("):
            WiringProtocol(**vars(fields))
        return
    table = evaluate_wiring(WiringProtocol(**vars(fields)), base)
    assert typed(table.probs) == typed(reference_evaluate_wiring(fields, base).probs)
    # The integer path leaves the entries' pair over their least common denominator.
    assert table._exact == (_numerators(table.probs) if table.is_exact else None)


@settings(max_examples=60, deadline=None)
@given(
    base_boxes(max_side=2),
    SHAPES,
    st.integers(2, 3),
    st.integers(2, 4),
    st.sampled_from([0.0, 0.05]),
    st.randoms(use_true_random=False),
)
def test_evaluate_wiring_matches_the_per_cell_loop_over_several_calls(
    base, outer, calls, randomness, spill, rng
):
    # Branch weights are products of up to three entries over R * D**calls.
    fields, spilled = random_maps(rng, outer, base.shape, calls, randomness, spill)
    _check_against_the_per_cell_loop(fields, spilled, base)


def test_evaluate_wiring_reads_each_base_row_once():
    reads = []

    class CountingTable(StrategyTable):
        def prob(self, a, b, x, y):
            reads.append(("prob", a, b))
            return super().prob(a, b, x, y)

        def cells(self, a, b):
            reads.append(("cells", a, b))
            return super().cells(a, b)

    rng = random.Random(71)
    cases = [
        (rgrb_from_pr(), noisy_pr(F(2, 7))),
        (rgrb_from_pr(), noisy_pr(0.3)),
        (pr_from_rgrb(), rgrb()),
        (random_wiring(rng, (3, 3, 2, 2), (2, 2, 2, 2), 2, 3), pr_box()),
    ]
    for protocol, box in cases:
        base = CountingTable(box.shape, box.probs)
        reads.clear()
        assert evaluate_wiring(protocol, base).probs == evaluate_wiring(protocol, box).probs
        assert not [read for read in reads if read[0] == "prob"]
        assert len(reads) == len(set(reads)) > 0


# ---------------------------------------------------------------------------
# noise


def test_noisy_pr_interpolates_the_xor_game():
    rng = random.Random(61)
    for _ in range(10):
        p = F(rng.randint(0, 32), 32)
        box = noisy_pr(p)
        assert win_probability(box, chsh_game()) == p
        ok, _ = is_no_signalling(box)
        assert ok
    assert l1_distance(noisy_pr(F(1)), pr_box()) == 0
    with pytest.raises(ValueError):
        noisy_pr(F(3, 2))
    with pytest.raises(ValueError):
        noisy_pr(-0.1)


def test_parity_flip_box_shape():
    t = parity_flip_box()
    assert t.row(0, 0) == {(1, 1): F(1, 2), (2, 2): F(1, 2)}
    assert t.row(0, 1) == {(1, 0): F(1, 2), (2, 2): F(1, 2)}
    assert win_probability(t, rgb_game()) == F(1, 3)
    ok, _ = is_no_signalling(t)
    assert ok


def test_noisy_composition_decomposes_exactly():
    """Exactly-one-error weight 2p(1-p) lands on the parity-flipped box."""
    rng = random.Random(67)
    for _ in range(10):
        p = F(rng.randint(1, 31), 32)
        q = 2 * p * (1 - p)
        composed = evaluate_wiring(rgrb_from_pr(), noisy_pr(p))
        expected = mix([rgrb(), parity_flip_box()], [1 - q, q])
        assert l1_distance(composed, expected) == 0
        assert noisy_composition_win(p) == 1 - F(4, 3) * p * (1 - p)
        assert noisy_parity_survival(p) == p * p + (1 - p) * (1 - p)


def test_noisy_parity_survival_reads_a_unit_parameter():
    # Unchecked, 2 gave 5 and None escaped as a bare TypeError.
    with pytest.raises(ValueError, match=r"^noise parameter p = 2 outside \[0, 1\]$"):
        noisy_parity_survival(2)
    with pytest.raises(ValueError, match="^noise parameter p is None, not a number$"):
        noisy_parity_survival(None)
    assert noisy_parity_survival(F(1, 4)) == F(5, 8)


def test_noisy_composition_endpoints():
    assert noisy_composition_win(F(1)) == 1
    # A base that is always wrong composes perfectly: both calls flip, and
    # the flips cancel on the shared parity.
    assert noisy_composition_win(F(0)) == 1
    # The worst base is the unbiased one.
    assert noisy_composition_win(F(1, 2)) == F(2, 3)


def test_noisy_composition_float_path():
    p = 0.9
    win = noisy_composition_win(p)
    assert abs(win - (1 - (4 / 3) * p * (1 - p))) < 1e-12
