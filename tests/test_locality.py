"""Signalling checks, one-way decompositions, and the uniqueness computation."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    SHAPES,
    assert_cached_pair,
    exact_tables,
    random_local_mixture,
    reference_decompose,
    reference_left_witness,
    reference_ns_proof,
    reference_recompose,
    reference_right_witness,
    reference_x_marginal,
    reference_y_marginal,
    typed,
    typed_protocol,
    typed_witness,
)
from rgbgame import locality
from rgbgame.locality import (
    Direction,
    LinearSystem,
    SignallingError,
    _rref,
    build_ns_constraints,
    decompose_one_way,
    id_box,
    is_no_signalling,
    l_sig_box,
    pr_box,
    r_sig_box,
    recompose_one_way,
    sig_box,
    solve_ns_unique,
    x_marginal,
    y_marginal,
)
from rgbgame.strategies import (
    FLOAT_ROW_TOL,
    StrategyTable,
    WinningFamilyParams,
    chsh_game,
    deterministic_strategy,
    family_strategy,
    l1_distance,
    mix,
    parameter_names,
    rgb0,
    rgb_game,
    rgrb,
    win_probability,
)

F = Fraction


# ---------------------------------------------------------------------------
# canonical boxes


def test_pr_box_wins_the_xor_game():
    t = pr_box()
    assert win_probability(t, chsh_game()) == 1
    for a in range(2):
        for b in range(2):
            assert t.support(a, b) == {(x, y) for x in (0, 1) for y in (0, 1) if x ^ y == (a & b)}


def test_canonical_boxes_are_deterministic_relabelings():
    assert id_box().row(1, 2) == {(1, 2): 1}
    assert r_sig_box().row(1, 2) == {(1, 1): 1}
    assert l_sig_box().row(1, 2) == {(2, 2): 1}
    assert sig_box().row(1, 2) == {(2, 1): 1}
    with pytest.raises(ValueError):
        id_box(0)


def test_constant_boxes_are_built_once_and_shared():
    for make in (rgrb, rgb0, pr_box, id_box, r_sig_box, l_sig_box, sig_box):
        assert make() is make()
    for make in (id_box, r_sig_box, l_sig_box, sig_box):
        assert make(2) is make(2)
        assert make(2).shape == (2, 2, 2, 2)
        assert make(2) is not make(3)
        for _ in range(2):
            with pytest.raises(ValueError, match="at least 1"):
                make(0)
    # The colour game holds a mutable dict, so every call builds a new one.
    assert rgb_game() is not rgb_game()


def test_marginals_are_distributions():
    t = rgrb()
    for a in range(3):
        for b in range(3):
            assert sum(x_marginal(t, a, b).values()) == 1
            assert sum(y_marginal(t, a, b).values()) == 1
    assert x_marginal(pr_box(), 0, 0) == {0: F(1, 2), 1: F(1, 2)}


# ---------------------------------------------------------------------------
# no-signalling checks


def test_ns_verdicts_on_canonical_boxes():
    assert is_no_signalling(id_box()) == (True, None)
    assert is_no_signalling(pr_box()) == (True, None)
    assert is_no_signalling(rgrb()) == (True, None)

    ok, witness = is_no_signalling(r_sig_box())
    assert not ok and witness.side == "right"
    ok, witness = is_no_signalling(l_sig_box())
    assert not ok and witness.side == "left"
    ok, witness = is_no_signalling(sig_box())
    assert not ok and witness.side == "right"  # right is checked first


def test_rgb0_signals_to_the_right():
    ok, witness = is_no_signalling(rgb0())
    assert not ok
    assert witness.side == "right"
    # The witness must name a real marginal discrepancy.
    a0, a1 = witness.sender_inputs
    y = witness.output
    b = witness.fixed_input
    assert y_marginal(rgb0(), a0, b)[y] != y_marginal(rgb0(), a1, b)[y]
    assert "marginal" in str(witness)
    assert witness.to_json_dict()["side"] == "right"


def test_every_other_family_member_signals():
    """rgrb is the only no-signalling member; random parameters all signal."""
    rng = random.Random(31)
    half = WinningFamilyParams.constant(F(1, 2))
    for _ in range(30):
        same = [F(rng.randint(0, 8), 8) for _ in range(3)]
        ps, qs = [], []
        for _ in range(6):
            k = rng.randint(0, 8)
            ps.append(F(k, 8))
            qs.append(F(rng.randint(0, 8 - k), 8))
        params = WinningFamilyParams.from_vector(same + ps + qs)
        if params == half:
            continue
        ok, witness = is_no_signalling(family_strategy(params))
        assert not ok and witness is not None


def test_float_tolerance_on_ns_check():
    # The slack comes from the table: a float twin of rgrb with one row
    # nudged by 1e-12 is no-signalling within FLOAT_ROW_TOL, the exact twin
    # with the same nudge signals, and so does a float nudge of 1e-6.
    base = rgrb()

    def nudged(jitter, kind):
        def wobble(a, b, x, y):
            p = kind(base.prob(a, b, x, y))
            if (a, b) == (0, 0) and p:
                return p + (jitter if (x, y) == (1, 2) else -jitter)
            return p

        return StrategyTable.from_function((3, 3, 3, 3), wobble)

    assert nudged(1e-12, float)._slack() == FLOAT_ROW_TOL
    assert is_no_signalling(nudged(1e-12, float))[0]
    assert not is_no_signalling(nudged(Fraction(1, 10**12), Fraction))[0]
    assert not is_no_signalling(nudged(1e-6, float))[0]


@st.composite
def signalling_mixtures(draw):
    """Random exact mixtures of the one- and two-way signalling boxes with
    the identity box and two random local deterministic boxes."""
    k = draw(st.integers(2, 3))
    functions = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    boxes = [id_box(k), r_sig_box(k), l_sig_box(k), sig_box(k)] + [
        deterministic_strategy(draw(functions), draw(functions), shape=(k, k, k, k))
        for _ in range(2)
    ]
    weights = draw(
        st.lists(st.integers(0, 4), min_size=len(boxes), max_size=len(boxes)).filter(sum)
    )
    return mix(boxes, [F(w, sum(weights)) for w in weights])


@settings(max_examples=200, deadline=None)
@given(signalling_mixtures())
def test_signalling_witness_reproduces_from_the_table(table):
    ok, witness = is_no_signalling(table)
    assume(not ok)
    _, _, nx, ny = table.shape
    if witness.side == "right":
        # Bob's marginal of output y at his input b, as Alice's input moves.
        b, y = witness.fixed_input, witness.output
        recomputed = tuple(
            sum(table.prob(a, b, x, y) for x in range(nx)) for a in witness.sender_inputs
        )
    else:
        a, x = witness.fixed_input, witness.output
        recomputed = tuple(
            sum(table.prob(a, b, x, y) for y in range(ny)) for b in witness.sender_inputs
        )
    assert recomputed == witness.marginals
    assert recomputed[0] != recomputed[1]


# ---------------------------------------------------------------------------
# one-way decompositions


def test_round_trip_on_ns_boxes():
    for table in (rgrb(), pr_box(), id_box()):
        for direction in Direction:
            protocol = decompose_one_way(table, direction)
            assert l1_distance(recompose_one_way(protocol), table) == 0


def test_round_trip_on_random_local_mixtures():
    rng = random.Random(47)
    for _ in range(50):
        table = random_local_mixture(rng)
        for direction in Direction:
            again = recompose_one_way(decompose_one_way(table, direction))
            assert l1_distance(again, table) == 0


def test_one_way_boxes_decompose_only_their_own_way():
    # Alice's input reaching Bob is fine left-to-right, impossible right-to-left.
    protocol = decompose_one_way(r_sig_box(), Direction.LEFT_TO_RIGHT)
    assert l1_distance(recompose_one_way(protocol), r_sig_box()) == 0
    with pytest.raises(SignallingError) as err:
        decompose_one_way(r_sig_box(), Direction.RIGHT_TO_LEFT)
    assert err.value.witness.side == "right"

    protocol = decompose_one_way(l_sig_box(), Direction.RIGHT_TO_LEFT)
    assert l1_distance(recompose_one_way(protocol), l_sig_box()) == 0
    with pytest.raises(SignallingError) as err:
        decompose_one_way(l_sig_box(), Direction.LEFT_TO_RIGHT)
    assert err.value.witness.side == "left"


def test_sig_box_is_rejected_both_ways():
    for direction in Direction:
        with pytest.raises(SignallingError) as err:
            decompose_one_way(sig_box(), direction)
        assert err.value.witness is not None


# ---------------------------------------------------------------------------
# row slices against the per-cell code


@st.composite
def locality_tables(draw):
    """Exact, float or mixed tables of any small shape: mixtures of local
    deterministic boxes, boxes where one party's output follows both inputs,
    and random rows, or the one-way mixtures of ``oracles.exact_tables``, so
    that every verdict and both directions occur."""
    shape = draw(SHAPES)
    table = draw(exact_tables(shape)) if draw(st.booleans()) else _mixture(draw, shape)
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if kind == "exact":
        return table
    probs = [float(p) if kind == "float" or draw(st.booleans()) else p for p in table.probs]
    return StrategyTable(shape, tuple(probs))


def _mixture(draw, shape):
    na, nb, nx, ny = shape

    def choices(size, count):
        return draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))

    f_a, f_b = choices(nx, na), choices(ny, nb)
    to_bob, to_alice = choices(ny, na * nb), choices(nx, na * nb)
    boxes = [
        deterministic_strategy(choices(nx, na), choices(ny, nb), shape),
        StrategyTable.from_function(
            shape, lambda a, b, x, y: int(x == f_a[a] and y == to_bob[a * nb + b])
        ),
        StrategyTable.from_function(
            shape, lambda a, b, x, y: int(x == to_alice[a * nb + b] and y == f_b[b])
        ),
    ]
    cells = nx * ny
    random_rows = []
    for _ in range(na * nb):
        raw = draw(st.lists(st.integers(0, 5), min_size=cells, max_size=cells).filter(sum))
        random_rows += [F(v, sum(raw)) for v in raw]
    boxes.append(StrategyTable(shape, tuple(random_rows)))
    weights = draw(
        st.lists(st.integers(0, 4), min_size=len(boxes), max_size=len(boxes)).filter(sum)
    )
    return mix(boxes, [F(w, sum(weights)) for w in weights])


@settings(max_examples=300, deadline=None)
@given(locality_tables())
def test_row_slices_match_the_per_cell_code(table):
    atol = 0 if table.is_exact else FLOAT_ROW_TOL
    assert table._slack() == atol
    for a, b in table.inputs():
        assert typed(x_marginal(table, a, b)) == typed(reference_x_marginal(table, a, b))
        assert typed(y_marginal(table, a, b)) == typed(reference_y_marginal(table, a, b))
    ok, witness = is_no_signalling(table)
    expected = reference_right_witness(table, atol) or reference_left_witness(table, atol)
    assert ok == (expected is None)
    assert typed_witness(witness) == typed_witness(expected)
    swapped_twice = locality._Swapped(locality._Swapped(table))
    assert swapped_twice.shape == table.shape
    assert (swapped_twice._exact or swapped_twice.probs) == (table._exact or table.probs)
    refusals = {}
    for direction in Direction:
        try:
            expected = reference_decompose(table, direction, atol)
        except SignallingError as err:
            with pytest.raises(SignallingError, match=re.escape(str(err))) as raised:
                decompose_one_way(table, direction)
            assert typed_witness(raised.value.witness) == typed_witness(err.witness)
            refusals[direction] = raised.value.witness
            continue
        protocol = decompose_one_way(table, direction)
        refusals[direction] = None
        assert typed_protocol(protocol) == typed_protocol(expected)
        try:
            recomposed = typed(reference_recompose(expected).probs)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                recompose_one_way(protocol)
            continue
        again = recompose_one_way(protocol)
        assert typed(again.probs) == recomposed
        assert_cached_pair(again)
        if table.is_exact:
            assert again == table
    # No-signalling is membership in both one-way classes, and a failed
    # verdict reports the right-to-left refusal's witness first.
    assert ok == (refusals == dict.fromkeys(Direction))
    first = refusals[Direction.RIGHT_TO_LEFT] or refusals[Direction.LEFT_TO_RIGHT]
    assert typed_witness(witness) == typed_witness(first)


def test_marginals_witnesses_and_decompositions_never_read_cells():
    reads = []

    class CountingTable(StrategyTable):
        def prob(self, a, b, x, y):
            reads.append(("prob", a, b, x, y))
            return super().prob(a, b, x, y)

        def row(self, a, b):
            reads.append(("row", a, b))
            return super().row(a, b)

    boxes = [rgrb(), pr_box(), r_sig_box(), l_sig_box(), sig_box(2), rgb0()]
    boxes.append(mix([rgrb(), r_sig_box()], [F(2, 3), F(1, 3)]))
    boxes.append(StrategyTable((2, 3, 3, 2), (F(1, 6),) * 36))
    for box in boxes:
        table = CountingTable(box.shape, box.probs)
        for a, b in table.inputs():
            x_marginal(table, a, b)
            y_marginal(table, a, b)
        is_no_signalling(table)
        for direction in Direction:
            try:
                decompose_one_way(table, direction)
            except SignallingError:
                pass
        assert reads == []


# ---------------------------------------------------------------------------
# the uniqueness computation


def dot(coeffs, values):
    return sum(c * v for c, v in zip(coeffs, values))


def test_constraint_system_shape():
    system = build_ns_constraints()
    assert system.variables == parameter_names()
    assert len(system.equalities) == 12
    # 15 nonnegativity rows plus 6 pair-sum rows.
    assert len(system.inequalities) == 21


def test_constraints_hold_exactly_at_the_uniform_point():
    system = build_ns_constraints()
    half = WinningFamilyParams.constant(F(1, 2)).as_vector()
    for coeffs, const in system.equalities:
        assert dot(coeffs, half) == const
    for coeffs, const in system.inequalities:
        assert dot(coeffs, half) >= const


def test_constraints_reject_rgb0_parameters():
    system = build_ns_constraints()
    values = {name: F(0) for name in parameter_names()}
    for name in ("p0", "p1", "p2", "p10", "p21", "p02", "q01", "q12", "q20"):
        values[name] = F(1)
    vec = [values[n] for n in parameter_names()]
    assert any(dot(coeffs, vec) != const for coeffs, const in system.equalities)


def test_unique_ns_member_is_the_uniform_one():
    params = solve_ns_unique()
    assert params.as_vector() == (F(1, 2),) * 15
    assert l1_distance(family_strategy(params), rgrb()) == 0
    ok, _ = is_no_signalling(family_strategy(params))
    assert ok


# ---------------------------------------------------------------------------
# the proof's elimination routine and its failure branches


def test_rref_reports_the_rank_and_reduces_in_place():
    rows = [[F(2), F(4), F(6)], [F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    pivots = _rref(rows)
    # x + 2y = 3 twice over and y = 1: rank 2, with x = 1 and y = 1.
    assert pivots == [(0, 0), (1, 1)]
    assert rows == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert len(_rref([[F(1), F(1), F(0)]] * 3)) == 1
    assert _rref([]) == []


def test_rref_refuses_an_inconsistent_system():
    with pytest.raises(ArithmeticError, match="^inconsistent linear system$"):
        _rref([[F(1), F(1), F(1)], [F(2), F(2), F(3)]])


def test_rref_of_an_extended_list_leaves_the_callers_rows_alone():
    # The uniqueness proof tests a row with _rref(rows + [row]) and then goes
    # on with rows: neither the list nor a row in it may change.
    rows = [list(coeffs) + [const] for coeffs, const in build_ns_constraints().equalities]
    _rref(rows)
    inner = [list(row) for row in rows]
    ids = [id(row) for row in rows]
    paired = _pair_row(0, 1)
    assert len(_rref(rows + [paired])) == 12
    with pytest.raises(ArithmeticError, match="inconsistent"):
        _rref(rows + [paired[:-1] + [F(3)]])
    assert [id(row) for row in rows] == ids
    assert rows == inner


def _entry_zero(u, v):
    """P(v, u | u, v) = 0 as the equality p_uv + q_uv = 1."""
    return tuple(F(name in (f"p{u}{v}", f"q{u}{v}")) for name in parameter_names()), F(1)


def _pair_row(u, v):
    """P(v, u | u, v) + P(u, v | v, u) = 0 as one row with its constant."""
    (c1, k1), (c2, k2) = _entry_zero(u, v), _entry_zero(v, u)
    return [a + b for a, b in zip(c1, c2)] + [k1 + k2]


def _without_equalities(*dropped):
    system = build_ns_constraints()
    kept = tuple(e for i, e in enumerate(system.equalities) if i not in dropped)
    return LinearSystem(system.variables, kept, system.inequalities)


def _entries_stated_zero_without_two_equalities():
    # The six entries are given as equalities, so the pairing holds whatever
    # is dropped; the rest pin the point even without one equality, but not
    # without both of equalities 0 and 2 (p0 + p01 = 1 and p0 = q10).
    system = _without_equalities(0, 2)
    zeros = tuple(_entry_zero(u, v) for u in range(3) for v in range(3) if u != v)
    return LinearSystem(system.variables, system.equalities + zeros, system.inequalities)


def _with_constants_moved(shift):
    # Each equality c . v = k becomes c . v = k - c_p0 * shift: the same
    # system in the variable p0 + shift, whose point has p0 = 1/2 - shift.
    system = build_ns_constraints()
    moved = tuple((c, k - c[0] * shift) for c, k in system.equalities)
    return LinearSystem(system.variables, moved, system.inequalities)


def _with_one_constant_off():
    # Every pair's form stays in the rows' span, but with the wrong constant.
    system = build_ns_constraints()
    (c, k), rest = system.equalities[0], system.equalities[1:]
    return LinearSystem(system.variables, ((c, k + 1),) + rest, system.inequalities)


PAIRING = "expected P(v,u|u,v) + P(u,v|v,u) to vanish modulo no-signalling"

BROKEN_SYSTEMS = [
    ("not a point", _entries_stated_zero_without_two_equalities, "not a point: rank 14 of 15"),
    ("pairing, equality dropped", lambda: _without_equalities(5), PAIRING),
    ("pairing, constant off", _with_one_constant_off, PAIRING),
    ("range inequality", lambda: _with_constants_moved(1), "violates a range inequality"),
]


@pytest.mark.parametrize(
    "build, message", [case[1:] for case in BROKEN_SYSTEMS], ids=[case[0] for case in BROKEN_SYSTEMS]
)
def test_ns_unique_raises_on_a_broken_system(monkeypatch, build, message):
    system = build()
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        reference_ns_proof(system)
    monkeypatch.setattr(locality, "build_ns_constraints", lambda: system)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        solve_ns_unique()


@pytest.mark.parametrize("shift", [0, F(-1, 4), F(1, 3)])
def test_the_rank_test_and_the_parent_proof_agree(monkeypatch, shift):
    # The real system, and the same system in p0 + shift, whose point moves
    # to p0 = 1/2 - shift and stays inside every range row.
    system = _with_constants_moved(shift)
    pinned, point = reference_ns_proof(system)
    assert pinned == [(0, 1), (1, 2), (2, 0)]
    assert point == (F(1, 2) - shift,) + (F(1, 2),) * 14
    monkeypatch.setattr(locality, "build_ns_constraints", lambda: system)
    assert solve_ns_unique().as_vector() == point
    # The rank test implies exactly the forms that reduce to zero: each
    # pinned pair's sum, and none of the six entries on its own.
    rows = [list(coeffs) + [const] for coeffs, const in system.equalities]
    rank = len(_rref(rows))
    for u, v in pinned:
        assert len(_rref(rows + [_pair_row(u, v)])) == rank
        for entry in (_entry_zero(u, v), _entry_zero(v, u)):
            assert len(_rref(rows + [list(entry[0]) + [entry[1]]])) == rank + 1
