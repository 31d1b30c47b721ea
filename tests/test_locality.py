"""Signalling checks, one-way decompositions, and the uniqueness computation."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rgbgame.locality import (
    Direction,
    OneWayProtocol,
    SignallingError,
    SignallingWitness,
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


def random_local_mixture(rng, k=3, parts=6):
    """A no-signalling box by construction: a mixture of local deterministic ones."""
    tables = [
        deterministic_strategy(
            tuple(rng.randrange(k) for _ in range(k)),
            tuple(rng.randrange(k) for _ in range(k)),
            shape=(k, k, k, k),
        )
        for _ in range(parts)
    ]
    cuts = sorted(rng.randint(0, 24) for _ in range(parts - 1))
    weights = [
        F(b - a, 24) for a, b in zip([0] + cuts, cuts + [24])
    ]
    return mix(tables, weights)


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
    # Float twin of rgrb with one row nudged by 1e-12: a strict check sees
    # the marginal shift, a 1e-9 tolerance does not.
    jitter = 1e-12
    base = rgrb()

    def wobble(a, b, x, y):
        p = float(base.prob(a, b, x, y))
        if (a, b) == (0, 0) and p:
            return p + (jitter if (x, y) == (1, 2) else -jitter)
        return p

    t = StrategyTable.from_function((3, 3, 3, 3), wobble)
    ok, _ = is_no_signalling(t, atol=0)
    assert not ok
    ok, _ = is_no_signalling(t, atol=1e-9)
    assert ok


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


class _ReferenceSwapped:
    """Oracle view: P'(x, y | a, b) = P(y, x | b, a), one prob() per cell."""

    def __init__(self, table):
        na, nb, nx, ny = table.shape
        self.table = table
        self.shape = (nb, na, ny, nx)

    def prob(self, a, b, x, y):
        return self.table.prob(b, a, y, x)


def _reference_swap(table):
    return table.table if isinstance(table, _ReferenceSwapped) else _ReferenceSwapped(table)


def _reference_x_marginal(table, a, b):
    _, _, nx, ny = table.shape
    return {x: sum(table.prob(a, b, x, y) for y in range(ny)) for x in range(nx)}


def _reference_y_marginal(table, a, b):
    return _reference_x_marginal(_reference_swap(table), b, a)


def _reference_right_witness(table, atol, side="right"):
    na, nb, _, ny = table.shape
    for b in range(nb):
        reference = _reference_y_marginal(table, 0, b)
        for a in range(1, na):
            current = _reference_y_marginal(table, a, b)
            for y in range(ny):
                if abs(current[y] - reference[y]) > atol:
                    return SignallingWitness(side, b, y, (0, a), (reference[y], current[y]))
    return None


def _reference_left_witness(table, atol):
    return _reference_right_witness(_reference_swap(table), atol, side="left")


def _reference_decompose(table, direction):
    if direction is Direction.LEFT_TO_RIGHT:
        witness, view = _reference_left_witness(table, 0), table
    else:
        witness, view = _reference_right_witness(table, 0), _reference_swap(table)
    if witness is not None:
        raise SignallingError(witness)
    na, nb, nx, ny = view.shape
    sender = {a: _reference_x_marginal(view, a, 0) for a in range(na)}
    receiver = {}
    for a in range(na):
        for b in range(nb):
            for x in range(nx):
                mass = sender[a][x]
                if mass == 0:
                    receiver[(a, b, x)] = {y: Fraction(1, ny) for y in range(ny)}
                else:
                    receiver[(a, b, x)] = {y: view.prob(a, b, x, y) / mass for y in range(ny)}
    return OneWayProtocol(direction, table.shape, sender, receiver)


def _reference_recompose(protocol):
    def entry(a, b, x, y):
        return protocol.sender[a][x] * protocol.receiver[(a, b, x)][y]

    if protocol.direction is Direction.LEFT_TO_RIGHT:
        return StrategyTable.from_function(protocol.shape, entry)
    return StrategyTable.from_function(protocol.shape, lambda a, b, x, y: entry(b, a, y, x))


def _typed(values):
    """Keys, types and reprs: repr tells float bits apart, -0.0 included."""
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


@st.composite
def locality_tables(draw):
    """Exact, float or mixed tables of any small shape: mixtures of local
    deterministic boxes, boxes where one party's output follows both inputs,
    and random rows, so that every verdict and both directions occur."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
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
    table = mix(boxes, [F(w, sum(weights)) for w in weights])
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    if kind == "exact":
        return table
    probs = [float(p) if kind == "float" or draw(st.booleans()) else p for p in table.probs]
    return StrategyTable(shape, tuple(probs))


@settings(max_examples=300, deadline=None)
@given(locality_tables(), st.sampled_from([0, 1e-9]))
def test_row_slices_match_the_per_cell_code(table, atol):
    for a, b in table.inputs():
        assert _typed(x_marginal(table, a, b)) == _typed(_reference_x_marginal(table, a, b))
        assert _typed(y_marginal(table, a, b)) == _typed(_reference_y_marginal(table, a, b))
    ok, witness = is_no_signalling(table, atol)
    expected = _reference_right_witness(table, atol) or _reference_left_witness(table, atol)
    assert ok == (expected is None)
    assert _typed_witness(witness) == _typed_witness(expected)
    for direction in Direction:
        try:
            expected = _reference_decompose(table, direction)
        except SignallingError as err:
            with pytest.raises(SignallingError, match=re.escape(str(err))) as raised:
                decompose_one_way(table, direction)
            assert _typed_witness(raised.value.witness) == _typed_witness(err.witness)
            continue
        protocol = decompose_one_way(table, direction)
        assert _typed_protocol(protocol) == _typed_protocol(expected)
        try:
            recomposed = _typed(_reference_recompose(expected).probs)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                recompose_one_way(protocol)
            continue
        assert _typed(recompose_one_way(protocol).probs) == recomposed


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
