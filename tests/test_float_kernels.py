"""The binary reduction and the float row check against the code they replaced.

``_cells_reduce_to_binary`` is ``bell.reduce_to_binary`` as it read before it
sliced rows out of ``probs`` and took the cyclic answers from a constant: one
``cells()`` read and four ``cyclic_rule`` calls per row.  ``_generator_row_check``
is ``StrategyTable``'s row check as it read before its float branch used
``map``, ``filter`` and ``min``/``max``: generators over each row.  The new
code must give the same values with the same types, and the same messages.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgbgame.bell import correlations_from_table, cyclic_rule, reduce_to_binary
from rgbgame.quantum import (
    QubitStrategy,
    projector_from_angle,
    quantum_strategy_table,
    singlet,
    trine_strategy,
)
from rgbgame.strategies import FLOAT_ROW_TOL, StrategyTable, _coerce, _numerators

from fractions import Fraction

F = Fraction


def _cells_reduce_to_binary(table):
    if table.shape != (3, 3, 3, 3):
        raise ValueError(f"expected colour alphabets (3,3,3,3), got {table.shape}")
    slack = table._slack()
    probs = []
    for a, b in table.inputs():
        row = table.cells(a, b)
        own = sum(row[3 * a : 3 * a + 3]) + sum(row[b::3])
        if own > slack:
            raise ValueError(
                f"strategy plays a sure-losing colour on input ({a},{b}) "
                f"with probability {own}"
            )
        kept = [
            row[3 * cyclic_rule(a, xb) + cyclic_rule(b, yb)] for xb in (0, 1) for yb in (0, 1)
        ]
        if slack:
            total = sum(kept)
            kept = [p / total for p in kept]
        probs += map(_coerce, kept)
    return StrategyTable((3, 3, 2, 2), tuple(probs))


def _generator_row_check(shape, probs):
    """The first message of the row check, or None; exact rows on integer
    numerators, float rows through generators."""
    na, nb, nx, ny = shape
    exact = None if any(isinstance(p, float) for p in probs) else _numerators(probs)
    n = nx * ny
    for k, (a, b) in enumerate(itertools.product(range(na), range(nb))):
        if exact:
            nums, den = exact
            row = nums[k * n : (k + 1) * n]
            if sum(row) != den:
                return f"row ({a},{b}) sums to {Fraction(sum(row), den)}, not 1"
            if min(row) < 0 or max(row) > den:
                return f"row ({a},{b}) has an entry outside [0,1]"
        else:
            row = probs[k * n : (k + 1) * n]
            if not all(math.isfinite(p) for p in row):
                return f"row ({a},{b}) has a non-finite entry"
            total = sum(p for p in row if p != 0)
            if abs(total - 1) > FLOAT_ROW_TOL:
                return f"row ({a},{b}) sums to {total!r}, not 1"
            if any(p < -1e-12 or p > 1 + 1e-9 for p in row):
                return f"row ({a},{b}) has an entry outside [0,1]"
    return None


def _typed(values):
    """Each value with its type, floats by their exact bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


#: Own-colour mass moved into a row: none, rounding-sized, just below and just
#: above the float tolerance, and far above it.
_OWN_MASS = st.sampled_from(
    [0.0, 1e-14, FLOAT_ROW_TOL * (1 - 1e-6), FLOAT_ROW_TOL, FLOAT_ROW_TOL * (1 + 1e-6), 1e-3]
)
_INPUTS = list(itertools.product(range(3), range(3)))


@st.composite
def qubit_tables(draw):
    """Qubit tables at random angles, with own-colour mass moved into some
    rows from their largest cyclic answer, so that a row still sums to 1
    within rounding."""
    angles = draw(st.lists(st.floats(-360.0, 360.0), min_size=6, max_size=6))
    alice, bob = (
        QubitStrategy(tuple(projector_from_angle(t) for t in part))
        for part in (angles[:3], angles[3:])
    )
    probs = list(quantum_strategy_table(singlet(), alice, bob).probs)
    for a, b in draw(st.sets(st.sampled_from(_INPUTS))):
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
def exact_tables(draw):
    """Exact tables on the cyclic answers, with own-colour mass in some rows."""
    probs = []
    for a, b in _INPUTS:
        weights = draw(st.lists(st.integers(0, 4), min_size=9, max_size=9))
        own = [3 * a + y for y in range(3)] + [3 * x + b for x in range(3)]
        if draw(st.booleans()):
            weights = [0 if i in own else w for i, w in enumerate(weights)]
        if not any(weights):
            weights[3 * cyclic_rule(a, 0) + cyclic_rule(b, 1)] = 1
        probs += [F(w, sum(weights)) for w in weights]
    return StrategyTable((3, 3, 3, 3), tuple(probs))


@settings(max_examples=200, deadline=None)
@given(st.one_of(qubit_tables(), exact_tables()))
def test_reduction_matches_the_cells_code(table):
    got = _outcome(reduce_to_binary, table)
    expected = _outcome(_cells_reduce_to_binary, table)
    if isinstance(expected, str):
        assert got == expected
        return
    assert _typed(got.probs) == _typed(expected.probs)
    assert got.is_exact == expected.is_exact
    assert [_typed(row) for row in correlations_from_table(got)] == [
        _typed(row) for row in correlations_from_table(expected)
    ]


def test_the_reduction_refuses_own_colour_mass_just_above_the_tolerance():
    trine = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    for mass, refused in ((FLOAT_ROW_TOL * (1 - 1e-6), False), (FLOAT_ROW_TOL * (1 + 1e-6), True)):
        probs = list(trine.probs)
        # On input (1, 1) Alice answers her own colour, and (0, 2) loses mass.
        probs[27 + 9 + 3 * 1 + 0] += mass
        probs[27 + 9 + 3 * 0 + 2] -= mass
        table = StrategyTable((3, 3, 3, 3), tuple(probs))
        got, expected = _outcome(reduce_to_binary, table), _outcome(_cells_reduce_to_binary, table)
        assert isinstance(got, str) == refused
        assert (got if refused else _typed(got.probs)) == (
            expected if refused else _typed(expected.probs)
        )


#: Ways to break one float row: none, all zeros, a non-finite entry, a
#: small negative entry, or a sum just outside the tolerance.
_FAULTS = st.sampled_from(
    ["none"] * 4 + ["zeros", "nan", "inf", "-inf", "negative", "slack", "over"]
)


@st.composite
def float_rows(draw):
    """Nine floats summing to 1, or broken by one fault."""
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)))
    row = [hi - lo for lo, hi in zip([0.0] + cuts, cuts + [1.0])]
    i = draw(st.integers(0, 8))
    fault = draw(_FAULTS)
    if fault == "zeros":
        row = [draw(st.sampled_from([0.0, -0.0])) for _ in row]
    elif fault in ("nan", "inf", "-inf"):
        row[i] = float(fault)
    elif fault == "negative":
        row[i] = -1e-11
    elif fault == "slack":
        row[i] += draw(st.sampled_from([1e-10, -1e-10, 2e-9, -2e-9, 1e-6, -1e-13]))
    elif fault == "over":
        row[i] = 1 + 2e-9
    return row


@st.composite
def row_check_tables(draw):
    """3x3x3x3 probability tuples: float rows with faults, exact rows, or a mix."""
    kind = draw(st.sampled_from(["float", "exact", "mixed"]))
    probs = []
    for _ in _INPUTS:
        if kind == "float" or (kind == "mixed" and draw(st.booleans())):
            probs += draw(float_rows())
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=9, max_size=9))
            total = sum(weights) or 1
            probs += [F(w, total) for w in weights]
    return tuple(probs)


@settings(max_examples=400, deadline=None)
@given(row_check_tables())
def test_row_check_matches_the_generator_code(probs):
    expected = _generator_row_check((3, 3, 3, 3), probs)
    try:
        table = StrategyTable((3, 3, 3, 3), probs)
    except ValueError as err:
        assert str(err) == expected
        return
    assert expected is None
    assert _typed(table.probs) == _typed(probs)
    assert table.is_exact == (not any(isinstance(p, float) for p in probs))


@pytest.mark.parametrize(
    "row, message",
    [
        ([0.0] * 9, "sums to 0, not 1"),
        ([-0.0] * 9, "sums to 0, not 1"),
        ([math.nan] + [0.0] * 8, "has a non-finite entry"),
        ([1.0, math.inf] + [0.0] * 7, "has a non-finite entry"),
        ([1.0, -math.inf] + [0.0] * 7, "has a non-finite entry"),
        ([1.0 + 1e-11, -1e-11] + [0.0] * 7, "has an entry outside [0,1]"),
    ],
)
def test_float_row_messages(row, message):
    # The first row is broken and the other eight put mass 1 on one cell.
    probs = tuple(row) + ((1.0,) + (0.0,) * 8) * 8
    assert _generator_row_check((3, 3, 3, 3), probs) == f"row (0,0) {message}"
    with pytest.raises(ValueError) as refusal:
        StrategyTable((3, 3, 3, 3), probs)
    assert str(refusal.value) == f"row (0,0) {message}"
