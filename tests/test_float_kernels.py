"""Float rows at the edges of the float tolerance, against the references.

The binary reduction refuses a row whose own-colour mass is just above
``FLOAT_ROW_TOL`` and reduces one just below it, as
``oracles.reference_reduce_to_binary`` does; the row check gives each float
fault the message of ``oracles.reference_row_check``.
"""

import math

import pytest

from oracles import outcome, reference_reduce_to_binary, reference_row_check
from rgbgame.bell import reduce_to_binary
from rgbgame.quantum import quantum_strategy_table, singlet, trine_strategy
from rgbgame.strategies import FLOAT_ROW_TOL, StrategyTable


def test_the_reduction_refuses_own_colour_mass_just_above_the_tolerance():
    trine = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    for mass, refused in ((FLOAT_ROW_TOL * (1 - 1e-6), False), (FLOAT_ROW_TOL * (1 + 1e-6), True)):
        probs = list(trine.probs)
        # On input (1, 1) Alice answers her own colour, and (0, 2) loses mass.
        probs[27 + 9 + 3 * 1 + 0] += mass
        probs[27 + 9 + 3 * 0 + 2] -= mass
        table = StrategyTable((3, 3, 3, 3), tuple(probs))
        got = outcome(reduce_to_binary, table)
        assert got == outcome(reference_reduce_to_binary, table)
        assert (got[0] is ValueError) == refused


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
    assert reference_row_check((3, 3, 3, 3), probs) == f"row (0,0) {message}"
    with pytest.raises(ValueError) as refusal:
        StrategyTable((3, 3, 3, 3), probs)
    assert str(refusal.value) == f"row (0,0) {message}"
