"""One number rule for every entry point that takes a probability, a weight
or a parameter: a rational is exact, a float stays a float, and anything
else (text included) is refused with a ValueError that names the argument.
Text is read only by the box and wiring files and by the CLI's options."""

import itertools
import operator
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import typed
from rgbgame.bell import GRAM_EXACT, is_positive_semidefinite, verify_primal
from rgbgame.locality import id_box
from rgbgame.quantum import projector_from_angle
from rgbgame.strategies import (
    Game,
    StrategyTable,
    WinningFamilyParams,
    mix,
    probability_to_string,
    rgb0,
    rgrb,
)
from rgbgame.wiring import noisy_composition_win, noisy_parity_survival, noisy_pr

F = Fraction


def _with_corner(matrix, value):
    rows = [list(row) for row in matrix]
    rows[0][0] = value
    return rows


#: Each entry point called with a number v and its complement w = 1 - v
#: (v <= 1/2), and the name its refusal gives; id_box, whose argument is an
#: alphabet size, is refused by the shape check.
ENTRY_POINTS = {
    "StrategyTable": (lambda v, w: StrategyTable((1, 1, 1, 2), (v, w)), "entry (0, 0, 0, 0)"),
    "from_function": (
        lambda v, w: StrategyTable.from_function((1, 1, 1, 2), lambda a, b, x, y: (v, w)[y]),
        "entry (0, 0, 0, 0)",
    ),
    "from_dict": (
        lambda v, w: StrategyTable.from_dict((1, 1, 1, 2), {(0, 0, 0, 0): v, (0, 0, 0, 1): w}),
        "entry (0, 0, 0, 0)",
    ),
    "mix": (lambda v, w: mix([rgrb(), rgb0()], [v, w]), "weight 0"),
    "Game": (
        lambda v, w: Game((1, 2, 1, 1), lambda a, b, x, y: True, {(0, 0): v, (0, 1): w}),
        "weight of input pair (0, 0)",
    ),
    "from_vector": (lambda v, w: WinningFamilyParams.from_vector([v] * 15), "p0"),
    "constant": (lambda v, w: WinningFamilyParams.constant(v), "value"),
    "noisy_pr": (lambda v, w: noisy_pr(v), "noise parameter p"),
    "noisy_composition_win": (lambda v, w: noisy_composition_win(v), "noise parameter p"),
    "noisy_parity_survival": (lambda v, w: noisy_parity_survival(v), "noise parameter p"),
    "id_box": (lambda v, w: id_box(v), None),
    "is_positive_semidefinite": (
        lambda v, w: is_positive_semidefinite([[v, 0], [0, w]]),
        "matrix entry (0, 0)",
    ),
    "verify_primal": (
        lambda v, w: verify_primal(_with_corner(GRAM_EXACT, v)),
        "primal candidate entry (0, 0)",
    ),
    "projector_from_angle": (lambda v, w: projector_from_angle(v), "angle"),
    "probability_to_string": (lambda v, w: probability_to_string(v), "probability"),
}

NOT_NUMBERS = ["1/2", "1", None, 0.5j, Decimal("0.5")]

#: A number v and its complement, of each kind a caller may pass.
NUMBERS = {
    "int": lambda: (0, 1),
    "bool": lambda: (False, True),
    "Fraction": lambda: (F(1, 2), F(1, 2)),
    "float": lambda: (0.5, 0.5),
    "numpy int64": lambda: tuple(map(pytest.importorskip("numpy").int64, (0, 1))),
    "numpy float64": lambda: tuple(map(pytest.importorskip("numpy").float64, (0.5, 0.5))),
}


def _values(result) -> tuple:
    """The numbers of a result, flat: a table's entries, a game's weights,
    a family's 15 parameters, a projector's four entries."""
    if isinstance(result, StrategyTable):
        return result.probs
    if isinstance(result, Game):
        return tuple(result.input_dist.values())
    if isinstance(result, WinningFamilyParams):
        return result.as_vector()
    if isinstance(result, tuple):
        return tuple(itertools.chain.from_iterable(map(_values, result)))
    return (result,)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_reads_numbers_by_one_rule(entry):
    call, name = ENTRY_POINTS[entry]
    for bad in NOT_NUMBERS:
        if name is None:
            message = f"alphabet sizes must be four integers, each at least 1, got {(bad,) * 4}"
        else:
            message = f"{name} is {bad!r}, not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad, F(1, 2))
    if name is None:
        return
    for kind, numbers in NUMBERS.items():
        v, w = numbers()
        values = _values(call(v, w))
        if entry in ("StrategyTable", "Game"):
            # The container keeps the numbers it was given, as given.
            assert all(map(operator.is_, values, (v, w))), kind
        elif isinstance(v, float):
            # A float stays a float: a float subclass gives the values of the float.
            assert values == _values(call(float(v), float(w))), kind
        else:
            # A rational is read as the Fraction of the same value.
            assert typed(values) == typed(_values(call(F(v), F(w)))), kind
