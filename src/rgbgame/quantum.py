"""Projective qubit strategies for the colour game.

Each party measures one half of a shared two-qubit state with a projector
assigned to the colour they were given, then answers colour+1 on the
"positive" outcome (projector fires) and colour-1 on the "negative" one.
With the singlet state and the three trine projectors (Bloch angles 0 and
+-120 degrees in the x-z plane) this wins with probability 11/12.

Tensor products put Alice's factor first.  The simulation is float, for
arbitrary angles; the trine point itself is derived exactly by
``bell.trine_table``.  ``reduce_to_binary`` and ``correlations_from_table``
live in the ``bell`` module; they are also re-exported here, because the
benchmark's workloads and tracer read them as ``quantum`` attributes.

States are four amplitudes and operators 2x2 rows, as nested sequences of
numbers (numpy arrays pass too); they are validated into Python ``complex``
tuples.  Each Born probability is tr(rho A (x) B): its terms are Python
complex products rho * (A_ij * B_kl), and ``math.fsum`` adds their real parts
with one rounding, so a table's floats do not depend on the host's BLAS or on
the order of a vector kernel.  Only the density matrix's nonzero entries are
summed (4 of 16 for the singlet): a zero entry adds an exact zero to that sum.
``projector_from_angle`` takes its cosine and sine from the platform's libm.
"""

from __future__ import annotations

import cmath
import functools
import math

from .bell import (  # noqa: F401 (re-exported: perfbench/ reads the two here)
    correlations_from_table,
    cyclic_rule,
    reduce_to_binary,
)
from .strategies import StrategyTable, _Frozen, _number

#: Float slack of the qubit algebra: Hermitian, idempotent, rank one, spectra
#: and Born probabilities.
ALGEBRA_TOL = 1e-12

#: A 2x2 operator as its two rows.
Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


def singlet() -> tuple[float, float, float, float]:
    """The two-qubit state (|01> - |10>) / sqrt(2)."""
    amplitude = 1 / math.sqrt(2)
    return (0.0, amplitude, -amplitude, 0.0)


def projector_from_angle(degrees: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Rank-1 projector onto the x-z plane Bloch direction at ``degrees``.

    The state is cos(theta/2)|0> + sin(theta/2)|1>, so 0 degrees is |0><0|
    and +-120 degrees are the other two trine directions.
    """
    if not math.isfinite(degrees := _number(degrees, "angle")):
        raise ValueError(f"angle must be finite, got {degrees!r}")
    half = math.radians(degrees) / 2
    c, s = math.cos(half), math.sin(half)
    return ((c * c, c * s), (c * s, s * s))


def trine_projectors():
    """The three symmetric projectors: red 0, green -120, blue +120 degrees."""
    return (
        projector_from_angle(0.0),
        projector_from_angle(-120.0),
        projector_from_angle(120.0),
    )


def _matrix(operator, what: str) -> Matrix:
    """``operator`` as two rows of finite Python complex numbers."""
    try:
        (a, b), (c, d) = rows = tuple(tuple(map(complex, row)) for row in operator)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not 2x2") from None
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError(f"{what} has non-finite entries")
    # |b - c*| = |c - b*|, so three entries of A - A^H give its largest.
    if max(abs(a - a.conjugate()), abs(b - c.conjugate()), abs(d - d.conjugate())) > ALGEBRA_TOL:
        raise ValueError(f"{what} is not Hermitian")
    return rows


class QubitStrategy(_Frozen):
    """A per-colour projective measurement, answered by ``cyclic_rule``.

    ``projectors[c]`` is the 2x2 projector measured on colour c; outcome 1
    means it fired and the answer is c+1, otherwise it is c-1.  Any other
    rule answering both neighbours of c is this one on the complement I - P.
    The projectors are stored as validated rows of Python complex numbers.
    Its tables are float, so the checks on them read them within
    ``FLOAT_ROW_TOL``.
    """

    __slots__ = ("projectors",)

    def __init__(self, projectors: tuple[Matrix, Matrix, Matrix]):
        try:
            red, green, blue = projectors
        except (TypeError, ValueError):
            raise ValueError("need one projector per colour") from None
        checked = []
        for c, proj in enumerate((red, green, blue)):
            (p00, p01), (p10, p11) = proj = _matrix(proj, f"projector for colour {c}")
            square = (p00 * p00 + p01 * p10, p00 * p01 + p01 * p11,
                      p10 * p00 + p11 * p10, p10 * p01 + p11 * p11)
            if max(abs(s - p) for s, p in zip(square, (p00, p01, p10, p11))) > ALGEBRA_TOL:
                raise ValueError(f"projector for colour {c} is not idempotent")
            if abs((p00 + p11).real - 1) > ALGEBRA_TOL:
                raise ValueError(f"projector for colour {c} is not rank one")
            checked.append(proj)
        super().__init__(tuple(checked))


@functools.cache
def trine_strategy() -> QubitStrategy:
    """The optimal strategy: the trine projectors, built once and shared."""
    return QubitStrategy(trine_projectors())


def _check_effect(effect, side: str) -> Matrix:
    rows = _matrix(effect, f"{side} effect")
    # The eigenvalues of a Hermitian [[a, b], [b*, d]]: (a+d)/2 -+ |((a-d)/2, b)|.
    a, d = rows[0][0].real, rows[1][1].real
    centre, radius = (a + d) / 2, math.hypot((a - d) / 2, abs(rows[0][1]))
    eigs = (centre - radius, centre + radius)
    if not (eigs[0] >= -ALGEBRA_TOL and eigs[1] <= 1 + ALGEBRA_TOL):
        raise ValueError(f"{side} effect has eigenvalues outside [0, 1]: {eigs}")
    return rows


def _check_state(state) -> tuple[complex, ...]:
    try:
        amplitudes = tuple(map(complex, state))
    except (TypeError, ValueError):
        amplitudes = ()
    if len(amplitudes) != 4:
        raise ValueError("state must be a sequence of 4 amplitudes")
    if not abs(math.hypot(*(abs(v) for v in amplitudes)) - 1) <= 1e-10:
        raise ValueError("state is not normalized")
    return amplitudes


def _density_terms(state) -> list[tuple[complex, int, int]]:
    """The nonzero rho = conj(state[r]) * state[c], row-major, as (rho, i, j):
    the kron entry (r, c) = (2 r_a + r_b, 2 c_a + c_b) of flattened effects A
    and B is A[i] * B[j], i = 2 r_a + c_a and j = 2 r_b + c_b."""
    return [
        (rho, 2 * (r >> 1) + (c >> 1), 2 * (r & 1) + (c & 1))
        for r, u in enumerate(state) for c, v in enumerate(state) if (rho := u.conjugate() * v)
    ]


def _born_sum(terms, effect_a, effect_b) -> float:
    # The kernel of joint_prob and of the table: the caller has validated the
    # state and both effects (flattened), so only rounding (within ALGEBRA_TOL)
    # can leave [0, 1]; that much is clamped.  fsum rounds the sum once.
    value = math.fsum([(rho * (effect_a[i] * effect_b[j])).real for rho, i, j in terms])
    if not abs(value - 0.5) <= 0.5 + ALGEBRA_TOL:
        raise ValueError(f"Born probability {value!r} lies outside [0, 1]")
    return min(1.0, max(0.0, value))


def _born_prob(state, effect_a, effect_b) -> float:
    """<state| effect_a (x) effect_b |state> for validated arguments."""
    return _born_sum(_density_terms(state), *((*e[0], *e[1]) for e in (effect_a, effect_b)))


def joint_prob(state, effect_a, effect_b) -> float:
    """<state| effect_a (x) effect_b |state>, clamped into [0, 1].

    Effects must be valid measurement operators (Hermitian, spectrum in
    [0, 1]); the state must be a normalized two-qubit vector.
    """
    state = _check_state(state)
    effect_a = _check_effect(effect_a, "Alice")
    effect_b = _check_effect(effect_b, "Bob")
    return _born_prob(state, effect_a, effect_b)


def quantum_strategy_table(state, alice: QubitStrategy, bob: QubitStrategy) -> StrategyTable:
    """The float-valued conditional table of a pair of qubit strategies.

    The state is checked once; the effects are the strategies' projectors,
    validated when the strategies were built, and their complements.
    """
    terms = _density_terms(_check_state(state))

    def effects(strategy):
        # Per colour, (answer, flattened effect) for outcome 0 (I - P) and 1 (P).
        return [
            [(cyclic_rule(c, 0), (1 - p00, 0 - p01, 0 - p10, 1 - p11)),
             (cyclic_rule(c, 1), (p00, p01, p10, p11))]
            for c, ((p00, p01), (p10, p11)) in enumerate(strategy.projectors)
        ]

    # Entry (a, b, x, y) at 27a + 9b + 3x + y; the other 45 of the 81 are zero.
    probs = [0.0] * 81
    bob_effects = effects(bob)
    for a, row_a in enumerate(effects(alice)):
        for b, row_b in enumerate(bob_effects):
            for x, effect_a in row_a:
                for y, effect_b in row_b:
                    probs[27 * a + 9 * b + 3 * x + y] = _born_sum(terms, effect_a, effect_b)
    return StrategyTable((3, 3, 3, 3), tuple(probs))
