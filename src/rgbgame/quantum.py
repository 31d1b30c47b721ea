"""Projective qubit strategies for the colour game.

Each party measures one half of a shared two-qubit state with a projector
assigned to the colour they were given, then answers colour+1 on the
"positive" outcome (projector fires) and colour-1 on the "negative" one.
With the singlet state and the three trine projectors (Bloch angles 0 and
+-120 degrees in the x-z plane) this wins with probability 11/12.

Tensor products put Alice's factor first.  The simulation is float, for
arbitrary angles; the trine point itself is derived exactly by
``bell.trine_table``.  ``reduce_to_binary`` and ``correlations_from_table``
live in the numpy-free ``bell`` module and are re-exported here.

``quantum_strategy_table`` forms each party's six effects (P and I - P) and
their answers once per call, and each 4x4 product with the elementwise
multiply that ``np.kron`` uses, so its floats are those of per-cell
``np.kron`` code bit for bit.  The Born sums stay numpy matrix-vector and
vector-vector products: BLAS accumulates them in an order (fused
multiply-adds) that plain Python floats do not reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import (  # noqa: F401 (reduce_to_binary, correlations_from_table re-exported)
    ALGEBRA_TOL,
    correlations_from_table,
    cyclic_rule,
    reduce_to_binary,
)
from .strategies import StrategyTable, next_colour, prev_colour


def singlet() -> np.ndarray:
    """The two-qubit state (|01> - |10>) / sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


def projector_from_angle(degrees: float) -> np.ndarray:
    """Rank-1 projector onto the x-z plane Bloch direction at ``degrees``.

    The state is cos(theta/2)|0> + sin(theta/2)|1>, so 0 degrees is |0><0|
    and +-120 degrees are the other two trine directions.
    """
    half = math.radians(degrees) / 2
    ket = np.array([math.cos(half), math.sin(half)], dtype=complex)
    return np.outer(ket, ket.conj())


def trine_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three symmetric projectors: red 0, green -120, blue +120 degrees."""
    return (
        projector_from_angle(0.0),
        projector_from_angle(-120.0),
        projector_from_angle(120.0),
    )


@dataclass(frozen=True)
class QubitStrategy:
    """A per-colour projective measurement with an outcome-to-colour rule.

    ``projectors[c]`` is the 2x2 projector measured on colour c; outcome 1
    means it fired.  The rule must answer with a neighbouring colour (one of
    c-1, c+1 per outcome), which keeps the answer off the asked colour.
    """

    projectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    output_rule: Callable[[int, int], int] = cyclic_rule

    def __post_init__(self):
        if len(self.projectors) != 3:
            raise ValueError("need one projector per colour")
        for c, proj in enumerate(self.projectors):
            proj = np.asarray(proj, dtype=complex)
            if proj.shape != (2, 2):
                raise ValueError(f"projector for colour {c} is not 2x2")
            if not np.isfinite(proj).all():
                raise ValueError(f"projector for colour {c} has non-finite entries")
            if np.abs(proj - proj.conj().T).max() > ALGEBRA_TOL:
                raise ValueError(f"projector for colour {c} is not Hermitian")
            if np.abs(proj @ proj - proj).max() > ALGEBRA_TOL:
                raise ValueError(f"projector for colour {c} is not idempotent")
            if abs(np.trace(proj).real - 1) > ALGEBRA_TOL:
                raise ValueError(f"projector for colour {c} is not rank one")
        for c in range(3):
            answers = {self.output_rule(c, 0), self.output_rule(c, 1)}
            if answers != {prev_colour(c), next_colour(c)}:
                raise ValueError(
                    f"output rule for colour {c} must hit both neighbouring colours"
                )


def trine_strategy() -> QubitStrategy:
    """The optimal strategy: trine projectors with the cyclic outcome rule."""
    return QubitStrategy(trine_projectors())


def _check_effect(effect, side: str) -> np.ndarray:
    effect = np.asarray(effect, dtype=complex)
    if effect.shape != (2, 2):
        raise ValueError(f"{side} effect must be 2x2, got shape {effect.shape}")
    if np.abs(effect - effect.conj().T).max() > ALGEBRA_TOL:
        raise ValueError(f"{side} effect is not Hermitian")
    eigs = np.linalg.eigvalsh(effect)
    if eigs.min() < -ALGEBRA_TOL or eigs.max() > 1 + ALGEBRA_TOL:
        raise ValueError(f"{side} effect has eigenvalues outside [0, 1]: {eigs}")
    return effect


def _check_state(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (4,):
        raise ValueError(f"state must have 4 amplitudes, got {state.shape}")
    if abs(np.linalg.norm(state) - 1) > 1e-10:
        raise ValueError("state is not normalized")
    return state


def _born_prob(state: np.ndarray, effect_a, effect_b) -> float:
    # The kernel of joint_prob: the caller has validated all three, so only
    # rounding (within ALGEBRA_TOL) can leave [0, 1]; that much is clamped.
    # The 4x4 product is np.kron's own elementwise multiply, minus its overhead.
    product = (effect_a[:, None, :, None] * effect_b[None, :, None, :]).reshape(4, 4)
    value = float((state.conj() @ (product @ state)).real)
    if not abs(value - 0.5) <= 0.5 + ALGEBRA_TOL:
        raise ValueError(f"Born probability {value!r} lies outside [0, 1]")
    return min(1.0, max(0.0, value))


def joint_prob(state: np.ndarray, effect_a, effect_b) -> float:
    """<state| effect_a (x) effect_b |state>, clamped into [0, 1].

    Effects must be valid measurement operators (Hermitian, spectrum in
    [0, 1]); the state must be a normalized two-qubit vector.
    """
    state = _check_state(state)
    effect_a = _check_effect(effect_a, "Alice")
    effect_b = _check_effect(effect_b, "Bob")
    return _born_prob(state, effect_a, effect_b)


def quantum_strategy_table(
    state: np.ndarray, alice: QubitStrategy, bob: QubitStrategy
) -> StrategyTable:
    """The float-valued conditional table of a pair of qubit strategies.

    The state is checked once; the effects are the strategies' projectors,
    validated when the strategies were built, and their complements.
    """
    state = _check_state(state)
    identity = np.eye(2, dtype=complex)

    def effects(strategy):
        # Per colour, (answer, effect) for outcome 0 (I - P) and outcome 1 (P).
        return [
            [(strategy.output_rule(c, out), proj if out else identity - proj) for out in (0, 1)]
            for c, proj in enumerate(map(np.asarray, strategy.projectors))
        ]

    entries: dict[tuple[int, int, int, int], float] = {}
    bob_effects = effects(bob)
    for a, row_a in enumerate(effects(alice)):
        for b, row_b in enumerate(bob_effects):
            for x, effect_a in row_a:
                for y, effect_b in row_b:
                    entries[a, b, x, y] = _born_prob(state, effect_a, effect_b)
    return StrategyTable.from_function(
        (3, 3, 3, 3), lambda a, b, x, y: entries.get((a, b, x, y), 0.0)
    )
