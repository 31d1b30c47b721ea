"""Projective qubit strategies for the colour game.

Each party measures one half of a shared two-qubit state with a projector
assigned to the colour they were given, then answers colour+1 on the
"positive" outcome (projector fires) and colour-1 on the "negative" one.
With the singlet state and the three trine projectors (Bloch angles 0 and
+-120 degrees in the x-z plane) this wins with probability 11/12.

Tensor products put Alice's factor first.  All numerics are float; exact
arithmetic stays in the classical modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .strategies import StrategyTable, next_colour, prev_colour

ALGEBRA_TOL = 1e-12


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


def _cyclic_rule(colour: int, outcome: int) -> int:
    return next_colour(colour) if outcome else prev_colour(colour)


@dataclass(frozen=True)
class QubitStrategy:
    """A per-colour projective measurement with an outcome-to-colour rule.

    ``projectors[c]`` is the 2x2 projector measured on colour c; outcome 1
    means it fired.  The rule must answer with a neighbouring colour (one of
    c-1, c+1 per outcome), which keeps the answer off the asked colour.
    """

    projectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    output_rule: Callable[[int, int], int] = _cyclic_rule

    def __post_init__(self):
        if len(self.projectors) != 3:
            raise ValueError("need one projector per colour")
        for c, proj in enumerate(self.projectors):
            proj = np.asarray(proj, dtype=complex)
            if proj.shape != (2, 2):
                raise ValueError(f"projector for colour {c} is not 2x2")
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
    # The unchecked kernel of joint_prob: the caller has validated all three.
    value = (state.conj() @ (np.kron(effect_a, effect_b) @ state)).real
    return min(1.0, max(0.0, float(value)))


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
    entries: dict[tuple[int, int, int, int], float] = {}
    for a in range(3):
        for b in range(3):
            for out_a in (0, 1):
                effect_a = alice.projectors[a] if out_a else identity - alice.projectors[a]
                for out_b in (0, 1):
                    effect_b = bob.projectors[b] if out_b else identity - bob.projectors[b]
                    x = alice.output_rule(a, out_a)
                    y = bob.output_rule(b, out_b)
                    key = (a, b, x, y)
                    entries[key] = entries.get(key, 0.0) + _born_prob(
                        state, effect_a, effect_b
                    )
    return StrategyTable.from_function(
        (3, 3, 3, 3), lambda a, b, x, y: entries.get((a, b, x, y), 0.0)
    )


def reduce_to_binary(table: StrategyTable, atol: float = ALGEBRA_TOL) -> StrategyTable:
    """Relabel a never-plays-its-own-colour table onto binary outputs.

    Requires P(x = a | a, b) and P(y = b | a, b) to vanish (exactly for
    rational tables, within ``atol`` for float ones); then x = a - 1 maps to
    0 and x = a + 1 to 1, and likewise for y around b.  Float rows are
    renormalized afterwards, absorbing the at-most-``atol`` forbidden mass.
    """
    if table.shape != (3, 3, 3, 3):
        raise ValueError(f"expected colour alphabets (3,3,3,3), got {table.shape}")
    exact = table.is_exact
    for a in range(3):
        for b in range(3):
            own = sum(table.prob(a, b, a, y) for y in range(3)) + sum(
                table.prob(a, b, x, b) for x in range(3)
            )
            limit = 0 if exact else atol
            if own > limit:
                raise ValueError(
                    f"strategy plays a sure-losing colour on input ({a},{b}) "
                    f"with probability {own}"
                )

    def entry(a, b, x_bit, y_bit):
        x = next_colour(a) if x_bit else prev_colour(a)
        y = next_colour(b) if y_bit else prev_colour(b)
        return table.prob(a, b, x, y)

    reduced = {
        (a, b, xb, yb): entry(a, b, xb, yb)
        for a in range(3)
        for b in range(3)
        for xb in (0, 1)
        for yb in (0, 1)
    }
    if not exact:
        # Per-row renormalization absorbs the (at most atol) forbidden mass.
        for a in range(3):
            for b in range(3):
                total = sum(reduced[(a, b, xb, yb)] for xb in (0, 1) for yb in (0, 1))
                for xb in (0, 1):
                    for yb in (0, 1):
                        reduced[(a, b, xb, yb)] /= total
    return StrategyTable.from_function(
        (3, 3, 2, 2), lambda a, b, x, y: reduced[(a, b, x, y)]
    )


def correlations_from_table(binary_table: StrategyTable):
    """Per-input correlations <A_a B_b> = 2 P(x = y | a, b) - 1.

    Input must be a binary-output table over the 3x3 colour inputs.  Exact
    tables give exact correlations.
    """
    na, nb, nx, ny = binary_table.shape
    if (nx, ny) != (2, 2):
        raise ValueError(f"need binary outputs, got alphabets {(nx, ny)}")
    rows = []
    for a in range(na):
        row = []
        for b in range(nb):
            agree = binary_table.prob(a, b, 0, 0) + binary_table.prob(a, b, 1, 1)
            row.append(2 * agree - 1)
        rows.append(tuple(row))
    return tuple(rows)
