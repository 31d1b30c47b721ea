"""The Bell functional of the colour game and its quantum bound certificate.

For binary-reduced strategies the game's winning probability depends only on
the nine correlations c[a][b] = <A_a B_b>, through

    win = (1/36) * sum_i (8 - 2 c[i][i] + c[i][i+1] + c[i][i-1]),

so maximizing the win maximizes R = |sum_i (-2 c[i][i] + c[i][i+1] +
c[i][i-1])| = 36 win - 24.  Deterministic strategies reach R = 8, quantum
ones R = 9, and general no-signalling boxes R = 12.

The quantum value is certified by a matching semidefinite primal/dual pair:
a Gram matrix of six unit vectors attaining 9, and diagonal multipliers
making the dual slack matrix positive semidefinite at value 9.  Eigenvalues
are computed with a cyclic Jacobi sweep (exact enough at dimension 6 that
the certificates close to 1e-9).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .strategies import StrategyTable, next_colour, prev_colour

#: Feasibility slack for certificate checks.
CERT_TOL = 1e-9

#: Target off-diagonal Frobenius norm for the eigensolver.
JACOBI_OFF_TOL = 1e-13


class CertificationError(ArithmeticError):
    """A claimed optimality certificate failed verification."""


# ---------------------------------------------------------------------------
# the Bell functional


def _bell_row(rows, i):
    """Term i of the functional: -2 rows[i] + rows[i+1] + rows[i-1].

    ``rows`` is one correlation row c[i] (scalars) or one party's three unit
    vectors (numpy rows).  The float outputs of the CLI depend on this exact
    evaluation order.
    """
    return -2 * rows[i] + rows[next_colour(i)] + rows[prev_colour(i)]


def _signed_bell(correlations):
    return sum(_bell_row(correlations[i], i) for i in range(3))


def bell_quantity(correlations):
    """|sum_i (-2 c[i][i] + c[i][i+1] + c[i][i-1])| for a 3x3 correlation matrix.

    Exact on Fraction entries, float on floats.
    """
    return abs(_signed_bell(correlations))


def win_from_correlations(correlations):
    """Winning probability determined by correlations alone (signed form)."""
    total = 24 + _signed_bell(correlations)
    if isinstance(total, float):
        return total / 36
    return Fraction(total, 36)


def lemma1_win(binary_table: StrategyTable):
    """Winning probability of a binary-reduced table from agreement rates only.

    Uses win = (1/9) sum_u [2 - p(x=y|u,u) + p(x=y|u,u+1)/2 + p(x=y|u,u-1)/2],
    valid for no-signalling tables (marginal terms cancel).
    """
    if binary_table.shape != (3, 3, 2, 2):
        raise ValueError(f"expected shape (3,3,2,2), got {binary_table.shape}")

    agree = [
        [binary_table.prob(a, b, 0, 0) + binary_table.prob(a, b, 1, 1) for b in range(3)]
        for a in range(3)
    ]
    return sum(2 + _bell_row(agree[u], u) / 2 for u in range(3)) / 9


def deterministic_bell_maximum() -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact maximum of the Bell functional over deterministic binary strategies.

    Sweeps all 8 x 8 assignments of one bit per colour; the correlations of
    such a pair are c[a][b] = +1 where the bits agree, -1 where they differ.
    Maximizes the signed functional (the quantity that win probabilities
    translate into), so 36*win - 24 equals the reported value at the witness.
    Returns the maximum (8) with the first assignment pair attaining it.
    """
    best = None
    witness = None
    for f in itertools.product((0, 1), repeat=3):
        for g in itertools.product((0, 1), repeat=3):
            corr = [[1 if f[a] == g[b] else -1 for b in range(3)] for a in range(3)]
            value = _signed_bell(corr)
            if best is None or value > best:
                best, witness = value, (f, g)
    return best, witness


# ---------------------------------------------------------------------------
# certificate data


def w_matrix() -> np.ndarray:
    """The 6x6 Bell objective matrix: R = (1/2) tr(G W) on Gram matrices G.

    Zero diagonal blocks; each off-diagonal block couples x_i to y_j with
    weight -2 on the diagonal and +1 elsewhere.
    """
    block = np.array([_bell_row(np.eye(3), i) for i in range(3)])
    w = np.zeros((6, 6))
    w[:3, 3:] = block
    w[3:, :3] = block.T
    return w


def optimal_gram() -> np.ndarray:
    """The rank-2 Gram matrix attaining the quantum value 9.

    Realized by three unit vectors at mutual angle 120 degrees for Alice and
    their negatives for Bob, so x_i . x_j = y_i . y_j = -1/2 off the diagonal
    and x_i . y_j is -1 on the diagonal and +1/2 off it.
    """
    same = np.full((3, 3), -0.5)
    np.fill_diagonal(same, 1.0)
    cross = np.full((3, 3), 0.5)
    np.fill_diagonal(cross, -1.0)
    gram = np.zeros((6, 6))
    gram[:3, :3] = same
    gram[3:, 3:] = same
    gram[:3, 3:] = cross
    gram[3:, :3] = cross.T
    return gram


def optimal_multipliers() -> np.ndarray:
    """Diagonal dual multipliers closing the certificate: (3/2) I."""
    return 1.5 * np.eye(6)


def gram_from_vectors(vectors) -> np.ndarray:
    """Gram matrix of six unit vectors (Alice's three rows, then Bob's)."""
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != 6:
        raise ValueError(f"need exactly 6 vectors, got array of shape {rows.shape}")
    norms = np.linalg.norm(rows, axis=1)
    if np.abs(norms - 1).max() > CERT_TOL:
        raise ValueError(f"vectors must be unit norm, got norms {norms}")
    return rows @ rows.T


# ---------------------------------------------------------------------------
# eigenvalues


def sym_eigenvalues(matrix, off_tol: float = JACOBI_OFF_TOL) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix, descending, via cyclic Jacobi.

    Rotations run in sweeps until the off-diagonal Frobenius norm drops
    below ``off_tol``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2
    n = a.shape[0]
    skip = off_tol / max(n, 2)
    for _ in range(100):
        # summed from the off-diagonal entries themselves: subtracting the
        # diagonal mass from the full Frobenius norm cancels to rounding noise
        # far above off_tol once the matrix is nearly diagonal
        off_part = a - np.diag(np.diag(a))
        off = math.sqrt(float((off_part * off_part).sum()))
        if off < off_tol:
            return tuple(sorted((float(v) for v in np.diag(a)), reverse=True))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
    raise ArithmeticError("Jacobi iteration did not reach the target accuracy")


# ---------------------------------------------------------------------------
# primal / dual verification


def verify_primal(gram) -> tuple[float, bool]:
    """Objective value (1/2) tr(G W) and feasibility of a candidate Gram matrix.

    Feasible means: symmetric 6x6, minimum eigenvalue >= -1e-9, and every
    diagonal entry within 1e-9 of 1.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (6, 6):
        raise ValueError(f"primal candidate must be 6x6, got {gram.shape}")
    value = 0.5 * float(np.trace(gram @ w_matrix()))
    eigenvalues = sym_eigenvalues(gram)
    feasible = (
        eigenvalues[-1] >= -CERT_TOL
        and np.abs(np.diag(gram) - 1).max() <= CERT_TOL
    )
    return value, feasible


def verify_dual(multipliers) -> tuple[float, bool]:
    """Dual value tr(Lambda) and feasibility of diagonal multipliers.

    Feasible means the slack matrix -(1/2) W + Lambda is positive
    semidefinite (minimum eigenvalue >= -1e-9).
    """
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (6, 6):
        raise ValueError(f"dual candidate must be 6x6, got {lam.shape}")
    if np.abs(lam - np.diag(np.diag(lam))).max() > 1e-12:
        raise ValueError("dual multipliers must be a diagonal matrix")
    slack = -0.5 * w_matrix() + lam
    eigenvalues = sym_eigenvalues(slack)
    return float(np.trace(lam)), eigenvalues[-1] >= -CERT_TOL


@dataclass(frozen=True)
class CertificateReport:
    """Matched primal/dual evidence that the quantum value of R is 9."""

    primal_value: float
    dual_value: float
    gap: float
    primal_eigenvalues: tuple[float, ...]
    dual_slack_eigenvalues: tuple[float, ...]
    bound: float
    implied_win_bound: float

    def to_json_dict(self) -> dict:
        return {
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "primal_eigenvalues": list(self.primal_eigenvalues),
            "dual_slack_eigenvalues": list(self.dual_slack_eigenvalues),
            "bound": self.bound,
            "implied_win_bound": self.implied_win_bound,
        }


def certify_quantum_bound(tol: float = CERT_TOL) -> CertificateReport:
    """Verify the matching primal/dual pair at value 9 and report it.

    Any feasibility failure or a primal/dual gap beyond ``tol`` raises
    CertificationError: the certificate is recomputed, never assumed.
    """
    gram = optimal_gram()
    lam = optimal_multipliers()
    primal_value, primal_ok = verify_primal(gram)
    dual_value, dual_ok = verify_dual(lam)
    gap = abs(dual_value - primal_value)
    if not primal_ok:
        raise CertificationError("primal candidate is infeasible")
    if not dual_ok:
        raise CertificationError("dual multipliers leave a negative slack eigenvalue")
    if gap > tol:
        raise CertificationError(f"primal/dual gap {gap} exceeds {tol}")
    bound = dual_value
    return CertificateReport(
        primal_value=primal_value,
        dual_value=dual_value,
        gap=gap,
        primal_eigenvalues=sym_eigenvalues(gram),
        dual_slack_eigenvalues=sym_eigenvalues(-0.5 * w_matrix() + lam),
        bound=bound,
        implied_win_bound=(bound + 24) / 36,
    )


# ---------------------------------------------------------------------------
# variational search


@dataclass(frozen=True, eq=False)
class VectorStrategy:
    """Unit vector triples (Alice rows, Bob rows) representing correlations
    c[a][b] = alice[a] . bob[b]."""

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for name, rows in (("alice", self.alice), ("bob", self.bob)):
            if rows.shape[0] != 3 or rows.ndim != 2:
                raise ValueError(f"{name} must hold 3 row vectors")
            if np.abs(np.linalg.norm(rows, axis=1) - 1).max() > 1e-12:
                raise ValueError(f"{name} rows must be unit vectors")

    def correlations(self) -> tuple:
        return tuple(
            tuple(float(self.alice[a] @ self.bob[b]) for b in range(3))
            for a in range(3)
        )


@dataclass(frozen=True, eq=False)
class AscentResult:
    """Best restart of the alternating ascent, with its per-sweep objectives."""

    value: float
    strategy: VectorStrategy
    sweep_values: tuple[float, ...]


def _objective(xs, ys) -> float:
    total = 0.0
    for i in range(3):
        total += float(xs[i] @ _bell_row(ys, i))
    return total


def _unit(vector, rng) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    while norm < 1e-15:
        # Degenerate update direction: re-seed this vector from the stream.
        vector = rng.standard_normal(vector.shape[0])
        norm = float(np.linalg.norm(vector))
    return vector / norm


def alternating_ascent(
    seed: int,
    restarts: int = 20,
    dim: int = 6,
    max_sweeps: int = 10_000,
    min_gain: float = 1e-12,
) -> AscentResult:
    """Seeded block-coordinate maximization of the signed Bell objective.

    Each sweep replaces every Alice vector with the normalized combination
    -2 y_i + y_{i+1} + y_{i-1} of Bob's, then symmetrically for Bob; both
    half-steps maximize the objective exactly, so sweeps are monotone.
    Restart k uses generator seed ``seed + k``; the best restart wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    best: AscentResult | None = None
    for k in range(restarts):
        rng = np.random.default_rng(seed + k)
        xs = [_unit(rng.standard_normal(dim), rng) for _ in range(3)]
        ys = [_unit(rng.standard_normal(dim), rng) for _ in range(3)]
        values = [_objective(xs, ys)]
        for _ in range(max_sweeps):
            for i in range(3):
                xs[i] = _unit(_bell_row(ys, i), rng)
            for j in range(3):
                ys[j] = _unit(_bell_row(xs, j), rng)
            values.append(_objective(xs, ys))
            if values[-1] - values[-2] < min_gain:
                break
        candidate = AscentResult(
            value=values[-1],
            strategy=VectorStrategy(np.vstack(xs), np.vstack(ys)),
            sweep_values=tuple(values),
        )
        if best is None or candidate.value > best.value:
            best = candidate
    return best
