"""The Bell functional of the colour game and its quantum bound certificate.

For binary-reduced strategies the game's winning probability depends only on
the nine correlations c[a][b] = <A_a B_b>, through

    win = (1/36) * sum_i (8 - 2 c[i][i] + c[i][i+1] + c[i][i-1]),

so maximizing the win maximizes R = |sum_i (-2 c[i][i] + c[i][i+1] +
c[i][i-1])| = 36 win - 24.  Deterministic strategies reach R = 8, found by
the same best-response search as ``local_bound``; quantum ones reach R = 9,
and general no-signalling boxes R = 12.

The quantum point is checked exactly.  The trine strategy's table is derived
in Q(sqrt 3) from its kets and the singlet, and wins 11/12.  Its optimality
is certified by a matching semidefinite primal/dual pair with rational
entries: a Gram matrix of six unit vectors attaining 9, and diagonal
multipliers making the dual slack matrix positive semidefinite at value 9.
The matrices are ``W_EXACT``, ``GRAM_EXACT`` and ``MULTIPLIERS_EXACT``.
Certificate checks are exact only: feasibility is decided by LDL^T over
Fractions, a float entry read at its exact binary value, so a candidate
feasible only up to rounding is infeasible.  Eigenvalues from a cyclic
Jacobi sweep in plain floats are reported as a cross-check.

The float layer is plain Python.  A dot product is ``math.fsum`` over the
rounded coordinate products, so its one rounding does not depend on a
summation order.  A norm is ``math.hypot``, CPython's own algorithm (within
1 ulp, not guaranteed correctly rounded).  The ascent's start vectors come
from ``random.Random``, whose sequence Python keeps stable across versions.
``sdp-optimize`` prints these floats to the last digit, and they do not
depend on the host's BLAS.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
from fractions import Fraction

from .strategies import (
    StrategyTable,
    _best_response,
    _coerce,
    _Frozen,
    _is_int,
    next_colour,
    prev_colour,
)

#: Target off-diagonal Frobenius norm for the eigensolver.
JACOBI_OFF_TOL = 1e-13


class CertificationError(ArithmeticError):
    """A claimed optimality certificate failed verification."""


# ---------------------------------------------------------------------------
# the Bell functional


def _bell_terms(own, after, before):
    """The functional's coefficients: -2 own + after + before.

    The float outputs of the CLI depend on this exact evaluation order.
    """
    return -2 * own + after + before


def _bell_row(rows, i):
    """Term i of the functional: -2 rows[i] + rows[i+1] + rows[i-1].

    ``rows`` is one correlation row c[i], or any three scalars in colour order.
    """
    return _bell_terms(rows[i], rows[next_colour(i)], rows[prev_colour(i)])


def _signed_bell(correlations):
    return sum(_bell_row(correlations[i], i) for i in range(3))


def bell_quantity(correlations):
    """|sum_i (-2 c[i][i] + c[i][i+1] + c[i][i-1])| for a 3x3 correlation matrix.

    Exact on Fraction entries, float on floats.
    """
    return abs(_signed_bell(correlations))


def _win(value):
    """The winning probability (24 + R) / 36 of a signed Bell value R."""
    total = 24 + value
    return total / 36 if isinstance(total, float) else Fraction(total, 36)


def win_from_correlations(correlations):
    """Winning probability determined by correlations alone (signed form).

    Holds only for correlations of a no-signalling binary table, whose
    marginal terms cancel; ``lemma1_win`` checks that on a table.
    """
    return _win(_signed_bell(correlations))


def lemma1_win(binary_table: StrategyTable):
    """Winning probability of a binary-reduced table from its correlations.

    On no-signalling tables this is the agreement form (1/9) sum_u [2 -
    p(x=y|u,u) + p(x=y|u,u+1)/2 + p(x=y|u,u-1)/2], since the functional's
    coefficients sum to 0.  A signalling table raises ValueError naming the
    witness (checked exactly on exact tables, within ``FLOAT_ROW_TOL`` on
    float ones): its correlations do not determine its win.
    """
    from .locality import is_no_signalling

    if binary_table.shape != (3, 3, 2, 2):
        raise ValueError(f"expected shape (3,3,2,2), got {binary_table.shape}")
    ok, witness = is_no_signalling(binary_table)
    if not ok:
        raise ValueError(f"table signals, so its correlations do not give its win: {witness}")
    return win_from_correlations(correlations_from_table(binary_table))


def deterministic_bell_maximum() -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact maximum of the signed functional over deterministic binary strategies.

    A deterministic pair's correlations c_ab are +-1, so answers (x, y) to
    (a, b) pay the coefficient of c_ab in ``W_EXACT``, negated if x != y.
    The colour game's 36 win - 24 equals the maximum at the witness: the
    first pair of assignments of one bit per colour that attains it (R = 8).
    """
    gain = [
        [[int(c) * (1 if x == y else -1) for c in row[3:] for y in (0, 1)] for x in (0, 1)]
        for row in W_EXACT[:3]
    ]
    value, f, g = _best_response(gain, 2)
    return value, (f, g)


# ---------------------------------------------------------------------------
# binary reduction of cyclic-answer tables


def cyclic_rule(colour: int, outcome: int) -> int:
    """The cyclic answer: colour+1 on outcome 1, colour-1 on outcome 0."""
    return next_colour(colour) if outcome else prev_colour(colour)


#: Per input pair (a, b), row-major: a, b and the pick of the row's four cyclic answers.
_CYCLIC_CELLS = [
    (a, b, operator.itemgetter(*(3 * cyclic_rule(a, xb) + cyclic_rule(b, yb)
                                 for xb in (0, 1) for yb in (0, 1))))
    for a, b in itertools.product(range(3), range(3))
]


def reduce_to_binary(table: StrategyTable) -> StrategyTable:
    """Relabel a never-plays-its-own-colour table onto binary outputs.

    Requires P(x = a | a, b) and P(y = b | a, b) to vanish (exactly for
    exact tables, within ``FLOAT_ROW_TOL`` for float ones); then x = a - 1
    maps to 0 and x = a + 1 to 1, and likewise for y around b.  Float rows
    are renormalized afterwards, absorbing that forbidden mass.
    """
    if table.shape != (3, 3, 3, 3):
        raise ValueError(f"expected colour alphabets (3,3,3,3), got {table.shape}")
    slack = table._slack()
    entries, probs = table.probs, []
    for k, (a, b, pick) in enumerate(_CYCLIC_CELLS):
        row = entries[9 * k : 9 * k + 9]
        own = sum(row[3 * a : 3 * a + 3]) + sum(row[b::3])
        if own > slack:
            raise ValueError(
                f"strategy plays a sure-losing colour on input ({a},{b}) "
                f"with probability {own}"
            )
        kept = pick(row)
        if slack:
            total = sum(kept)
            kept = [p / total for p in kept]
        probs += map(_coerce, kept)
    return StrategyTable((3, 3, 2, 2), tuple(probs))


def correlations_from_table(binary_table: StrategyTable):
    """Per-input correlations <A_a B_b> = 2 P(x = y | a, b) - 1.

    Input must be a binary-output table over the 3x3 colour inputs.  Exact
    tables give exact correlations.
    """
    na, nb, nx, ny = binary_table.shape
    if (nx, ny) != (2, 2):
        raise ValueError(f"need binary outputs, got alphabets {(nx, ny)}")
    # Row (a, b) is probs[4k : 4k + 4] with k = a * nb + b; x = y at 0 and 3.
    probs = binary_table.probs
    return tuple(
        tuple([2 * (probs[k] + probs[k + 3]) - 1 for k in range(4 * nb * a, 4 * nb * (a + 1), 4)])
        for a in range(na)
    )


# ---------------------------------------------------------------------------
# the trine strategy, exactly


class _QSqrt3:
    """The exact number a + b sqrt(3), for rational (int or Fraction) a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, other):
        return _QSqrt3(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _QSqrt3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __neg__(self):
        return _QSqrt3(-self.a, -self.b)

    def rational(self) -> Fraction:
        if self.b:
            raise ArithmeticError(f"{self.a} + {self.b} sqrt(3) is irrational")
        return Fraction(self.a)


def _dot(u, v) -> _QSqrt3:
    return sum((s * t for s, t in zip(u, v)), _QSqrt3(0))


#: The kets cos(t/2)|0> + sin(t/2)|1> of the trine projectors at the Bloch
#: angles t = 0, -120 and +120 degrees (red, green, blue): (1, 0) and
#: (1/2, -+sqrt(3)/2), the last two scaled by 2 to integer coordinates.
_TRINE_KETS = (
    (_QSqrt3(1), _QSqrt3(0)),
    (_QSqrt3(1), _QSqrt3(0, -1)),
    (_QSqrt3(1), _QSqrt3(0, 1)),
)

#: The singlet |01> - |10>, unnormalised (its norm squared is 2).
_SINGLET = tuple(_QSqrt3(v) for v in (0, 1, -1, 0))


def trine_table() -> StrategyTable:
    """The table of the trine strategy on the singlet, exactly: it wins 11/12.

    On colour c a party measures the projector onto trine ket k; when it
    fires the effect projects onto k, otherwise onto k' = (-k1, k0).  With
    unnormalised kets a joint outcome has probability
    <k_a (x) k_b | psi>^2 / (|k_a|^2 |k_b|^2 |psi|^2), and the answers
    follow ``cyclic_rule``.  Every number lies in Q(sqrt 3); the sqrt(3)
    part of each probability must cancel, and does.
    """

    def effect_ket(colour, outcome):
        k0, k1 = _TRINE_KETS[colour]
        return (k0, k1) if outcome else (-k1, k0)

    norm2 = _dot(_SINGLET, _SINGLET).rational()
    entries: dict[tuple[int, int, int, int], Fraction] = {}
    for a, b, out_a, out_b in itertools.product(range(3), range(3), (0, 1), (0, 1)):
        u, v = effect_ket(a, out_a), effect_ket(b, out_b)
        # Alice's factor first, in the amplitude order |00>, |01>, |10>, |11>.
        amplitude = _dot([s * t for s in u for t in v], _SINGLET)
        weight = norm2 * _dot(u, u).rational() * _dot(v, v).rational()
        key = (a, b, cyclic_rule(a, out_a), cyclic_rule(b, out_b))
        entries[key] = entries.get(key, 0) + (amplitude * amplitude).rational() / weight
    return StrategyTable.from_dict((3, 3, 3, 3), entries)


# ---------------------------------------------------------------------------
# certificate data


def _blocks(diagonal, cross) -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric 6x6 matrix [[D, C], [C^T, D]] from 3x3 blocks D and C."""
    top = [[*diagonal[i], *cross[i]] for i in range(3)]
    bottom = [[*(cross[j][i] for j in range(3)), *diagonal[i]] for i in range(3)]
    return tuple(tuple(Fraction(v) for v in row) for row in top + bottom)


def _pattern(on_diagonal, off_diagonal):
    return [[on_diagonal if i == j else off_diagonal for j in range(3)] for i in range(3)]


#: The Bell objective matrix: R = (1/2) tr(G W) on Gram matrices G.  Zero
#: diagonal blocks; each off-diagonal block couples x_i to y_j with the
#: functional's coefficient of c[i][j], -2 on the diagonal and +1 elsewhere.
W_EXACT = _blocks(
    _pattern(0, 0),
    [[_bell_row([int(k == j) for k in range(3)], i) for j in range(3)] for i in range(3)],
)

#: The rank-2 Gram matrix attaining 9: three unit vectors at mutual angle
#: 120 degrees for Alice and their negatives for Bob, so x_i . x_j =
#: y_i . y_j = -1/2 off the diagonal and x_i . y_j is -1 on it, +1/2 off it.
GRAM_EXACT = _blocks(_pattern(1, Fraction(-1, 2)), _pattern(-1, Fraction(1, 2)))

#: The diagonal dual multipliers closing the certificate: (3/2) I.
MULTIPLIERS_EXACT = _blocks(_pattern(Fraction(3, 2), 0), _pattern(0, 0))


def _unit_rows(rows, count: int, what: str) -> tuple[tuple[float, ...], ...]:
    """``rows`` as ``count`` unit vectors of floats, all of one nonzero dimension.

    Anything else, including a scalar, a flat list or non-numeric entries,
    raises ValueError; so do norms further than 1e-12 from 1.
    """
    try:
        vectors = tuple(tuple(map(float, row)) for row in rows)
    except (TypeError, ValueError):
        vectors = ()
    if len(vectors) != count or len({len(v) for v in vectors}) != 1 or not vectors[0]:
        raise ValueError(f"{what}: need {count} vectors of one nonzero dimension")
    if not all(map(math.isfinite, itertools.chain.from_iterable(vectors))):
        raise ValueError(f"{what} has non-finite entries")
    norms = [math.hypot(*v) for v in vectors]
    if max(abs(n - 1) for n in norms) > 1e-12:
        raise ValueError(f"{what} rows must be unit vectors, got norms {norms}")
    return vectors


# ---------------------------------------------------------------------------
# positive semidefiniteness: exact LDL^T, float eigenvalues


def _fractions(matrix, what: str) -> list[list[Fraction]]:
    """Rows of Fractions, an int or Fraction as it is and any other real
    number at its exact binary value as a float.

    An entry that is not a real number (a string, None, a complex) raises
    ValueError, and so does a NaN or an infinity.
    """
    rows = [list(row) for row in matrix]
    if not all(isinstance(v, numbers.Real) for row in rows for v in row):
        raise ValueError(f"{what} has entries that are not real numbers")
    try:
        return [
            [Fraction(v if isinstance(v, numbers.Rational) else float(v)) for v in row]
            for row in rows
        ]
    except (OverflowError, ValueError):  # inf and NaN have no ratio
        raise ValueError(f"{what} has non-finite entries") from None


def is_positive_semidefinite(matrix) -> bool:
    """Whether a symmetric matrix is positive semidefinite, decided exactly.

    Entries are taken as Fractions (floats by their exact binary value).
    Symmetric elimination (LDL^T without pivoting): the matrix is positive
    semidefinite iff every pivot is nonnegative and every zero pivot leaves
    a zero row in the remaining Schur complement.
    """
    a = _fractions(matrix, "matrix")
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            ratio = a[i][k] / pivot
            if ratio:
                for j in range(k + 1, n):
                    a[i][j] -= ratio * a[k][j]
    return True


def sym_eigenvalues(matrix) -> tuple[float, ...]:
    """All eigenvalues of a symmetric matrix, descending, via cyclic Jacobi.

    Rotations run in sweeps until the off-diagonal Frobenius norm drops
    below ``JACOBI_OFF_TOL``.  Plain Python floats; each rotation updates the two
    rows and then the two columns, so every entry is rounded exactly as in
    the array formulation ``a[p, :] = c * a[p, :] - s * a[q, :]`` etc.
    """
    try:
        a = [[float(v) for v in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be a square 2-D array") from None
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix must be square, got rows of lengths {[len(r) for r in a]}")
    if not all(math.isfinite(v) for row in a for v in row):
        raise ValueError("matrix has non-finite entries")
    if max((abs(a[i][j] - a[j][i]) for i in range(n) for j in range(n)), default=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric")
    a = [[(a[i][j] + a[j][i]) / 2 for j in range(n)] for i in range(n)]
    skip = JACOBI_OFF_TOL / max(n, 2)
    for _ in range(100):
        # summed from the off-diagonal entries themselves: subtracting the
        # diagonal mass from the full Frobenius norm cancels to rounding noise
        # far above JACOBI_OFF_TOL once the matrix is nearly diagonal
        off = math.sqrt(sum(a[i][j] * a[i][j] for i in range(n) for j in range(n) if i != j))
        if off < JACOBI_OFF_TOL:
            return tuple(sorted((a[i][i] for i in range(n)), reverse=True))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q][q] - a[p][p]) / (2 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p, row_q = a[p], a[q]
                a[p] = [c * u - s * v for u, v in zip(row_p, row_q)]
                a[q] = [s * u + c * v for u, v in zip(row_p, row_q)]
                for row in a:
                    u, v = row[p], row[q]
                    row[p] = c * u - s * v
                    row[q] = s * u + c * v
                a[p][q] = a[q][p] = 0.0
    raise ArithmeticError("Jacobi iteration did not reach the target accuracy")


# ---------------------------------------------------------------------------
# primal / dual verification


def _candidate(matrix, what: str) -> list[list[Fraction]]:
    """A 6x6 candidate as rows of Fractions, floats at their exact binary value."""
    rows = _fractions(matrix, what)
    if len(rows) != 6 or any(len(row) != 6 for row in rows):
        raise ValueError(f"{what} must be 6x6, got rows of lengths {[len(r) for r in rows]}")
    return rows


def _dual_slack(multipliers):
    """The dual slack matrix -(1/2) W + Lambda."""
    return [
        [-w / 2 + lam for w, lam in zip(w_row, lam_row)]
        for w_row, lam_row in zip(W_EXACT, multipliers)
    ]


def verify_primal(gram) -> tuple:
    """Objective value (1/2) tr(G W) and feasibility of a candidate Gram matrix.

    Checked exactly, a float entry at its binary value: feasible means a
    unit diagonal and positive semidefinite by LDL^T.  The value is a
    Fraction.
    """
    rows = _candidate(gram, "primal candidate")
    value = sum(g * w for g_row, w_row in zip(rows, W_EXACT) for g, w in zip(g_row, w_row)) / 2
    return value, is_positive_semidefinite(rows) and all(rows[i][i] == 1 for i in range(6))


def verify_dual(multipliers) -> tuple:
    """Dual value tr(Lambda) and feasibility of diagonal multipliers.

    Checked exactly, a float entry at its binary value: feasible means the
    slack matrix -(1/2) W + Lambda is positive semidefinite by LDL^T.  The
    value is a Fraction, and any nonzero off-diagonal entry raises
    ValueError.
    """
    lam = _candidate(multipliers, "dual candidate")
    if any(lam[i][j] for i in range(6) for j in range(6) if i != j):
        raise ValueError("dual multipliers must be a diagonal matrix")
    value = sum(lam[i][i] for i in range(6))
    return value, is_positive_semidefinite(_dual_slack(lam))


class CertificateReport(_Frozen):
    """Matched primal/dual evidence that the quantum value of R is 9."""

    __slots__ = (
        "primal_value",
        "dual_value",
        "gap",
        "primal_eigenvalues",
        "dual_slack_eigenvalues",
        "bound",
        "implied_win_bound",
    )

    def to_json_dict(self) -> dict:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(self._fields, self._values())
        }


def certify_quantum_bound() -> CertificateReport:
    """Verify the matching primal/dual pair at value 9 and report it.

    The pair is exact: ``GRAM_EXACT`` and ``MULTIPLIERS_EXACT`` are checked
    by LDL^T over Fractions, and primal and dual are both exactly 9.  Any
    feasibility failure or a nonzero gap raises CertificationError: the
    certificate is recomputed, never assumed.  The report holds floats; its
    eigenvalues are the Jacobi cross-check.
    """
    primal_value, primal_ok = verify_primal(GRAM_EXACT)
    dual_value, dual_ok = verify_dual(MULTIPLIERS_EXACT)
    gap = abs(dual_value - primal_value)
    if not primal_ok:
        raise CertificationError("primal candidate is infeasible")
    if not dual_ok:
        raise CertificationError("dual slack matrix is not positive semidefinite")
    if gap:
        raise CertificationError(f"primal/dual gap {gap} is not zero")
    return CertificateReport(
        primal_value=float(primal_value),
        dual_value=float(dual_value),
        gap=float(gap),
        primal_eigenvalues=sym_eigenvalues(GRAM_EXACT),
        dual_slack_eigenvalues=sym_eigenvalues(_dual_slack(MULTIPLIERS_EXACT)),
        bound=float(dual_value),
        implied_win_bound=float(_win(dual_value)),
    )


# ---------------------------------------------------------------------------
# variational search


class VectorStrategy(_Frozen):
    """Unit vector triples (Alice rows, Bob rows) representing correlations
    c[a][b] = alice[a] . bob[b], stored as tuples of floats.  Compared by
    identity."""

    __slots__ = ("alice", "bob")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, alice: tuple[tuple[float, ...], ...], bob: tuple[tuple[float, ...], ...]):
        alice = _unit_rows(alice, 3, "alice")
        bob = _unit_rows(bob, 3, "bob")
        if len(alice[0]) != len(bob[0]):
            raise ValueError("alice and bob vectors differ in dimension")
        super().__init__(alice, bob)

    def correlations(self) -> tuple:
        return tuple(row[3:] for row in self.gram()[:3])

    def gram(self) -> tuple[tuple[float, ...], ...]:
        """Gram matrix of the six vectors, Alice's three and then Bob's."""
        rows = self.alice + self.bob
        return tuple(tuple(math.fsum(map(operator.mul, u, v)) for v in rows) for u in rows)


class AscentResult(_Frozen):
    """Best restart of the alternating ascent, with its per-sweep objectives.
    Compared by identity."""

    __slots__ = ("value", "strategy", "sweep_values")
    __eq__, __hash__ = object.__eq__, object.__hash__


def _draw(rng: random.Random, dim: int) -> list[float]:
    """A start vector: ``dim`` coordinates uniform in [-1, 1)."""
    return [2 * rng.random() - 1 for _ in range(dim)]


def _units(vectors, rng: random.Random) -> list[list[float]]:
    """Each of ``vectors`` scaled to unit length, one after the other.

    A degenerate vector (length < 1e-15) is replaced by fresh draws from
    its restart's generator until one is not.
    """
    units = []
    for vector in vectors:
        length = math.hypot(*vector)
        while length < 1e-15:
            vector = _draw(rng, len(vector))
            length = math.hypot(*vector)
        units.append([v / length for v in vector])
    return units


def _targets(vectors) -> tuple[list[float], list[float], list[float]]:
    """The Bell rows -2 v_i + v_{i+1} + v_{i-1} of one party's three vectors,
    in one pass: each term is ``_bell_terms`` written out, in its order."""
    red, green, blue = rows = [], [], []
    for r, g, b in zip(*vectors):
        red.append(-2 * r + g + b)
        green.append(-2 * g + b + r)
        blue.append(-2 * b + r + g)
    return rows


def _objective(xs, rows) -> float:
    """sum_i x_i . rows_i: the fsums of map(mul, x_i, rows_i), added in order."""
    return sum(map(math.fsum, map(map, itertools.repeat(operator.mul), xs, rows)))


#: The ascent's vector dimension, its sweep cap per restart, and the gain
#: below which a restart stops.
_ASCENT_DIM, _ASCENT_MAX_SWEEPS, _ASCENT_MIN_GAIN = 6, 10_000, 1e-12


def alternating_ascent(seed: int, restarts: int = 20) -> AscentResult:
    """Seeded block-coordinate maximization of the signed Bell objective.

    A sweep normalizes Bob's three Bell rows -2 y_i + y_{i+1} + y_{i-1}
    (formed in one pass over the coordinates) into Alice's vectors, then
    Alice's rows into Bob's, and forms Bob's rows once more: they give the
    objective sum_i x_i . row_i and the next sweep's targets.  Both
    half-steps maximize the objective exactly, so sweeps are monotone.  The
    vectors have 6 coordinates.  A restart stops after the sweep whose gain
    falls below 1e-12, or after 10,000 sweeps.
    Restart k draws from ``random.Random(seed + k)``: Alice's three start
    vectors, then Bob's, then any replacement for a degenerate vector.  The
    first best restart wins.
    """
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be nonnegative: an int >= 0, got {seed!r}")
    if not (_is_int(restarts) and restarts >= 1):
        raise ValueError(f"need at least one restart: an int >= 1, got {restarts!r}")
    best = None
    for k in range(restarts):
        rng = random.Random(seed + k)
        # Lazy draws: each start vector is drawn after the last one is scaled.
        xs = _units((_draw(rng, _ASCENT_DIM) for _ in range(3)), rng)
        ys = _units((_draw(rng, _ASCENT_DIM) for _ in range(3)), rng)
        rows = _targets(ys)
        values = [_objective(xs, rows)]
        for _ in range(_ASCENT_MAX_SWEEPS):
            # Bob's Bell rows are both the objective's and Alice's next targets.
            xs = _units(rows, rng)
            ys = _units(_targets(xs), rng)
            rows = _targets(ys)
            values.append(_objective(xs, rows))
            if values[-1] - values[-2] < _ASCENT_MIN_GAIN:
                break
        if best is None or values[-1] > best[0][-1]:
            best = values, xs, ys
    values, xs, ys = best
    return AscentResult(
        value=values[-1], strategy=VectorStrategy(xs, ys), sweep_values=tuple(values)
    )
