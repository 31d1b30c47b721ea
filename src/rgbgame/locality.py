"""Signalling structure of boxes: canonical examples, checks, decompositions.

A box is a StrategyTable viewed as a physical device.  No-signalling is
membership in both one-way classes, each decided by one kernel on the box or
on its view with the parties swapped.  The kernel reads exact tables exactly
and float tables within ``FLOAT_ROW_TOL`` and gives a witness on failure,
never just a boolean; the one-way decompositions build on its marginals and
reconstruct an exact input exactly.

The module also carries the linear-algebra argument showing that the
perfectly-winning family of the colour game contains exactly one
no-signalling box: the all-1/2 member.  That computation is done with exact
Gaussian elimination over the 15 family parameters, by ``_rref`` alone: an
equation is implied by a system when adding it leaves the rank unchanged.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from fractions import Fraction

from .strategies import (
    StrategyTable,
    WinningFamilyParams,
    _ZERO,
    _Frozen,
    _numerators,
    next_colour,
    parameter_names,
    prev_colour,
    probability_to_string,
)

# ---------------------------------------------------------------------------
# canonical boxes: tables are immutable, so each is built once and shared


def _pair_box(k: int, pair) -> StrategyTable:
    """The k-letter box answering (x, y) = pair(a, b) with certainty."""
    if k < 1:
        raise ValueError(f"alphabet size must be at least 1, got {k}")
    return StrategyTable.from_function(
        (k, k, k, k), lambda a, b, x, y: 1 if (x, y) == pair(a, b) else 0
    )


@functools.lru_cache(maxsize=8, typed=True)
def id_box(k: int = 3) -> StrategyTable:
    """Both parties output their own input: (x, y) = (a, b)."""
    return _pair_box(k, lambda a, b: (a, b))


@functools.lru_cache(maxsize=8, typed=True)
def r_sig_box(k: int = 3) -> StrategyTable:
    """Alice's input appears on both sides: (x, y) = (a, a)."""
    return _pair_box(k, lambda a, b: (a, a))


@functools.lru_cache(maxsize=8, typed=True)
def l_sig_box(k: int = 3) -> StrategyTable:
    """Bob's input appears on both sides: (x, y) = (b, b)."""
    return _pair_box(k, lambda a, b: (b, b))


@functools.lru_cache(maxsize=8, typed=True)
def sig_box(k: int = 3) -> StrategyTable:
    """Inputs swap sides: (x, y) = (b, a).  Signals both ways."""
    return _pair_box(k, lambda a, b: (b, a))


@functools.cache
def pr_box() -> StrategyTable:
    """The binary box winning the XOR game with certainty: uniform over
    the two output pairs with x ^ y = a & b."""
    half = Fraction(1, 2)
    return StrategyTable.from_function(
        (2, 2, 2, 2), lambda a, b, x, y: half if (x ^ y) == (a & b) else 0
    )


# ---------------------------------------------------------------------------
# no-signalling checks


class SignallingWitness(_Frozen):
    """Evidence that one party's output distribution reacts to the other's input.

    ``side`` names the direction information flows: "right" means Bob's
    marginal changes with Alice's input a, "left" the mirror image.  The
    receiver's own input is held at ``fixed_input`` while the sender's input
    moves between ``sender_inputs``, shifting the probability of ``output``
    between the two ``marginals``.
    """

    __slots__ = ("side", "fixed_input", "output", "sender_inputs", "marginals")

    def to_json_dict(self) -> dict:
        data = dict(zip(self._fields, self._values()))
        data["sender_inputs"] = list(self.sender_inputs)
        data["marginals"] = [probability_to_string(m) for m in self.marginals]
        return data

    def __str__(self):
        receiver, sender = ("y", "a") if self.side == "right" else ("x", "b")
        own = "b" if self.side == "right" else "a"
        i, j = self.sender_inputs
        p, q = self.marginals
        return (
            f"side={self.side}, {own}={self.fixed_input}, {receiver}={self.output}: "
            f"marginal is {probability_to_string(p)} at {sender}={i} "
            f"but {probability_to_string(q)} at {sender}={j}"
        )


class SignallingError(ValueError):
    """A decomposition's required marginal independence fails."""

    def __init__(self, witness: SignallingWitness):
        super().__init__(f"box signals: {witness}")
        self.witness = witness


class _Swapped:
    """Read-only view of a box with the parties' roles exchanged.

    P'(x, y | a, b) = P(y, x | b, a), so every left-side question about a box
    is the right-side question about its view.  The view holds the box's
    entries in ``_swap_order``; for an exact box, whose kernels read nothing
    else, it holds only the numerators.  Swapping a view again gives the
    box's entries back.  Deliberately not a StrategyTable: validating a copy
    costs more than the check it serves.
    """

    def __init__(self, table):
        na, nb, nx, ny = table.shape
        self.shape = (nb, na, ny, nx)
        values, den = table._exact or (table.probs, None)
        values = tuple([values[i] for i in _swap_order(table.shape)])
        self.probs, self._exact = (None, (values, den)) if den else (values, None)


@functools.cache
def _swap_order(shape) -> tuple:
    """The index in P of each entry of P'(x, y | a, b) = P(y, x | b, a), in P' row-major order."""
    na, nb, nx, ny = shape
    order = itertools.product(range(nb), range(na), range(ny), range(nx))
    return tuple(((a * nb + b) * nx + x) * ny + y for b, a, y, x in order)


def x_marginal(table: StrategyTable, a: int, b: int) -> dict:
    """Alice's output distribution {x: P(x | a, b)}."""
    _, _, nx, ny = table.shape
    row = table.cells(a, b)
    return {x: sum(row[x * ny : (x + 1) * ny]) for x in range(nx)}


def y_marginal(table: StrategyTable, a: int, b: int) -> dict:
    """Bob's output distribution {y: P(y | a, b)}."""
    _, _, _, ny = table.shape
    row = table.cells(a, b)
    return {y: sum(row[y::ny]) for y in range(ny)}


def _one_way(view, atol, side):
    """Is a box (or a view) in the left-to-right class: does Alice's marginal
    forget b?  (witness, None) for the first a, b, x where her marginal at
    (a, b) is not the one at (a, 0), else (None, her marginals at b = 0).
    Sums of contiguous slices: an exact table's numerators are compared with
    atol = 0 and divided by its denominator only in a witness."""
    na, nb, nx, ny = view.shape
    values, den = view._exact or (view.probs, None)
    n = nx * ny
    marginals = []
    for a in range(na):
        # Her marginals at (a, b), b by b: sums of ny consecutive entries.
        sums = list(map(sum, zip(*[iter(values[a * nb * n : (a + 1) * nb * n])] * ny)))
        marginals.append(reference := sums[:nx])
        for b in range(1, nb):
            if (current := sums[b * nx : (b + 1) * nx]) != reference:
                for x, (p, q) in enumerate(zip(reference, current)):
                    if abs(q - p) > atol:
                        pair = (Fraction(p, den), Fraction(q, den)) if den else (p, q)
                        return SignallingWitness(side, a, x, (0, b), pair), None
    return None, marginals


def is_no_signalling(table: StrategyTable):
    """No-signalling: membership in both one-way classes, each by ``_one_way``.

    Returns (True, None) or (False, witness).  The right-to-left class, where
    Bob's marginal forgets a, is checked first, on the swapped view.  Exact
    tables are compared exactly, float tables within ``FLOAT_ROW_TOL``.
    """
    atol = table._slack()
    witness = _one_way(_Swapped(table), atol, "right")[0] or _one_way(table, atol, "left")[0]
    return (witness is None), witness


# ---------------------------------------------------------------------------
# one-way simulation


class Direction(enum.Enum):
    LEFT_TO_RIGHT = "left-to-right"   # Alice samples first, then tells Bob
    RIGHT_TO_LEFT = "right-to-left"   # Bob samples first, then tells Alice


class OneWayProtocol(_Frozen):
    """A box factored into sender-samples-then-receiver-samples form.

    ``sender`` maps the sender's input to a distribution over her output;
    ``receiver`` maps (sender input, receiver input, sender output) to a
    distribution over the receiver's output.  Recomposing the product
    reproduces an exact box exactly, a float one within ``FLOAT_ROW_TOL``.
    """

    __slots__ = ("direction", "shape", "sender", "receiver")


def decompose_one_way(table: StrategyTable, direction: Direction) -> OneWayProtocol:
    """Factor a box along one direction of communication.

    The box must be in that direction's one-way class, checked by the kernel
    ``is_no_signalling`` runs per direction (witness raised otherwise):
    LEFT_TO_RIGHT requires Alice's marginal to be independent of b,
    RIGHT_TO_LEFT Bob's of a.  The sender's marginal is the kernel's, read at
    the receiver's input 0.  Rows conditioned on a zero-probability sender
    output are filled uniformly.  On an exact box the sender's marginal is
    an integer m over the box's denominator D and each receiver entry is the
    entry's numerator over m: the values of p / mass, one Fraction per
    distinct pair of integers.
    """
    # Right-to-left is left-to-right on the view with the parties exchanged.
    view = table if direction is Direction.LEFT_TO_RIGHT else _Swapped(table)
    witness, marginals = _one_way(view, table._slack(), "left" if view is table else "right")
    if witness is not None:
        raise SignallingError(witness)
    na, nb, nx, ny = view.shape
    values, den = view._exact or (view.probs, None)
    exact_ratio = functools.cache(lambda v, m: Fraction(v, m) if v else _ZERO)
    divide = exact_ratio if den else operator.truediv
    n = nx * ny
    sender, receiver = {}, {}
    for a, masses in enumerate(marginals):
        sender[a] = {x: divide(m, den) if den else m for x, m in enumerate(masses)}
        for b in range(nb):
            start = (a * nb + b) * n
            for x, mass in enumerate(masses):
                if mass == 0:
                    receiver[(a, b, x)] = dict.fromkeys(range(ny), Fraction(1, ny))
                else:
                    cells = values[start + x * ny : start + (x + 1) * ny]
                    receiver[(a, b, x)] = {y: divide(v, mass) for y, v in enumerate(cells)}
    return OneWayProtocol(direction, table.shape, sender, receiver)


def recompose_one_way(protocol: OneWayProtocol) -> StrategyTable:
    """Multiply a one-way protocol back into a strategy table.

    When every value is an int or a Fraction the products are taken on
    integer numerators, over the sender's and the receiver's common
    denominators, and each entry becomes a Fraction once.
    """
    # A right-to-left protocol is left-to-right on the swapped shape; its
    # product is swapped back, since swapping twice is the identity.
    shape = na, nb, nx, ny = protocol.shape
    if protocol.direction is Direction.RIGHT_TO_LEFT:
        shape = na, nb, nx, ny = nb, na, ny, nx
    keys = list(itertools.product(range(na), range(nb), range(nx)))
    senders = [protocol.sender[a][x] for a in range(na) for x in range(nx)]
    receivers = [protocol.receiver[key][y] for key in keys for y in range(ny)]
    den = None
    if all(map(isinstance, senders + receivers, itertools.repeat((int, Fraction)))):
        (senders, s_den), (receivers, r_den) = _numerators(senders), _numerators(receivers)
        den = s_den * r_den
    # Entry (a, b, x, y) is the sender's value (a, x) times the receiver's.
    senders = [senders[a * nx + x] for a, _, x in keys]
    probs = [senders[i // ny] * r for i, r in enumerate(receivers)]
    if protocol.direction is Direction.RIGHT_TO_LEFT:
        probs = [probs[i] for i in _swap_order(shape)]
    return StrategyTable._from_numerators(protocol.shape, probs, den)


# ---------------------------------------------------------------------------
# uniqueness of the no-signalling winner


class LinearSystem(_Frozen):
    """An exact linear system over named variables.

    Equalities are (coefficients, constant) meaning coeffs . v = constant;
    inequalities use the same shape and mean coeffs . v >= constant.
    """

    __slots__ = ("variables", "equalities", "inequalities")


def build_ns_constraints() -> LinearSystem:
    """No-signalling conditions on the winning family, as linear constraints.

    Both parties' marginals must forget the other party's input.  Comparing
    each same-colour row (a = b = u) with its two neighbouring rows gives, for
    every u: p_u = 1 - p_{u,u+1} = p_{u,u-1} on Alice's side and
    1 - p_u = 1 - q_{u+1,u} = q_{u-1,u} on Bob's, i.e. 12 equalities in the
    15 parameters.  The inequalities are the family's entries: 15 rows
    v >= 0, one per parameter, and 6 rows p_uv + q_uv <= 1, one per pair
    of distinct colours.  No row says p_u <= 1: on the equalities that
    bound follows from p_u + p_{u,u+1} = 1.
    """
    names = parameter_names()
    index = {name: i for i, name in enumerate(names)}

    def row(terms: dict, constant) -> tuple:
        coeffs = [Fraction(0)] * len(names)
        for name, c in terms.items():
            coeffs[index[name]] += Fraction(c)
        return tuple(coeffs), Fraction(constant)

    equalities = []
    for u in range(3):
        nxt, prv = next_colour(u), prev_colour(u)
        # Alice's chance of answering u+1 must match across b = u, u+1, u-1.
        equalities.append(row({f"p{u}": 1, f"p{u}{nxt}": 1}, 1))
        equalities.append(row({f"p{u}": 1, f"p{u}{prv}": -1}, 0))
        # Bob's chance of answering u+1 must match across a = u, u+1, u-1.
        equalities.append(row({f"p{u}": 1, f"q{nxt}{u}": -1}, 0))
        equalities.append(row({f"p{u}": 1, f"q{prv}{u}": 1}, 1))

    inequalities = [row({name: 1}, 0) for name in names]
    for u in range(3):
        for v in range(3):
            if u != v:
                inequalities.append(row({f"p{u}{v}": -1, f"q{u}{v}": -1}, -1))

    return LinearSystem(names, tuple(equalities), tuple(inequalities))


def _rref(rows: list[list[Fraction]]):
    """In-place reduced row echelon form; returns [(row index, pivot column)].

    Rows have one trailing constant entry.  Raises on an inconsistent system.
    Rows are replaced, never changed, so ``_rref(rows + [row])`` leaves the
    caller's ``rows`` as they were.
    """
    width = len(rows[0]) - 1 if rows else 0
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        scale = rows[rank][col]
        if scale != 1:
            rows[rank] = [c / scale for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [c - factor * p for c, p in zip(rows[r], rows[rank])]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][-1] != 0:
            raise ArithmeticError("inconsistent linear system")
    return pivots


def solve_ns_unique() -> WinningFamilyParams:
    """Solve the no-signalling constraints exactly; the solution is a point.

    Elimination of the 12 marginal equalities leaves the three same-colour
    parameters free, but the two entries P(v, u | u, v) and P(u, v | v, u)
    of the family sum to zero on every solution (adding that equation leaves
    the rank under ``_rref`` unchanged), so nonnegativity pins both to zero.
    Adding those equalities collapses the system to the all-1/2 assignment;
    any residual freedom or inconsistency raises.
    """
    system = build_ns_constraints()
    names = system.variables

    def entry_is_zero(u, v):
        # P(v, u | u, v) = 1 - p_uv - q_uv = 0 as the row p_uv + q_uv = 1.
        return [Fraction(name in (f"p{u}{v}", f"q{u}{v}")) for name in names] + [Fraction(1)]

    rows = [list(coeffs) + [const] for coeffs, const in system.equalities]
    rank = len(_rref(rows))

    pinned = []
    for u in range(3):
        v = next_colour(u)
        uv, vu = entry_is_zero(u, v), entry_is_zero(v, u)
        # P(v,u|u,v) + P(u,v|v,u) = 0 is implied when adding it leaves the
        # rank unchanged; _rref raises when only its constant disagrees.
        try:
            implied = len(_rref(rows + [list(map(operator.add, uv, vu))])) == rank
        except ArithmeticError:
            implied = False
        if not implied:
            raise ArithmeticError(
                "expected P(v,u|u,v) + P(u,v|v,u) to vanish modulo no-signalling"
            )
        # Both entries are probabilities and sum to zero, hence each is zero.
        pinned += [uv, vu]

    rows += pinned
    pivots = _rref(rows)
    if len(pivots) != len(names):
        raise ArithmeticError(
            f"solution space is not a point: rank {len(pivots)} of {len(names)}"
        )
    # Full rank: pivot i sits in column i, so row i reads v_i = its constant.
    solution = [row[-1] for row in rows[: len(names)]]

    for coeffs, const in system.inequalities:
        value = sum(c * s for c, s in zip(coeffs, solution))
        if value < const:
            raise ArithmeticError("unique solution violates a range inequality")
    return WinningFamilyParams.from_vector(solution)
