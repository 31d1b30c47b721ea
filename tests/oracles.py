"""One reference per kernel, and the helpers that the test files share.

A reference computes what a library kernel computes, written to share as
little structure with it as it can: where it can, it reads a table one
``prob()`` per cell, or sums its entries as Fractions.  A test compares a
kernel with its reference bit for bit, through ``typed`` and ``outcome``:
the same values with the same types, the same witnesses, and the same
messages.  A kernel keeps two references only where each runs inputs the
other cannot (``brute_force_local_bound`` beside the unpruned
``sweep_local_bound``), and the numpy kernels (``numpy_*``) stay beside the
plain-Python ones as the host-BLAS cross-check.  pytest's default import
mode puts ``tests/`` on ``sys.path``, so a test module imports this one as
``oracles``.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from rgbgame.bell import AscentResult, VectorStrategy, _bell_row, _signed_bell, cyclic_rule
from rgbgame.formats import BoxFormatError, _read_alphabets
from rgbgame.locality import (
    Direction,
    OneWayProtocol,
    SignallingError,
    SignallingWitness,
    _rref,
)
from rgbgame.quantum import ALGEBRA_TOL
from rgbgame.strategies import (
    _CROSS_PAIRS,
    FLOAT_ROW_TOL,
    StrategyTable,
    _is_int,
    _numerators,
    deterministic_strategy,
    mix,
    next_colour,
    prev_colour,
    probability_to_string,
)
from rgbgame.wiring import WiringProtocol

F = Fraction

# ---------------------------------------------------------------------------
# comparing results by value and type


def typed(values):
    """Values with their types, a dict's keys kept: repr tells float bits
    apart, -0.0 included."""
    if isinstance(values, dict):
        return [(key, type(v), repr(v)) for key, v in values.items()]
    return [(type(v), repr(v)) for v in values]


def typed_witness(witness):
    if witness is None:
        return None
    head = (witness.side, witness.fixed_input, witness.output, witness.sender_inputs)
    return head + (typed(witness.marginals),)


def typed_protocol(protocol):
    return (
        protocol.direction,
        protocol.shape,
        [(a, typed(dist)) for a, dist in protocol.sender.items()],
        [(key, typed(dist)) for key, dist in protocol.receiver.items()],
    )


def assert_cached_pair(table):
    """The invariant: the cached pair is the entries over their least
    common denominator, or None on a float table."""
    if table.is_exact:
        assert table._exact == _numerators(table.probs)
    else:
        assert table._exact is None


def outcome(fn, *args):
    """What a call gives, typed: a table's shape and typed entries (its
    cached pair checked), any other result through ``typed``, or the class
    and message of the ValueError it raises."""
    try:
        result = fn(*args)
    except ValueError as err:
        return type(err), str(err)
    if isinstance(result, StrategyTable):
        assert_cached_pair(result)
        return result.shape, typed(result.probs)
    return typed(result)


# ---------------------------------------------------------------------------
# strategies: the row check, win probability, mixtures, distance, the family


def reference_row_check(shape, probs):
    """The row-by-row check StrategyTable made through row() and a Fraction
    sum; returns its first error message, or None."""
    na, nb, nx, ny = shape
    exact = not any(isinstance(p, float) for p in probs)
    for a in range(na):
        for b in range(nb):
            row = {
                (x, y): probs[((a * nb + b) * nx + x) * ny + y]
                for x in range(nx)
                for y in range(ny)
            }
            row = {xy: p for xy, p in row.items() if p != 0}
            total = sum(row.values())
            if exact:
                if total != 1:
                    return f"row ({a},{b}) sums to {total}, not 1"
                if any(p < 0 or p > 1 for p in row.values()):
                    return f"row ({a},{b}) has an entry outside [0,1]"
            else:
                if not all(math.isfinite(p) for p in row.values()):
                    return f"row ({a},{b}) has a non-finite entry"
                if abs(total - 1) > FLOAT_ROW_TOL:
                    return f"row ({a},{b}) sums to {total!r}, not 1"
                if any(p < -1e-12 or p > 1 + 1e-9 for p in row.values()):
                    return f"row ({a},{b}) has an entry outside [0,1]"
    return None


def reference_win(table, game):
    """One prob() read per cell, zero cells skipped, in (x, y) order."""
    _, _, nx, ny = table.shape
    total = F(0)
    for (a, b), weight in game.input_dist.items():
        if weight == 0:
            continue
        mass = 0
        for x, y in itertools.product(range(nx), range(ny)):
            p = table.prob(a, b, x, y)
            if p != 0 and game.predicate(a, b, x, y):
                mass += p
        total += weight * mass
    return total


def reference_mix(tables, weights):
    """mix as one Fraction or float sum per entry, zero terms included."""
    weights = [w if isinstance(w, float) else F(w) for w in weights]
    return tuple(
        sum(w * t.probs[i] for w, t in zip(weights, tables))
        for i in range(len(tables[0].probs))
    )


def reference_l1_distance(table_a, table_b):
    return sum(abs(p - q) for p, q in zip(table_a.probs, table_b.probs))


def _check_number(name, value):
    """The package's number rule for these oracles' inputs: an int, a float
    or a Fraction passes, and anything else, text included, is refused."""
    if not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{name} is {value!r}, not a number")


def _check_unit(name, value):
    _check_number(name, value)
    if not 0 <= value <= 1:
        raise ValueError(f"{name} = {value} outside [0, 1]")
    return Fraction(value)


def reference_family_vector(values):
    """WinningFamilyParams.from_vector(values).as_vector(): the 15 values,
    checked as Fractions, in canonical order."""
    p0, p1, p2 = (_check_unit(f"p{u}", v) for u, v in enumerate(values[:3]))
    p_cross, q_cross = (
        {uv: _check_unit(f"{name}{uv}", v) for uv, v in zip(_CROSS_PAIRS, part)}
        for name, part in (("p_cross", values[3:9]), ("q_cross", values[9:]))
    )
    for uv in _CROSS_PAIRS:
        if p_cross[uv] + q_cross[uv] > 1:
            raise ValueError(f"p_cross{uv} + q_cross{uv} exceeds 1")
    return (p0, p1, p2, *p_cross.values(), *q_cross.values())


def reference_family_strategy(params):
    entries = {}
    for u in range(3):
        entries[(u, u, next_colour(u), prev_colour(u))] = params.p_same[u]
        entries[(u, u, prev_colour(u), next_colour(u))] = 1 - params.p_same[u]
    for u, v in _CROSS_PAIRS:
        w = 3 - u - v
        p, q = params.p_cross[(u, v)], params.q_cross[(u, v)]
        entries[(u, v, w, u)] = p
        entries[(u, v, v, w)] = q
        entries[(u, v, v, u)] = 1 - p - q
    return StrategyTable.from_dict((3, 3, 3, 3), entries)


# ---------------------------------------------------------------------------
# the local bound: every function pair, or every one of Alice's functions


def pair_value(game, f_a, f_b):
    return sum(
        weight
        for (a, b), weight in game.input_dist.items()
        if game.predicate(a, b, f_a[a], f_b[b])
    )


def brute_force_local_bound(game):
    """Oracle: every |X|^|A| x |Y|^|B| function pair, first strict maximum."""
    na, nb, nx, ny = game.shape
    best = None
    for f_a in itertools.product(range(nx), repeat=na):
        for f_b in itertools.product(range(ny), repeat=nb):
            value = pair_value(game, f_a, f_b)
            if best is None or value > best[0]:
                best = (value, f_a, f_b)
    return best


def brute_force_best_response(gain, ny):
    """Oracle: every function pair on a payoff table, first strict maximum."""
    na, nx, nb = len(gain), len(gain[0]), len(gain[0][0]) // ny
    best = None
    for f_a in itertools.product(range(nx), repeat=na):
        for f_b in itertools.product(range(ny), repeat=nb):
            score = sum(gain[a][f_a[a]][b * ny + f_b[b]] for a in range(na) for b in range(nb))
            if best is None or score > best[0]:
                best = (score, f_a, f_b)
    return best


def sweep_local_bound(game):
    """Oracle: best response to each of Alice's |X|^|A| functions, none pruned.

    The integer gain table, the first strict maximum over f_a and the first
    best y per b, as local_bound computed them before its search was pruned.
    """
    na, nb, nx, ny = game.shape
    weights = {ab: F(w) for ab, w in game.input_dist.items()}
    scale = math.lcm(*(w.denominator for w in weights.values()))
    gain = [[[0] * (nb * ny) for _ in range(nx)] for _ in range(na)]
    for (a, b), w in weights.items():
        for x in range(nx):
            for y in range(ny):
                if game.predicate(a, b, x, y):
                    gain[a][x][b * ny + y] += int(w * scale)
    best, best_pair = -1, None
    for f_a in itertools.product(range(nx), repeat=na):
        scores = list(map(sum, zip(*(gain[a][x] for a, x in enumerate(f_a)))))
        total, f_b = 0, []
        for b in range(nb):
            row = scores[b * ny : (b + 1) * ny]
            total += max(row)
            f_b.append(row.index(max(row)))
        if total > best:
            best, best_pair = total, (f_a, tuple(f_b))
    f_a, f_b = best_pair
    return pair_value(game, f_a, f_b), f_a, f_b


# ---------------------------------------------------------------------------
# locality: marginals, witnesses and one-way protocols, one prob() per cell


class _Swapped:
    """P'(x, y | a, b) = P(y, x | b, a), one prob() per cell."""

    def __init__(self, table):
        na, nb, nx, ny = table.shape
        self.table = table
        self.shape = (nb, na, ny, nx)

    def prob(self, a, b, x, y):
        return self.table.prob(b, a, y, x)


def _swap(table):
    return table.table if isinstance(table, _Swapped) else _Swapped(table)


def reference_x_marginal(table, a, b):
    _, _, nx, ny = table.shape
    return {x: sum(table.prob(a, b, x, y) for y in range(ny)) for x in range(nx)}


def reference_y_marginal(table, a, b):
    return reference_x_marginal(_swap(table), b, a)


def reference_right_witness(table, atol, side="right"):
    na, nb, _, ny = table.shape
    for b in range(nb):
        reference = reference_y_marginal(table, 0, b)
        for a in range(1, na):
            current = reference_y_marginal(table, a, b)
            for y in range(ny):
                if abs(current[y] - reference[y]) > atol:
                    return SignallingWitness(side, b, y, (0, a), (reference[y], current[y]))
    return None


def reference_left_witness(table, atol):
    return reference_right_witness(_swap(table), atol, side="left")


def reference_decompose(table, direction, atol):
    if direction is Direction.LEFT_TO_RIGHT:
        witness, view = reference_left_witness(table, atol), table
    else:
        witness, view = reference_right_witness(table, atol), _swap(table)
    if witness is not None:
        raise SignallingError(witness)
    na, nb, nx, ny = view.shape
    sender = {a: reference_x_marginal(view, a, 0) for a in range(na)}
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


def reference_recompose(protocol):
    def entry(a, b, x, y):
        return protocol.sender[a][x] * protocol.receiver[(a, b, x)][y]

    if protocol.direction is Direction.LEFT_TO_RIGHT:
        return StrategyTable.from_function(protocol.shape, entry)
    return StrategyTable.from_function(protocol.shape, lambda a, b, x, y: entry(b, a, y, x))


def reference_ns_proof(system):
    """The proof as it read with a second elimination routine: each pair's
    form P(v,u|u,v) + P(u,v|v,u) reduced modulo the rows in echelon form.
    Returns the pinned pairs and the point, or raises as solve_ns_unique does.
    """
    names = system.variables
    index = {name: i for i, name in enumerate(names)}

    def reduce_form(coeffs, constant, rows, pivots):
        form = list(coeffs) + [F(constant)]
        for r, col in pivots:
            factor = form[col]
            if factor != 0:
                form = [
                    f - factor * c for f, c in zip(form[:-1], rows[r][:-1])
                ] + [form[-1] + factor * rows[r][-1]]
        return form

    def leftover_form(u, v):
        coeffs = [F(0)] * len(names)
        coeffs[index[f"p{u}{v}"]] = F(-1)
        coeffs[index[f"q{u}{v}"]] = F(-1)
        return coeffs, F(1)

    rows = [list(coeffs) + [const] for coeffs, const in system.equalities]
    pivots = _rref(rows)
    pinned, extra = [], []
    for u in range(3):
        v = next_colour(u)
        coeffs_uv, const_uv = leftover_form(u, v)
        coeffs_vu, const_vu = leftover_form(v, u)
        paired = reduce_form(
            [c1 + c2 for c1, c2 in zip(coeffs_uv, coeffs_vu)], const_uv + const_vu, rows, pivots
        )
        if any(c != 0 for c in paired):
            raise ArithmeticError(
                "expected P(v,u|u,v) + P(u,v|v,u) to vanish modulo no-signalling"
            )
        pinned.append((u, v))
        extra.append([-c for c in coeffs_uv] + [const_uv])
        extra.append([-c for c in coeffs_vu] + [const_vu])
    rows = [list(coeffs) + [const] for coeffs, const in system.equalities] + extra
    pivots = _rref(rows)
    if len(pivots) != len(names):
        raise ArithmeticError(
            f"solution space is not a point: rank {len(pivots)} of {len(names)}"
        )
    solution = [F(0)] * len(names)
    for r, col in pivots:
        solution[col] = rows[r][-1]
    for coeffs, const in system.inequalities:
        if sum(c * s for c, s in zip(coeffs, solution)) < const:
            raise ArithmeticError("unique solution violates a range inequality")
    return pinned, tuple(solution)


# ---------------------------------------------------------------------------
# wiring


def reference_evaluate_wiring(protocol, base):
    """evaluate_wiring reading the base box one prob() per cell.

    ``protocol`` holds the fields of a WiringProtocol with its maps as
    callables, which the reference calls at every branch it reaches."""
    if base.shape != protocol.inner_shape:
        raise ValueError(
            f"base box shape {base.shape} != wiring inner shape {protocol.inner_shape}"
        )
    oa, ob, ox, oy = protocol.outer_shape
    ia, ib, ix, iy = protocol.inner_shape
    share = Fraction(1, protocol.randomness)
    entries = {}
    for a in range(oa):
        for b in range(ob):
            for r in range(protocol.randomness):
                branches = [((), (), share)]
                for k in range(protocol.calls):
                    grown = []
                    for xs, ys, weight in branches:
                        a_k = protocol.alice_inputs[k](a, xs, r)
                        b_k = protocol.bob_inputs[k](b, ys, r)
                        if not (0 <= a_k < ia and 0 <= b_k < ib):
                            raise ValueError(
                                f"call {k} maps ({a},{b}) outside the base alphabets"
                            )
                        for x_k in range(ix):
                            for y_k in range(iy):
                                p = base.prob(a_k, b_k, x_k, y_k)
                                if p == 0:
                                    continue
                                grown.append((xs + (x_k,), ys + (y_k,), weight * p))
                    branches = grown
                for xs, ys, weight in branches:
                    x = protocol.alice_output(a, xs, r)
                    y = protocol.bob_output(b, ys, r)
                    if not (0 <= x < ox and 0 <= y < oy):
                        raise ValueError(
                            f"output map value ({x},{y}) outside the outer alphabets"
                        )
                    key = (a, b, x, y)
                    entries[key] = entries.get(key, 0) + weight
    return StrategyTable.from_dict(protocol.outer_shape, entries)


def reference_noisy_pr(p):
    _check_number("noise parameter p", p)
    if not 0 <= p <= 1:
        raise ValueError(f"noise parameter p = {p} outside [0, 1]")
    if not isinstance(p, float):
        p = Fraction(p)
    hit, miss = p / 2, (1 - p) / 2
    return StrategyTable.from_function(
        (2, 2, 2, 2), lambda a, b, x, y: hit if (x ^ y) == (a & b) else miss
    )


# ---------------------------------------------------------------------------
# the box file, every probability parsed and written as a Fraction


def _entry_text(p):
    text = probability_to_string(p)
    return text + ".0" if isinstance(p, float) and text.isdigit() else text


def reference_box_to_json_dict(table):
    records = [
        {"a": a, "b": b, "x": x, "y": y, "p": _entry_text(p)}
        for a, b in table.inputs()
        for (x, y), p in table.row(a, b).items()
    ]
    return {"alphabets": list(table.shape), "table": records}


def _parse_probability(value, where):
    if isinstance(value, bool):
        raise BoxFormatError(f"{where}: probability must be a number or string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                return Fraction(text)
            if text.lstrip("+-").isdigit():
                return Fraction(int(text))
            return float(text)
        except (ValueError, ZeroDivisionError):
            raise BoxFormatError(f"{where}: cannot parse probability {value!r}") from None
    raise BoxFormatError(f"{where}: probability must be a number or string")


def reference_box_from_json_dict(data):
    """The reader from its alphabets on: every field checked in turn, every
    probability parsed by Fraction, the table built by the constructor."""
    shape = _read_alphabets(data["alphabets"], "alphabets", BoxFormatError)
    entries = {}
    for i, record in enumerate(data["table"]):
        where = f"table[{i}]"
        if not isinstance(record, dict):
            raise BoxFormatError(f"{where}: record must be an object")
        if set(record) != {"a", "b", "x", "y", "p"}:
            raise BoxFormatError(f"{where}: record must have exactly the keys a, b, x, y, p")
        key, index = [], 0
        for name, size in zip("abxy", shape):
            v = record[name]
            if not _is_int(v):
                raise BoxFormatError(f"{where}: field {name!r} must be an integer")
            if not 0 <= v < size:
                raise BoxFormatError(f"{where}: field {name!r} = {v} outside range({size})")
            key.append(v)
            index = index * size + v
        if index in entries:
            raise BoxFormatError(f"{where}: duplicate entry for (a,b,x,y) = {tuple(key)}")
        entries[index] = _parse_probability(record["p"], f"{where}: field 'p'")
    covered = {index // (shape[2] * shape[3]) for index in entries}
    for row, (a, b) in enumerate(itertools.product(range(shape[0]), range(shape[1]))):
        if row not in covered:
            raise BoxFormatError(f"row ({a},{b}) sums to 0, not 1")
    probs = [Fraction(0)] * math.prod(shape)
    for index, p in entries.items():
        probs[index] = p
    try:
        return StrategyTable(shape, tuple(probs))
    except ValueError as err:
        raise BoxFormatError(str(err)) from err


# ---------------------------------------------------------------------------
# quantum: the Born rule per term, and the numpy kernels it replaced


def reference_born_prob(state, effect_a, effect_b):
    """tr(rho A (x) B) written out per term: Re(conj(psi_r) psi_c K_rc) over
    rows r = 2i + k and columns c = 2j + l, with K_rc = A_ij B_kl."""
    terms = [
        (state[2 * i + k].conjugate() * state[2 * j + l] * (effect_a[i][j] * effect_b[k][l])).real
        for i, k, j, l in itertools.product((0, 1), repeat=4)
    ]
    value = math.fsum(terms)
    if not abs(value - 0.5) <= 0.5 + ALGEBRA_TOL:
        raise ValueError(f"Born probability {value!r} lies outside [0, 1]")
    return min(1.0, max(0.0, value))


def numpy_born_prob(state, effect_a, effect_b):
    """The Born kernel as it was: np.kron per cell, clamped into [0, 1]."""
    state = np.asarray(state, dtype=complex)
    value = float((state.conj() @ (np.kron(effect_a, effect_b) @ state)).real)
    return min(1.0, max(0.0, value))


def reference_quantum_table(state, alice, bob, born, identity):
    """quantum_strategy_table as it was: effects and answers formed again
    for every (a, b, out_a, out_b) cell."""
    entries = {}
    for a in range(3):
        for b in range(3):
            for out_a in (0, 1):
                proj_a = alice.projectors[a]
                effect_a = proj_a if out_a else identity(proj_a)
                for out_b in (0, 1):
                    proj_b = bob.projectors[b]
                    effect_b = proj_b if out_b else identity(proj_b)
                    key = (a, b, cyclic_rule(a, out_a), cyclic_rule(b, out_b))
                    entries[key] = entries.get(key, 0.0) + born(state, effect_a, effect_b)
    return StrategyTable.from_function(
        (3, 3, 3, 3), lambda a, b, x, y: entries.get((a, b, x, y), 0.0)
    )


def complement(proj):
    return [[float(r == c) - v for c, v in enumerate(row)] for r, row in enumerate(proj)]


def numpy_complement(proj):
    return np.eye(2, dtype=complex) - np.asarray(proj)


# ---------------------------------------------------------------------------
# bell: the binary reduction and correlations one cell at a time, the
# deterministic maximum, the eigensolver, the ascent


def reference_reduce_to_binary(table):
    """``reduce_to_binary`` reading one cell at a time through a dict."""
    exact = table.is_exact
    for a in range(3):
        for b in range(3):
            own = sum(table.prob(a, b, a, y) for y in range(3)) + sum(
                table.prob(a, b, x, b) for x in range(3)
            )
            if own > (0 if exact else FLOAT_ROW_TOL):
                raise ValueError(
                    f"strategy plays a sure-losing colour on input ({a},{b}) "
                    f"with probability {own}"
                )
    reduced = {
        (a, b, xb, yb): table.prob(a, b, cyclic_rule(a, xb), cyclic_rule(b, yb))
        for a, b, xb, yb in itertools.product(range(3), range(3), (0, 1), (0, 1))
    }
    if not exact:
        for a in range(3):
            for b in range(3):
                total = sum(reduced[(a, b, xb, yb)] for xb in (0, 1) for yb in (0, 1))
                for xb in (0, 1):
                    for yb in (0, 1):
                        reduced[(a, b, xb, yb)] /= total
    return StrategyTable.from_function((3, 3, 2, 2), lambda a, b, x, y: reduced[(a, b, x, y)])


def numpy_sym_eigenvalues(matrix, off_tol=1e-13):
    """The library's cyclic Jacobi as it was written over numpy arrays: the
    oracle that the plain-float version must match bit for bit."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2
    n = a.shape[0]
    skip = off_tol / max(n, 2)
    for _ in range(100):
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


def reference_bell_maximum():
    """The 8 x 8 sweep over one bit per colour for each party: the oracle of
    ``deterministic_bell_maximum``, first maximum of the signed functional."""
    best = witness = None
    for f in itertools.product((0, 1), repeat=3):
        for g in itertools.product((0, 1), repeat=3):
            corr = [[1 if f[a] == g[b] else -1 for b in range(3)] for a in range(3)]
            value = _signed_bell(corr)
            if best is None or value > best:
                best, witness = value, (f, g)
    return best, witness


def reference_lemma1_win(binary_table):
    """Win from agreement rates, (1/9) sum_u [2 + (Bell term u of p(x=y))/2]."""
    agree = [
        [binary_table.prob(a, b, 0, 0) + binary_table.prob(a, b, 1, 1) for b in range(3)]
        for a in range(3)
    ]
    return sum(2 + _bell_row(agree[u], u) / 2 for u in range(3)) / 9


def reference_correlations(binary_table):
    """``correlations_from_table`` reading one cell at a time."""
    return tuple(
        tuple(
            2 * (binary_table.prob(a, b, 0, 0) + binary_table.prob(a, b, 1, 1)) - 1
            for b in range(3)
        )
        for a in range(3)
    )


def _objective(xs, ys):
    total = 0.0
    for i in range(3):
        total += math.fsum(x * r for x, r in zip(xs[i], _bell_rows(ys, i)))
    return total


def _bell_rows(vectors, i):
    """Bell row i of three vectors, one coordinate at a time."""
    return [_bell_row(coordinates, i) for coordinates in zip(*vectors)]


def _unit(vector, rng):
    length = math.hypot(*vector)
    while length < 1e-15:
        vector = [2 * rng.random() - 1 for _ in vector]
        length = math.hypot(*vector)
    return [v / length for v in vector]


def reference_alternating_ascent(seed, restarts=20, dim=6, max_sweeps=10_000, min_gain=1e-12):
    """alternating_ascent written plainly: each vector normalized by its
    norm, and every Bell row of Bob's vectors formed twice, once for the
    objective and once as a target."""
    best = None
    for k in range(restarts):
        rng = random.Random(seed + k)
        xs = [_unit([2 * rng.random() - 1 for _ in range(dim)], rng) for _ in range(3)]
        ys = [_unit([2 * rng.random() - 1 for _ in range(dim)], rng) for _ in range(3)]
        values = [_objective(xs, ys)]
        for _ in range(max_sweeps):
            xs = [_unit(_bell_rows(ys, i), rng) for i in range(3)]
            ys = [_unit(_bell_rows(xs, j), rng) for j in range(3)]
            values.append(_objective(xs, ys))
            if values[-1] - values[-2] < min_gain:
                break
        candidate = AscentResult(
            value=values[-1],
            strategy=VectorStrategy(xs, ys),
            sweep_values=tuple(values),
        )
        if best is None or candidate.value > best.value:
            best = candidate
    return best


# ---------------------------------------------------------------------------
# random inputs

#: Four alphabet sizes of 1-3 letters each.
SHAPES = st.tuples(*[st.integers(1, 3)] * 4)


def distributions(draw, count, size, values=st.integers(0, 7)):
    """count lists of size Fractions, each summing to 1, zeros included."""
    raw = draw(st.lists(values, min_size=count * size, max_size=count * size))
    rows = [raw[i : i + size] for i in range(0, count * size, size)]
    return [
        [F(v, sum(row)) for v in row] if sum(row) else [F(1)] + [F(0)] * (size - 1)
        for row in rows
    ]


def _one_way_box(draw, shape, direction):
    """A box that decomposes along direction: a random protocol recomposed
    by the reference, sender outputs of zero mass included."""
    na, nb, nx, ny = shape
    if direction is Direction.RIGHT_TO_LEFT:
        na, nb, nx, ny = nb, na, ny, nx
    # Mostly zeros, so that some sender outputs keep zero mass in a mixture.
    senders = iter(distributions(draw, na, nx, st.sampled_from([0, 0, 0, 1, 2, 7])))
    receivers = iter(distributions(draw, na * nb * nx, ny))
    sender = {a: dict(enumerate(next(senders))) for a in range(na)}
    receiver = {
        (a, b, x): dict(enumerate(next(receivers)))
        for a in range(na)
        for b in range(nb)
        for x in range(nx)
    }
    return reference_recompose(OneWayProtocol(direction, shape, sender, receiver))


@st.composite
def exact_tables(draw, shape):
    """Mixtures of a left-to-right box, a right-to-left box and random
    (signalling) rows, with weights that are often zero: no-signalling,
    one-way in either direction, and signalling tables all occur."""
    na, nb, nx, ny = shape
    random_rows = [p for row in distributions(draw, na * nb, nx * ny) for p in row]
    boxes = [
        _one_way_box(draw, shape, Direction.LEFT_TO_RIGHT),
        _one_way_box(draw, shape, Direction.RIGHT_TO_LEFT),
        StrategyTable(shape, tuple(random_rows)),
    ]
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=3, max_size=3).filter(sum))
    return StrategyTable(shape, reference_mix(boxes, [F(w, sum(weights)) for w in weights]))


def random_local_mixture(rng, shape=(3, 3, 3, 3), parts=6, den=24):
    """A no-signalling box by construction: a mixture of ``parts`` local
    deterministic boxes, weights in multiples of 1/den."""
    na, nb, nx, ny = shape
    tables = [
        deterministic_strategy(
            tuple(rng.randrange(nx) for _ in range(na)),
            tuple(rng.randrange(ny) for _ in range(nb)),
            shape,
        )
        for _ in range(parts)
    ]
    cuts = sorted(rng.randint(0, den) for _ in range(parts - 1))
    weights = [F(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])]
    return mix(tables, weights)


def random_maps(rng, outer_shape, inner_shape, calls=2, randomness=2, spill=0.0):
    """The fields of a random tabulated wiring, its maps as callables, and
    whether any map value fell just outside its alphabet, as each does with
    probability ``spill``."""
    oa, ob, ox, oy = outer_shape
    ia, ib, ix, iy = inner_shape
    spilled = False

    def value(size):
        nonlocal spilled
        if spill and rng.random() < spill:
            spilled = True
            return rng.choice((-1, size))
        return rng.randrange(size)

    def random_map(own_size, prior_size, priors_len, value_size):
        table = {
            (own, priors, r): value(value_size)
            for own in range(own_size)
            for priors in itertools.product(range(prior_size), repeat=priors_len)
            for r in range(randomness)
        }
        return lambda own, priors, r, t=table: t[(own, tuple(priors), r)]

    fields = SimpleNamespace(
        calls=calls,
        randomness=randomness,
        outer_shape=outer_shape,
        inner_shape=inner_shape,
        alice_inputs=tuple(random_map(oa, ix, k, ia) for k in range(calls)),
        bob_inputs=tuple(random_map(ob, iy, k, ib) for k in range(calls)),
        alice_output=random_map(oa, ix, calls, ox),
        bob_output=random_map(ob, iy, calls, oy),
    )
    return fields, spilled


def random_wiring(rng, outer_shape, inner_shape, calls=2, randomness=2):
    """A tabulated wiring whose every map value lies in its alphabet."""
    fields, _ = random_maps(rng, outer_shape, inner_shape, calls, randomness)
    return WiringProtocol(**vars(fields))
