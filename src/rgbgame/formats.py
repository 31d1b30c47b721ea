"""JSON interchange for strategy tables and wirings.

A box file stores the four alphabet sizes and the nonzero table entries,
sorted by (a, b, x, y) with zeros omitted so equal tables serialize to equal
bytes.  Probabilities are written as fractions in lowest terms ("2/3") for
exact tables and as 17-significant-digit decimals for float tables, which
round-trips IEEE doubles exactly (1.0 is written "1.0", so it stays a float).
Exact entries are written from, and read into, the table's integer
numerators over its least common denominator; the bytes are the same.

A wiring file stores the call count, the shared-randomness alphabet, both
box shapes, and every local map as [own_input, [earlier_outputs...],
randomness, value] records, one per point of its finite domain, in the order
of the map's table in WiringProtocol.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_string

import rgbgame  # rgbgame.WiringProtocol loads wiring when first read, not with this module

from .strategies import _ZERO, StrategyTable, _is_int, _shape, probability_to_string


#: Most entries a box document's dense table, or a wiring's outer table, may
#: have: |A| |B| |X| |Y|.  Also the most branches a wiring document may give
#: evaluate_wiring: randomness |A| |B| (|X'| |Y'|)^calls, with A, B the outer
#: inputs and X', Y' the inner outputs.
MAX_BOX_ENTRIES = 2**16


class BoxFormatError(ValueError):
    """A box document is malformed; the message pinpoints the record."""


class WiringFormatError(ValueError):
    """A wiring document is malformed; the message pinpoints the record."""


def _parse_probability(value, where: str):
    # An exact entry is read as the pair (numerator, denominator).
    if isinstance(value, bool):
        raise BoxFormatError(f"{where}: probability must be a number or string")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            # The canonical spelling, ASCII digits "n/d", is read with int() alone.
            num, _, den = value.partition("/")
            if value.isascii() and num.isdigit() and den.isdigit() and int(den):
                return int(num), int(den)
            text = value.strip()
            if "/" in text or text.lstrip("+-").isdigit():
                p = Fraction(text)
                return p.numerator, p.denominator
            return float(text)
        except (ValueError, ZeroDivisionError):
            raise BoxFormatError(f"{where}: cannot parse probability {value!r}") from None
    raise BoxFormatError(f"{where}: probability must be a number or string")


def _read_alphabets(value, what: str, error_cls) -> tuple[int, int, int, int]:
    # A string or an object would be read by its characters or its keys.
    try:
        return _shape(value if isinstance(value, list) else (value,))
    except ValueError as err:
        raise error_cls(f"{what}: {err}") from None


# ---------------------------------------------------------------------------
# boxes


def _entry_text(p) -> str:
    # %.17g writes the float 1.0 as "1", which would load back as exact.
    text = probability_to_string(p)
    return text + ".0" if isinstance(p, float) and text.isdigit() else text


def box_to_json_dict(table: StrategyTable) -> dict:
    cells, den = table._exact or (table.probs, None)
    text = _entry_text
    if den:
        # Each distinct numerator's entry in lowest terms, written once.
        text = {n: f"{n // (g := math.gcd(n, den))}/{den // g}" for n in set(cells)}.__getitem__
    keys = itertools.product(*map(range, table.shape))
    records = [
        {"a": a, "b": b, "x": x, "y": y, "p": text(v)} for (a, b, x, y), v in zip(keys, cells) if v
    ]
    return {"alphabets": list(table.shape), "table": records}


def _refuse_record(where: str, record, shape) -> None:
    """Raise the error that names what is wrong with a box record."""
    if not isinstance(record, dict):
        raise BoxFormatError(f"{where}: record must be an object")
    if record.keys() != _RECORD_KEYS:
        raise BoxFormatError(f"{where}: record must have exactly the keys a, b, x, y, p")
    for name, size in zip("abxy", shape):
        v = record[name]
        if type(v) is not int:
            raise BoxFormatError(f"{where}: field {name!r} must be an integer")
        if not 0 <= v < size:
            raise BoxFormatError(f"{where}: field {name!r} = {v} outside range({size})")


_RECORD_KEYS = {"a", "b", "x", "y", "p"}


def box_from_json_dict(data) -> StrategyTable:
    if not isinstance(data, dict):
        raise BoxFormatError("box document must be a JSON object")
    missing = {"alphabets", "table"} - data.keys()
    if missing:
        raise BoxFormatError(f"box document lacks key(s) {sorted(missing)}")
    unknown = data.keys() - {"alphabets", "table"}
    if unknown:
        raise BoxFormatError(f"box document has unknown key(s) {sorted(unknown)}")

    shape = na, nb, nx, ny = _read_alphabets(data["alphabets"], "alphabets", BoxFormatError)

    records = data["table"]
    if not isinstance(records, list):
        raise BoxFormatError("table must be a list of records")
    # Each entry under its index in the dense row-major table, and each
    # distinct probability text parsed once.
    entries, parsed = {}, {}
    for i, record in enumerate(records):
        if not (isinstance(record, dict) and record.keys() == _RECORD_KEYS):
            _refuse_record(f"table[{i}]", record, shape)
        a, b, x, y = record["a"], record["b"], record["x"], record["y"]
        if not (type(a) is type(b) is type(x) is type(y) is int
                and 0 <= a < na and 0 <= b < nb and 0 <= x < nx and 0 <= y < ny):
            _refuse_record(f"table[{i}]", record, shape)
        index = ((a * nb + b) * nx + x) * ny + y
        if index in entries:
            raise BoxFormatError(f"table[{i}]: duplicate entry for (a,b,x,y) = {(a, b, x, y)}")
        p = record["p"]
        entry = parsed.get(p) if type(p) is str else None
        if entry is None:
            entry = parsed[p] = _parse_probability(p, f"table[{i}]: field 'p'")
        entries[index] = entry

    # A row without records sums to 0: refuse it before building the dense
    # table, whose size is the product of the declared alphabets.
    covered = {index // (nx * ny) for index in entries}
    for row, (a, b) in enumerate(itertools.product(range(na), range(nb))):
        if row not in covered:
            raise BoxFormatError(f"row ({a},{b}) sums to 0, not 1")
    if math.prod(shape) > MAX_BOX_ENTRIES:
        raise BoxFormatError(
            f"alphabets {list(shape)} give {math.prod(shape)} entries, more than {MAX_BOX_ENTRIES}"
        )
    # Numerators over the entries' least common denominator, unless one is a float.
    floats = any(type(p) is float for p in entries.values())
    den = None if floats else math.lcm(*{p[1] for p in entries.values()})
    cells = [_ZERO if floats else 0] * math.prod(shape)
    for index, p in entries.items():
        if floats:
            cells[index] = p if type(p) is float else Fraction(*p)
        else:
            cells[index] = p[0] * (den // p[1])
    try:
        return StrategyTable._from_numerators(shape, cells, den)
    except ValueError as err:
        raise BoxFormatError(str(err)) from err


def _write_json(value, pad: str, out: list) -> None:
    """Append the text of json.dumps(value, indent=2) to out, nested at pad.

    With an indent, json.dumps uses the pure-Python encoder, whose closures
    leave reference cycles behind on every call; this writer leaves none.
    """
    kind = type(value)
    if kind is int:
        out.append(str(value))
    elif kind is str:
        out.append(_encode_string(value))
    elif not value or kind not in (dict, list, tuple):
        out.append(json.dumps(value))  # empty containers and other scalars
    elif kind is dict:
        inner = sep = pad + "  "
        out.append("{")
        for key, item in value.items():
            out += (sep, _encode_string(key), ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out += (pad, "}")
    else:
        inner = sep = pad + "  "
        out.append("[")
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out += (pad, "]")


def json_text(data) -> str:
    """The text of json.dumps(data, indent=2) with a final newline."""
    out: list = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


def dump_box(table: StrategyTable) -> str:
    return json_text(box_to_json_dict(table))


def load_box(text: str) -> StrategyTable:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise BoxFormatError(f"not valid JSON: {err}") from err
    return box_from_json_dict(data)


def save_box(table: StrategyTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_box(table))


def load_box_file(path) -> StrategyTable:
    with open(path) as fh:
        return load_box(fh.read())


# ---------------------------------------------------------------------------
# wirings

_WIRING_KEYS = {
    "calls",
    "randomness",
    "outer_alphabets",
    "inner_alphabets",
    "alice_inputs",
    "bob_inputs",
    "alice_output",
    "bob_output",
}


def wiring_to_json_dict(protocol: rgbgame.WiringProtocol) -> dict:
    calls, randomness = protocol.calls, protocol.randomness
    tables = (
        *protocol.alice_inputs, *protocol.bob_inputs, protocol.alice_output, protocol.bob_output
    )
    maps = rgbgame.wiring._maps(calls, randomness, protocol.outer_shape, protocol.inner_shape)
    records = [
        [[own, list(priors), r, value] for (own, priors, r), value in zip(points(), table)]
        for table, (_, points, *_) in zip(tables, maps)
    ]
    return {
        "calls": calls,
        "randomness": randomness,
        "outer_alphabets": list(protocol.outer_shape),
        "inner_alphabets": list(protocol.inner_shape),
        "alice_inputs": records[:calls],
        "bob_inputs": records[calls:-2],
        "alice_output": records[-2],
        "bob_output": records[-1],
    }


def _read_map(rows, name, points) -> tuple:
    """The table of one map's records, which hold each of its domain points
    once; the protocol checks the values."""
    if not isinstance(rows, list):
        raise WiringFormatError(f"{name} must be a list of records")
    index = {point: i for i, point in enumerate(points)}
    table = [None] * len(points)
    for i, row in enumerate(rows):
        if not (
            isinstance(row, list) and len(row) == 4 and isinstance(row[1], list)
            and type(row[0]) is type(row[2]) is type(row[3]) is int
            and {*map(type, row[1])} <= {int}
        ):
            raise WiringFormatError(
                f"{name}[{i}]: record must be [own, [priors...], randomness, value]"
            )
        point = (row[0], tuple(row[1]), row[2])
        at = index.get(point)
        if at is None:
            raise WiringFormatError(f"{name}[{i}]: {point} is not a point of the map's domain")
        if table[at] is not None:
            raise WiringFormatError(f"{name}[{i}]: duplicate entry for {point}")
        table[at] = row[3]
    if None in table:
        covered = len(table) - table.count(None)
        raise WiringFormatError(f"{name} covers {covered} of {len(table)} domain points")
    return tuple(table)


def wiring_from_json_dict(data) -> rgbgame.WiringProtocol:
    if not isinstance(data, dict):
        raise WiringFormatError("wiring document must be a JSON object")
    missing = _WIRING_KEYS - data.keys()
    if missing:
        raise WiringFormatError(f"wiring document lacks key(s) {sorted(missing)}")
    unknown = data.keys() - _WIRING_KEYS
    if unknown:
        raise WiringFormatError(f"wiring document has unknown key(s) {sorted(unknown)}")

    calls = data["calls"]
    randomness = data["randomness"]
    if not _is_int(calls) or calls < 0:
        raise WiringFormatError("calls must be a nonnegative integer")
    if not _is_int(randomness) or randomness < 1:
        raise WiringFormatError("randomness must be a positive integer")

    outer_shape = _read_alphabets(data["outer_alphabets"], "outer_alphabets", WiringFormatError)
    inner_shape = _read_alphabets(data["inner_alphabets"], "inner_alphabets", WiringFormatError)
    # The outer table, and evaluate_wiring's work, grow with its entries.
    if math.prod(outer_shape) > MAX_BOX_ENTRIES:
        raise WiringFormatError(
            f"outer_alphabets {list(outer_shape)} give {math.prod(outer_shape)} entries, "
            f"more than {MAX_BOX_ENTRIES}"
        )
    oa, ob, _, _ = outer_shape
    _, _, ix, iy = inner_shape

    for key in ("alice_inputs", "bob_inputs"):
        if not isinstance(data[key], list) or len(data[key]) != calls:
            raise WiringFormatError(f"{key} must list one map per call ({calls})")
    # evaluate_wiring keeps every branch of the calls; stop multiplying once
    # past the limit, so a long ``calls`` never builds a huge integer.
    branches = randomness * oa * ob
    for _ in range(calls):
        if branches > MAX_BOX_ENTRIES:
            break
        branches *= ix * iy
    if branches > MAX_BOX_ENTRIES:
        raise WiringFormatError(
            f"randomness, outer inputs and {calls} calls give more than {MAX_BOX_ENTRIES} branches"
        )

    rows = (*data["alice_inputs"], *data["bob_inputs"], data["alice_output"], data["bob_output"])
    maps = rgbgame.wiring._maps(calls, randomness, outer_shape, inner_shape)
    tables = [
        _read_map(map_rows, name, points()) for map_rows, (name, points, *_) in zip(rows, maps)
    ]
    try:
        return rgbgame.WiringProtocol(
            calls, randomness, outer_shape, inner_shape,
            tables[:calls], tables[calls:-2], *tables[-2:],
        )
    except ValueError as err:
        raise WiringFormatError(str(err)) from err


def dump_wiring(protocol: rgbgame.WiringProtocol) -> str:
    return json_text(wiring_to_json_dict(protocol))


def load_wiring(text: str) -> rgbgame.WiringProtocol:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise WiringFormatError(f"not valid JSON: {err}") from err
    return wiring_from_json_dict(data)


def save_wiring(protocol: rgbgame.WiringProtocol, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_wiring(protocol))


def load_wiring_file(path) -> rgbgame.WiringProtocol:
    with open(path) as fh:
        return load_wiring(fh.read())
