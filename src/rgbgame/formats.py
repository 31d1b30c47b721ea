"""JSON interchange for strategy tables and wirings.

A box file stores the four alphabet sizes and the nonzero table entries,
sorted by (a, b, x, y) with zeros omitted so equal tables serialize to equal
bytes.  Probabilities are written as fractions in lowest terms ("2/3") for
exact tables and as 17-significant-digit decimals for float tables, which
round-trips IEEE doubles exactly (1.0 is written "1.0", so it stays a float).

A wiring file stores the call count, the shared-randomness alphabet, both
box shapes, and every local map tabulated over its full finite domain as
[own_input, [earlier_outputs...], randomness, value] records.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_string

import rgbgame  # rgbgame.WiringProtocol loads wiring when first read, not with this module

from .strategies import StrategyTable, probability_to_string


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


def _is_int(value) -> bool:
    """An integer in the document; JSON true/false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_alphabets(value, what: str, error_cls) -> tuple[int, int, int, int]:
    if (
        not isinstance(value, list)
        or len(value) != 4
        or not all(_is_int(n) and n >= 1 for n in value)
    ):
        raise error_cls(f"{what} must be a list of four positive integers")
    return tuple(value)


# ---------------------------------------------------------------------------
# boxes


def _entry_text(p) -> str:
    # %.17g writes the float 1.0 as "1", which would load back as exact.
    text = probability_to_string(p)
    return text + ".0" if isinstance(p, float) and text.isdigit() else text


def box_to_json_dict(table: StrategyTable) -> dict:
    records = [
        {"a": a, "b": b, "x": x, "y": y, "p": _entry_text(p)}
        for a, b in table.inputs()
        for (x, y), p in table.row(a, b).items()
    ]
    return {"alphabets": list(table.shape), "table": records}


def box_from_json_dict(data) -> StrategyTable:
    if not isinstance(data, dict):
        raise BoxFormatError("box document must be a JSON object")
    missing = {"alphabets", "table"} - data.keys()
    if missing:
        raise BoxFormatError(f"box document lacks key(s) {sorted(missing)}")
    unknown = data.keys() - {"alphabets", "table"}
    if unknown:
        raise BoxFormatError(f"box document has unknown key(s) {sorted(unknown)}")

    shape = _read_alphabets(data["alphabets"], "alphabets", BoxFormatError)

    records = data["table"]
    if not isinstance(records, list):
        raise BoxFormatError("table must be a list of records")
    names = ("a", "b", "x", "y")
    entries: dict[tuple[int, int, int, int], object] = {}
    for i, record in enumerate(records):
        where = f"table[{i}]"
        if not isinstance(record, dict):
            raise BoxFormatError(f"{where}: record must be an object")
        if set(record) != {"a", "b", "x", "y", "p"}:
            raise BoxFormatError(
                f"{where}: record must have exactly the keys a, b, x, y, p"
            )
        key = []
        for name, size in zip(names, shape):
            v = record[name]
            if not _is_int(v):
                raise BoxFormatError(f"{where}: field {name!r} must be an integer")
            if not 0 <= v < size:
                raise BoxFormatError(
                    f"{where}: field {name!r} = {v} outside range({size})"
                )
            key.append(v)
        key = tuple(key)
        if key in entries:
            raise BoxFormatError(f"{where}: duplicate entry for (a,b,x,y) = {key}")
        entries[key] = _parse_probability(record["p"], f"{where}: field 'p'")

    # A row without records sums to 0: refuse it before building the dense
    # table, whose size is the product of the declared alphabets.
    covered = {key[:2] for key in entries}
    for a, b in itertools.product(range(shape[0]), range(shape[1])):
        if (a, b) not in covered:
            raise BoxFormatError(f"row ({a},{b}) sums to 0, not 1")
    if math.prod(shape) > MAX_BOX_ENTRIES:
        raise BoxFormatError(
            f"alphabets {list(shape)} give {math.prod(shape)} entries, more than {MAX_BOX_ENTRIES}"
        )
    try:
        return StrategyTable.from_dict(shape, entries)
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


def _tabulate(fn, own_size, prior_size, priors_len, randomness, value_size, kind):
    rows = []
    for own in range(own_size):
        for priors in itertools.product(range(prior_size), repeat=priors_len):
            for r in range(randomness):
                value = fn(own, priors, r)
                if not (_is_int(value) and 0 <= value < value_size):
                    raise WiringFormatError(
                        f"{kind} map sends ({own}, {priors}, {r}) to {value!r}, "
                        f"not an integer in range({value_size})"
                    )
                rows.append([own, list(priors), r, value])
    return rows


def wiring_to_json_dict(protocol: rgbgame.WiringProtocol) -> dict:
    oa, ob, ox, oy = protocol.outer_shape
    ia, ib, ix, iy = protocol.inner_shape
    return {
        "calls": protocol.calls,
        "randomness": protocol.randomness,
        "outer_alphabets": list(protocol.outer_shape),
        "inner_alphabets": list(protocol.inner_shape),
        "alice_inputs": [
            _tabulate(fn, oa, ix, k, protocol.randomness, ia, f"alice_inputs[{k}]")
            for k, fn in enumerate(protocol.alice_inputs)
        ],
        "bob_inputs": [
            _tabulate(fn, ob, iy, k, protocol.randomness, ib, f"bob_inputs[{k}]")
            for k, fn in enumerate(protocol.bob_inputs)
        ],
        "alice_output": _tabulate(
            protocol.alice_output, oa, ix, protocol.calls, protocol.randomness, ox,
            "alice_output",
        ),
        "bob_output": _tabulate(
            protocol.bob_output, ob, iy, protocol.calls, protocol.randomness, oy,
            "bob_output",
        ),
    }


def _read_map(rows, own_size, prior_size, priors_len, randomness, value_size, kind):
    """Turn tabulated rows back into a callable, checking totality and ranges."""
    if not isinstance(rows, list):
        raise WiringFormatError(f"{kind} must be a list of records")
    table = {}
    for i, row in enumerate(rows):
        where = f"{kind}[{i}]"
        if (
            not isinstance(row, list)
            or len(row) != 4
            or not _is_int(row[0])
            or not isinstance(row[1], list)
            or not _is_int(row[2])
            or not _is_int(row[3])
        ):
            raise WiringFormatError(
                f"{where}: record must be [own, [priors...], randomness, value]"
            )
        own, priors, r, value = row[0], tuple(row[1]), row[2], row[3]
        if not 0 <= own < own_size:
            raise WiringFormatError(f"{where}: own input {own} outside range({own_size})")
        if len(priors) != priors_len or not all(
            _is_int(v) and 0 <= v < prior_size for v in priors
        ):
            raise WiringFormatError(
                f"{where}: priors {list(priors)} are not {priors_len} "
                f"values in range({prior_size})"
            )
        if not 0 <= r < randomness:
            raise WiringFormatError(f"{where}: randomness {r} outside range({randomness})")
        if not 0 <= value < value_size:
            raise WiringFormatError(f"{where}: value {value} outside range({value_size})")
        point = (own, priors, r)
        if point in table:
            raise WiringFormatError(f"{where}: duplicate entry for {point}")
        table[point] = value
    expected = own_size * prior_size**priors_len * randomness
    if len(table) != expected:
        raise WiringFormatError(
            f"{kind} covers {len(table)} of {expected} domain points"
        )

    def fn(own, priors, r, _table=table):
        return _table[(own, tuple(priors), r)]

    return fn


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
    oa, ob, ox, oy = outer_shape
    ia, ib, ix, iy = inner_shape

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

    return rgbgame.WiringProtocol(
        calls=calls,
        randomness=randomness,
        outer_shape=outer_shape,
        inner_shape=inner_shape,
        alice_inputs=tuple(
            _read_map(rows, oa, ix, k, randomness, ia, f"alice_inputs[{k}]")
            for k, rows in enumerate(data["alice_inputs"])
        ),
        bob_inputs=tuple(
            _read_map(rows, ob, iy, k, randomness, ib, f"bob_inputs[{k}]")
            for k, rows in enumerate(data["bob_inputs"])
        ),
        alice_output=_read_map(
            data["alice_output"], oa, ix, calls, randomness, ox, "alice_output"
        ),
        bob_output=_read_map(
            data["bob_output"], ob, iy, calls, randomness, oy, "bob_output"
        ),
    )


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
