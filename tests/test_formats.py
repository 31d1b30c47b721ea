"""Round trips and diagnostics for the box and wiring file formats."""

import gc
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgbgame.formats import (
    MAX_BOX_ENTRIES,
    BoxFormatError,
    WiringFormatError,
    box_from_json_dict,
    box_to_json_dict,
    dump_box,
    dump_wiring,
    json_text,
    load_box,
    load_box_file,
    load_wiring,
    probability_to_string,
    save_box,
    wiring_from_json_dict,
    wiring_to_json_dict,
)
from rgbgame.locality import pr_box
from rgbgame.quantum import quantum_strategy_table, singlet, trine_strategy
from rgbgame.strategies import StrategyTable, l1_distance, rgb0, rgrb
from rgbgame.wiring import WiringProtocol, evaluate_wiring, pr_from_rgrb, rgrb_from_pr

F = Fraction


def test_probability_strings():
    assert probability_to_string(F(1, 2)) == "1/2"
    assert probability_to_string(F(1)) == "1/1"
    assert probability_to_string(F(2, 4)) == "1/2"
    assert probability_to_string(0.5) == "0.5"
    assert probability_to_string(0.1) == "0.10000000000000001"


def test_box_document_layout():
    doc = box_to_json_dict(rgrb())
    assert doc["alphabets"] == [3, 3, 3, 3]
    # 9 rows x 2 supported pairs, zeros omitted, sorted by (a, b, x, y).
    assert len(doc["table"]) == 18
    keys = [(r["a"], r["b"], r["x"], r["y"]) for r in doc["table"]]
    assert keys == sorted(keys)
    assert all(r["p"] == "1/2" for r in doc["table"])


def test_exact_round_trips():
    for table in (rgrb(), rgb0(), pr_box()):
        text = dump_box(table)
        again = load_box(text)
        assert again.shape == table.shape
        assert l1_distance(again, table) == 0
        assert dump_box(again) == text  # canonical form is a fixed point


def test_float_round_trip():
    table = quantum_strategy_table(singlet(), trine_strategy(), trine_strategy())
    again = load_box(dump_box(table))
    assert not again.is_exact
    assert l1_distance(again, table) == 0  # %.17g reproduces doubles exactly


@st.composite
def random_tables(draw, exact):
    """Tables of random shape whose rows are random weights, normalised."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    na, nb, nx, ny = shape
    cells = list(itertools.product(range(nx), range(ny)))
    weight = st.integers(0, 5) if exact else st.floats(0, 1)
    entries = {}
    for a, b in itertools.product(range(na), range(nb)):
        weights = draw(
            st.lists(weight, min_size=len(cells), max_size=len(cells)).filter(sum)
        )
        total = sum(weights)
        for (x, y), w in zip(cells, weights):
            entries[(a, b, x, y)] = F(w, total) if exact else w / total
    return StrategyTable.from_dict(shape, entries)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(random_tables))
@example(StrategyTable((1, 1, 1, 1), (1.0,)))  # a float table stays a float table
def test_box_files_round_trip_byte_for_byte(table):
    text = dump_box(table)
    again = load_box(text)
    assert again.probs == table.probs
    assert dump_box(again) == text


def test_file_helpers(tmp_path):
    path = tmp_path / "box.json"
    save_box(rgrb(), path)
    assert l1_distance(load_box_file(path), rgrb()) == 0


def test_parser_accepts_plain_numbers():
    doc = {
        "alphabets": [1, 1, 2, 1],
        "table": [
            {"a": 0, "b": 0, "x": 0, "y": 0, "p": "0.25"},
            {"a": 0, "b": 0, "x": 1, "y": 0, "p": 0.75},
        ],
    }
    table = box_from_json_dict(doc)
    assert table.prob(0, 0, 0, 0) == 0.25
    # Any spelling Fraction reads is read to the same value; the canonical
    # ASCII "n/d" takes a path of its own.
    spellings = [
        ("2/4", F(1, 2)), (" 1/2", F(1, 2)), ("+1/2", F(1, 2)), ("\u0661/\u0662", F(1, 2)),
        ("1_0/30", F(1, 3)), ("0/7", F(0)), ("1", F(1)), ("1.0", 1.0), ("1/1", F(1)),
    ]
    for text, value in spellings:
        rest = "0.0" if isinstance(value, float) else probability_to_string(1 - value)
        doc["table"] = [{**doc["table"][0], "p": text}, {**doc["table"][1], "p": rest}]
        entry = box_from_json_dict(doc).prob(0, 0, 0, 0)
        assert (type(entry), entry) == (type(value), value)
    for text in ("1/0", "1/-2", "1 /2", "00/0"):
        doc["table"][0]["p"] = text
        with pytest.raises(BoxFormatError, match=re.escape(f"cannot parse probability {text!r}")):
            box_from_json_dict(doc)


class TestBoxDiagnostics:
    def test_not_an_object(self):
        with pytest.raises(BoxFormatError, match="JSON object"):
            box_from_json_dict([1, 2])

    def test_missing_and_unknown_keys(self):
        with pytest.raises(BoxFormatError, match="lacks"):
            box_from_json_dict({"alphabets": [1, 1, 1, 1]})
        with pytest.raises(BoxFormatError, match="unknown"):
            box_from_json_dict({"alphabets": [1, 1, 1, 1], "table": [], "extra": 1})

    def test_bad_alphabets(self):
        with pytest.raises(BoxFormatError, match="alphabets"):
            box_from_json_dict({"alphabets": [3, 3, 3], "table": []})
        with pytest.raises(BoxFormatError, match="alphabets"):
            box_from_json_dict({"alphabets": [3, 3, 3, 0], "table": []})

    def test_record_diagnostics_name_the_index(self):
        doc = {
            "alphabets": [1, 1, 2, 1],
            "table": [
                {"a": 0, "b": 0, "x": 0, "y": 0, "p": "1/2"},
                {"a": 0, "b": 0, "x": 5, "y": 0, "p": "1/2"},
            ],
        }
        with pytest.raises(BoxFormatError, match=r"table\[1\].*'x'"):
            box_from_json_dict(doc)

    def test_duplicate_entries(self):
        doc = {
            "alphabets": [1, 1, 2, 1],
            "table": [
                {"a": 0, "b": 0, "x": 0, "y": 0, "p": "1/2"},
                {"a": 0, "b": 0, "x": 0, "y": 0, "p": "1/2"},
            ],
        }
        with pytest.raises(BoxFormatError, match="duplicate"):
            box_from_json_dict(doc)

    def test_unparseable_probability(self):
        doc = {
            "alphabets": [1, 1, 1, 1],
            "table": [{"a": 0, "b": 0, "x": 0, "y": 0, "p": "one half"}],
        }
        with pytest.raises(BoxFormatError, match="cannot parse"):
            box_from_json_dict(doc)

    def test_rows_must_still_normalize(self):
        doc = {
            "alphabets": [1, 1, 2, 1],
            "table": [{"a": 0, "b": 0, "x": 0, "y": 0, "p": "1/3"}],
        }
        with pytest.raises(BoxFormatError):
            box_from_json_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(BoxFormatError, match="not valid JSON"):
            load_box("{")

    def test_sparse_box_is_refused_before_the_dense_build(self, monkeypatch):
        # A file of under 100 bytes declaring 40^4 entries: the missing row is
        # found from the records, without building the 2,560,000-entry table.
        def dense_build(shape, entries):
            raise AssertionError("the dense table was built")

        monkeypatch.setattr(StrategyTable, "from_dict", dense_build)
        text = json.dumps(
            {"alphabets": [40, 40, 40, 40], "table": [{"a": 0, "b": 0, "x": 0, "y": 0, "p": 1}]}
        )
        with pytest.raises(BoxFormatError, match=r"^row \(0,1\) sums to 0, not 1$"):
            load_box(text)

    def test_oversized_box_is_refused_before_the_dense_build(self, monkeypatch):
        # An 86-byte file whose one record covers its one row, but whose
        # dense table would hold a million entries.
        def dense_build(shape, entries):
            raise AssertionError("the dense table was built")

        monkeypatch.setattr(StrategyTable, "from_dict", dense_build)
        text = json.dumps(
            {"alphabets": [1, 1, 1000, 1000], "table": [{"a": 0, "b": 0, "x": 0, "y": 0, "p": 1}]}
        )
        assert len(text) == 86
        with pytest.raises(
            BoxFormatError,
            match=r"^alphabets \[1, 1, 1000, 1000\] give 1000000 entries, more than 65536$",
        ):
            load_box(text)

    @pytest.mark.parametrize(
        "alphabets, match",
        [([40, 40, 40, 40], r"^row \(0,1\) sums to 0"), ([1, 1, 1000, 1000], "1000000 entries")],
    )
    def test_refused_boxes_allocate_no_dense_table(self, alphabets, match):
        # The dense tables would hold 2,560,000 and 1,000,000 entries; the
        # reader refuses both from their one record, in well under a megabyte.
        record = {"a": 0, "b": 0, "x": 0, "y": 0, "p": 1}
        text = json.dumps({"alphabets": alphabets, "table": [record]})
        tracemalloc.start()
        try:
            with pytest.raises(BoxFormatError, match=match):
                load_box(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_box_at_the_size_limit_loads(self):
        assert MAX_BOX_ENTRIES == 2**16
        text = json.dumps(
            {"alphabets": [1, 1, 256, 256], "table": [{"a": 0, "b": 0, "x": 255, "y": 255, "p": 1}]}
        )
        table = load_box(text)
        assert table.shape == (1, 1, 256, 256)
        assert table.row(0, 0) == {(255, 255): 1}


# ---------------------------------------------------------------------------
# wirings


def test_wiring_round_trips_evaluate_identically():
    for build, base in ((pr_from_rgrb, rgrb()), (rgrb_from_pr, pr_box())):
        protocol = build()
        again = load_wiring(dump_wiring(protocol))
        assert again.calls == protocol.calls
        assert again.outer_shape == protocol.outer_shape
        direct = evaluate_wiring(protocol, base)
        reloaded = evaluate_wiring(again, base)
        assert l1_distance(direct, reloaded) == 0
        # Protocols are values: equal tables make equal, equally hashed protocols.
        for twin in (again, build.__wrapped__()):
            assert twin == protocol and hash(twin) == hash(protocol)


@st.composite
def random_wirings(draw):
    """Wirings whose every local map is a random table over its domain."""
    calls = draw(st.integers(0, 2))
    randomness = draw(st.integers(1, 2))
    outer = tuple(draw(st.integers(1, 3)) for _ in range(4))
    inner = tuple(draw(st.integers(1, 3)) for _ in range(4))
    oa, ob, ox, oy = outer
    _, _, ix, iy = inner

    def tabulated(own_size, prior_size, priors_len, value_size):
        domain = [
            (own, priors, r)
            for own in range(own_size)
            for priors in itertools.product(range(prior_size), repeat=priors_len)
            for r in range(randomness)
        ]
        values = draw(
            st.lists(
                st.integers(0, value_size - 1),
                min_size=len(domain),
                max_size=len(domain),
            )
        )
        table = dict(zip(domain, values))
        return lambda own, priors, r: table[(own, tuple(priors), r)]

    return WiringProtocol(
        calls=calls,
        randomness=randomness,
        outer_shape=outer,
        inner_shape=inner,
        alice_inputs=tuple(tabulated(oa, ix, k, inner[0]) for k in range(calls)),
        bob_inputs=tuple(tabulated(ob, iy, k, inner[1]) for k in range(calls)),
        alice_output=tabulated(oa, ix, calls, ox),
        bob_output=tabulated(ob, iy, calls, oy),
    )


@settings(max_examples=150, deadline=None)
@given(random_wirings())
def test_wiring_files_round_trip_byte_for_byte(protocol):
    text = dump_wiring(protocol)
    assert dump_wiring(load_wiring(text)) == text
    assert load_wiring(text) == protocol
    assert hash(load_wiring(text)) == hash(protocol)


def test_wiring_document_layout():
    doc = wiring_to_json_dict(rgrb_from_pr())
    assert doc["calls"] == 2
    assert doc["outer_alphabets"] == [3, 3, 3, 3]
    assert doc["inner_alphabets"] == [2, 2, 2, 2]
    # Second-call input maps see one earlier output.
    assert len(doc["alice_inputs"][0]) == 3      # 3 colours, no priors
    assert len(doc["alice_inputs"][1]) == 6      # 3 colours x 2 prior bits
    assert len(doc["alice_output"]) == 12        # 3 colours x 4 bit pairs
    assert all(len(row) == 4 for row in doc["alice_output"])


def test_wiring_totality_is_enforced():
    doc = wiring_to_json_dict(pr_from_rgrb())
    doc["alice_output"] = doc["alice_output"][:-1]
    with pytest.raises(WiringFormatError, match="covers"):
        wiring_from_json_dict(doc)


def test_wiring_duplicate_and_range_checks():
    doc = wiring_to_json_dict(pr_from_rgrb())
    doc["bob_output"][0] = list(doc["bob_output"][1])
    with pytest.raises(WiringFormatError, match="duplicate"):
        wiring_from_json_dict(doc)

    doc = wiring_to_json_dict(pr_from_rgrb())
    doc["alice_output"][0][3] = 7
    # The protocol checks the value and names the map and the domain point.
    message = r"^alice_output map sends \(0, \(0,\), 0\) to 7, not an integer in range\(2\)$"
    with pytest.raises(WiringFormatError, match=message):
        wiring_from_json_dict(doc)


@pytest.mark.parametrize(
    "path, match",
    [
        (("calls",), "calls"),
        (("randomness",), "randomness"),
        (("alice_output", 0, 0), "record"),          # own input
        (("bob_output", 1, 1, 0), "priors"),          # an earlier output
        (("alice_inputs", 0, 1, 2), "record"),        # shared randomness
        (("bob_inputs", 0, 0, 3), "record"),          # the map's value
    ],
)
def test_wiring_rejects_json_booleans(path, match):
    doc = wiring_to_json_dict(pr_from_rgrb())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    # The boolean equals the integer it replaces, so only its type is wrong.
    assert target[last] in (0, 1)
    target[last] = bool(target[last])
    with pytest.raises(WiringFormatError, match=match):
        load_wiring(json.dumps(doc))


def test_wiring_dump_rejects_boolean_map_values():
    # The protocol refuses the map when it is built, so no document is written.
    base = pr_from_rgrb()
    with pytest.raises(ValueError, match="not an integer"):
        WiringProtocol(
            base.calls,
            base.randomness,
            base.outer_shape,
            base.inner_shape,
            base.alice_inputs,
            base.bob_inputs,
            alice_output=lambda own, priors, r: priors[0] == 1,
            bob_output=base.bob_output,
        )


def test_wiring_key_checks():
    with pytest.raises(WiringFormatError, match="lacks"):
        wiring_from_json_dict({"calls": 1})
    doc = wiring_to_json_dict(pr_from_rgrb())
    doc["surprise"] = True
    with pytest.raises(WiringFormatError, match="unknown"):
        wiring_from_json_dict(doc)
    with pytest.raises(WiringFormatError, match="not valid JSON"):
        load_wiring("nope")


def _outer_wiring(outer_alphabets):
    """A document of a 0-call wiring whose outputs are all 0."""
    oa, ob = outer_alphabets[:2]
    return {
        "calls": 0,
        "randomness": 1,
        "outer_alphabets": outer_alphabets,
        "inner_alphabets": [1, 1, 1, 1],
        "alice_inputs": [],
        "bob_inputs": [],
        "alice_output": [[a, [], 0, 0] for a in range(oa)],
        "bob_output": [[b, [], 0, 0] for b in range(ob)],
    }


def test_oversized_wiring_is_refused_before_any_map_is_read(monkeypatch, tmp_path, capsys):
    from rgbgame import cli, formats

    def read_map(*args):
        raise AssertionError("a map was read")

    monkeypatch.setattr(formats, "_read_map", read_map)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_outer_wiring([1000, 1000, 1, 1])))
    with pytest.raises(
        WiringFormatError,
        match=r"^outer_alphabets \[1000, 1000, 1, 1\] give 1000000 entries, more than 65536$",
    ):
        load_wiring(path.read_text())
    box = tmp_path / "unit.box"
    save_box(StrategyTable((1, 1, 1, 1), (F(1),)), box)
    assert cli.main(["apply-wiring", str(path), str(box)]) == 2
    assert "give 1000000 entries, more than 65536" in capsys.readouterr().err


def test_wiring_at_the_size_limit_loads():
    protocol = wiring_from_json_dict(_outer_wiring([256, 256, 1, 1]))
    assert protocol.outer_shape == (256, 256, 1, 1)
    assert protocol.alice_output[255] == 0


def _parity_wiring_doc(calls):
    """A wiring on 1x1x2x2 boxes whose answers are the parities of its calls'
    outputs: one branch per outcome of the calls, 4**calls in all."""
    zero, parity = (lambda own, priors, r: 0), (lambda own, priors, r: sum(priors) % 2)
    protocol = WiringProtocol(
        calls, 1, (1, 1, 2, 2), (1, 1, 2, 2), (zero,) * calls, (zero,) * calls, parity, parity
    )
    return wiring_to_json_dict(protocol)


def _deep_wiring_doc(calls):
    """A document of ``calls`` calls on 1x1x2x2 boxes whose maps are empty."""
    doc = {**_outer_wiring([1, 1, 2, 2]), "calls": calls, "inner_alphabets": [1, 1, 2, 2]}
    doc["alice_inputs"] = doc["bob_inputs"] = [[]] * calls
    return doc


def test_wiring_with_too_many_branches_is_refused_before_any_map_is_read(
    monkeypatch, tmp_path, capsys
):
    # 4**9 = 262,144 branches: evaluate_wiring would keep every one.
    from rgbgame import cli, formats

    def read_map(*args):
        raise AssertionError("a map was read")

    monkeypatch.setattr(formats, "_read_map", read_map)
    for calls in (9, 10_000):
        with pytest.raises(
            WiringFormatError,
            match=f"^randomness, outer inputs and {calls} calls give more than 65536 branches$",
        ):
            wiring_from_json_dict(_deep_wiring_doc(calls))
    path, box = tmp_path / "deep.json", tmp_path / "uniform.box"
    path.write_text(json.dumps(_deep_wiring_doc(9)))
    save_box(StrategyTable((1, 1, 2, 2), (F(1, 4),) * 4), box)
    assert cli.main(["apply-wiring", str(path), str(box)]) == 2
    assert "9 calls give more than 65536 branches" in capsys.readouterr().err


def test_wiring_at_the_branch_limit_loads_and_evaluates():
    # 4**8 = 65,536 branches, exactly the limit.
    protocol = wiring_from_json_dict(_parity_wiring_doc(8))
    uniform = StrategyTable((1, 1, 2, 2), (F(1, 4),) * 4)
    assert evaluate_wiring(protocol, uniform).probs == (F(1, 4),) * 4


@pytest.mark.parametrize("build, branches", [(pr_from_rgrb, 36), (rgrb_from_pr, 144)])
def test_built_in_wirings_are_within_the_branch_limit(build, branches):
    protocol = build()
    oa, ob, _, _ = protocol.outer_shape
    _, _, ix, iy = protocol.inner_shape
    assert protocol.randomness * oa * ob * (ix * iy) ** protocol.calls == branches
    again = wiring_from_json_dict(wiring_to_json_dict(protocol))
    assert dump_wiring(again) == dump_wiring(protocol)


def test_wiring_json_text_round_trip():
    text = dump_wiring(pr_from_rgrb())
    assert json.loads(text)["randomness"] == 1
    again = load_wiring(text)
    assert dump_wiring(again) == text


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(random_tables), random_wirings())
def test_dumps_match_json_dumps_byte_for_byte(table, protocol):
    assert dump_box(table) == json.dumps(box_to_json_dict(table), indent=2) + "\n"
    assert dump_wiring(protocol) == json.dumps(wiring_to_json_dict(protocol), indent=2) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps_on_any_document(value):
    assert json_text(value) == json.dumps(value, indent=2) + "\n"


def test_dumps_leave_no_cyclic_garbage():
    box, protocol = rgrb(), rgrb_from_pr()
    gc.collect()
    gc.disable()
    try:
        for _ in range(4):
            dump_box(box)
            dump_wiring(protocol)
        assert gc.collect() == 0
    finally:
        gc.enable()
