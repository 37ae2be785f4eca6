import pytest
from hypothesis import example, given, settings, strategies as st

import dncap as d
from dncap.cli import main
from dncap.errors import SpecFileError
from dncap.specfile import parse_system
from dncap.systems import parse_weight
from conftest import outcome
from oracles import reference_fsm_rows


def fsm_doc(rows, states=3):
    return {"kind": "fsm", "states": states, "start": 0, "transitions": rows}


def count_symbols(monkeypatch) -> list:
    built = []
    post_init = d.Symbol.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(d.Symbol, "__post_init__", counted)
    return built


def test_each_distinct_pair_builds_one_symbol(monkeypatch):
    pairs = [(f"s{k}", ("1", "3/2", "0.25")[k % 3]) for k in range(12)]
    rows = [
        {"from": state, "label": label, "weight": weight, "to": (state + k + 1) % 100}
        for state in range(100) for k, (label, weight) in enumerate(pairs)
    ]
    built = count_symbols(monkeypatch)
    fsm = parse_system(fsm_doc(rows, states=100)).fsm
    assert len(fsm.transitions) == 1200
    assert len(built) == 12
    assert {id(sym) for _, sym, _ in fsm.transitions} == {id(sym) for sym in built}
    assert [(src, sym.label, sym.weight, dst) for src, sym, dst in fsm.transitions] == [
        (row["from"], row["label"], parse_weight(row["weight"]), row["to"])
        for row in rows
    ]


def test_memoryless_symbols_are_built_once_per_pair(monkeypatch):
    built = count_symbols(monkeypatch)
    doc = {"kind": "memoryless", "symbols": [
        {"label": "a", "weight": "1"}, {"label": "b", "weight": "2"},
        {"label": "a", "weight": "1"},
    ]}
    with pytest.raises(SpecFileError, match="^spec.symbols: alphabet labels must be distinct$"):
        parse_system(doc)
    assert len(built) == 2


def test_a_repeated_bad_weight_is_reported_at_its_first_row():
    rows = [{"from": 0, "label": "a", "weight": "1", "to": 0} for _ in range(10)]
    for i in (3, 7):
        rows[i] = {"from": 0, "label": "b", "weight": "zero", "to": 0}
    with pytest.raises(SpecFileError) as caught:
        parse_system(fsm_doc(rows, states=1))
    assert str(caught.value) == (
        "spec.transitions[3].weight: not a valid rational weight: 'zero'"
    )
    doc = {"kind": "memoryless", "symbols": [rows[0], rows[3], rows[7]]}
    with pytest.raises(SpecFileError, match=r"^spec.symbols\[1\].weight: not a valid"):
        parse_system(doc)


@pytest.mark.parametrize("doc, message", [
    (fsm_doc([{"from": 0.5, "label": "a", "weight": "1", "to": 0}]),
     "spec.transitions[0].from: expected an integer, got float"),
    (fsm_doc([{"from": 0, "label": "a", "weight": 1, "to": 0}]),
     "spec.transitions[0].weight: expected a string, got int"),
    (fsm_doc({"from": 0}), "spec.transitions: expected an array, got dict"),
    ({"kind": None}, "spec.kind: expected a string, got NoneType"),
])
def test_type_errors_name_the_json_type(doc, message):
    with pytest.raises(SpecFileError) as caught:
        parse_system(doc)
    assert str(caught.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"kind": "memoryless", "symbols": ["a"]},
     "spec.symbols[0]: symbol entries must be objects"),
    ([1], "spec document must be a JSON object"),
    ({"kind": "pda"},
     "spec.kind: unknown kind 'pda', want one of ('memoryless', 'fsm', 'builtin')"),
    ({"kind": "builtin", "name": "motzkin"},
     "spec.name: unknown builtin 'motzkin', want one of ('dyck_prefix', 'rll')"),
    ({"kind": "builtin", "name": "rll", "d": 3, "k": 1},
     "spec: need 0 <= d < k, got d=3, k=1"),
], ids=["symbol_entry", "not_an_object", "kind", "builtin", "rll_bounds"])
def test_spec_errors_exit_one_with_their_message(tmp_spec, capsys, doc, message):
    code = main(["capacity", tmp_spec(doc)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_missing_spec_file_exits_one(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code = main(["capacity", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, where", [
    (fsm_doc([{"from": 0, "label": "a", "weight": "1", "to": 0},
              {"from": 0, "label": "", "weight": "1", "to": 0}], states=1),
     "spec.transitions[1].label"),
    ({"kind": "memoryless", "symbols": [{"label": "a", "weight": "1"},
                                        {"label": "", "weight": "1"}]},
     "spec.symbols[1].label"),
], ids=["fsm", "memoryless"])
def test_an_empty_label_is_reported_at_the_label(tmp_spec, capsys, doc, where):
    code = main(["capacity", tmp_spec(doc)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {where}: symbol label must be a nonempty string\n"


@pytest.mark.parametrize("doc, where", [
    ({"kind": "memoryless", "symbols": [{"label": "a\tb", "weight": "1"},
                                        {"label": "c\nd", "weight": "2"}]},
     "spec.symbols[0].label"),
    (fsm_doc([{"from": 0, "label": "a", "weight": "1", "to": 0},
              {"from": 0, "label": "b\r", "weight": "1", "to": 0}], states=1),
     "spec.transitions[1].label"),
], ids=["memoryless", "fsm"])
def test_a_tab_or_line_break_in_a_label_is_reported_at_the_label(tmp_spec, capsys,
                                                                   doc, where):
    # the sample TSV separates fields by tabs and paths by line breaks
    code = main(["sample", tmp_spec(doc), "--count", "2", "--steps", "2", "--seed", "1"])
    assert (code, *capsys.readouterr()) == (
        1, "", f"error: {where}: symbol label must hold no tab or line break\n")


FIELDS = {
    "from": st.integers(0, 1),
    "to": st.integers(0, 1),
    "label": st.sampled_from(["a", "b", "c"]),
    "weight": st.sampled_from(["1", "1/2", "0.5"]),
}
ODD = st.sampled_from([True, False, -1, 2, "", "a", "0", "zero", "1e400", None, 1.5, [0]])


@st.composite
def fsm_rows(draw):
    """Up to 8 rows on states 0 and 1, each either valid, or with one field
    dropped or set to an odd value, or not an object at all."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.fixed_dictionaries(FIELDS))
        fault = draw(st.integers(0, 15))
        if fault < 4:
            field = list(FIELDS)[fault]
            if draw(st.booleans()):
                row[field] = draw(ODD)
            else:
                del row[field]
        elif fault == 4:
            row = draw(st.sampled_from([None, [], "row", 3, True]))
        rows.append(row)
    return rows


# long documents: valid, then one bad row late, after many interned pairs
LONG = [{"from": i % 2, "label": f"s{i}", "weight": "1", "to": (i + 1) % 2}
        for i in range(200)]
BAD_LAST = LONG[:199] + [{"from": 1, "label": "z", "weight": "zero", "to": 0}]
BOOL_FROM = LONG[:120] + [{**LONG[120], "from": True}] + LONG[121:]


class Row(dict):
    """A dict subclass, which a row may be."""


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rows=fsm_rows())
@example(rows=LONG)
@example(rows=BAD_LAST)
@example(rows=BOOL_FROM)
@example(rows=[{"from": 0, "label": "a", "weight": "1", "to": 1},
               {"from": 1, "label": "a", "weight": "1", "to": True}])
@example(rows=[{"from": 0, "label": [0], "weight": "1", "to": 0}])
@example(rows=[{"from": 0, "label": "a", "weight": "1", "to": 1},
               {"from": 1, "label": "", "weight": "1", "to": 0}])
@example(rows=[Row({"from": 0, "label": "a", "weight": "1", "to": 1})])
@example(rows=[{"from": 0, "label": "a", "weight": "1", "to": 1},
               {"from": True, "label": "a", "weight": "1", "to": 1}])
@example(rows=[{"from": 0, "label": "1", "weight": "1", "to": 1},
               {"from": 1, "label": 1, "weight": "1", "to": 0}])
@example(rows=[{"from": 0, "label": "a\tb", "weight": "1", "to": 1}])
def test_rows_are_checked_as_the_per_row_reference_checks_them(rows):
    def reference():
        transitions = reference_fsm_rows(rows)
        try:
            return d.WeightedFsm(2, 0, tuple(transitions)).transitions
        except ValueError as exc:
            raise SpecFileError(f"spec: {exc}") from exc

    doc = fsm_doc(rows, states=2)
    assert outcome(lambda: parse_system(doc).fsm.transitions) == outcome(reference)

