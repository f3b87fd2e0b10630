"""Property prediction, type coercion, the validation gauntlet, and scoring."""

from __future__ import annotations

import json
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RecordingProvider, make_stage, scripted
from flowgen import InputError, fixture_path
from flowgen.catalog import BOOLEAN, DECIMAL, INTEGER, STRING, PropertyDef, ValueType
from flowgen.edgepred import NodeInstance
from flowgen.catalog import CardinalityBound
from flowgen.proppred import (
    ACCEPTED,
    REJECTED_DEPENDENCY,
    REJECTED_EXTERNAL,
    REJECTED_TYPE,
    REJECTED_UNKNOWN_NAME,
    ExternalRegistry,
    PropertyAssignment,
    canonical_value,
    coerce,
    load_registry,
    predict_properties,
    prop_metrics,
    validate,
)
from flowgen.llm import usage

WRITE_MODE = ValueType("enum", ("append", "replace", "upsert"))


def connector_stage():
    return make_stage(
        "warehouse",
        "Read or write a warehouse table.",
        is_connector=True,
        properties=(
            PropertyDef("Connection Name", "Registered connection to use.", STRING),
            PropertyDef("Row Limit", "Max rows to read.", INTEGER),
            PropertyDef("Sample Rate", "Fraction of rows.", DECIMAL),
            PropertyDef("Generate Unicode Columns", "Emit unicode columns.", BOOLEAN),
            PropertyDef("Write Mode", "How to write.", WRITE_MODE, default="append"),
            PropertyDef(
                "Create Statement",
                "DDL used when replacing.",
                STRING,
                availability="'Write Mode' = \"replace\"",
            ),
        ),
    )


def assigned(*pairs: tuple[str, str]) -> list[PropertyAssignment]:
    return [PropertyAssignment(name=n, raw_value=v) for n, v in pairs]


def statuses(results) -> list[tuple[str, str]]:
    return [(a.name, a.status) for a in results]


# --- prediction -----------------------------------------------------------------


def prop_node(sub: str = "load it") -> NodeInstance:
    return NodeInstance(
        unique_name="warehouse",
        stage="warehouse",
        inputs=CardinalityBound(0, 1),
        outputs=CardinalityBound(0, 1),
        sub_utterance=sub,
    )


def test_predict_properties_parses_assignment_lines():
    provider = scripted(
        ("Properties set:", "Row Limit = 50\nnoise without equals\n = headless\nWrite Mode = replace")
    )
    out = predict_properties(prop_node(), connector_stage(), provider, [], {})
    assert [(a.name, a.raw_value) for a in out] == [
        ("Row Limit", "50"),
        ("Write Mode", "replace"),
    ]
    assert all(a.status is None for a in out)


def test_predict_properties_none_answer_yields_no_assignments():
    provider = scripted(("Properties set:", "none"))
    out = predict_properties(prop_node(), connector_stage(), provider, [], {})
    assert out == []


def test_predict_properties_prompt_carries_schema_and_span():
    cue = (
        "Set the properties of the warehouse operator"
    )
    provider = scripted((cue, "Row Limit = 5"))
    trace: list[dict] = []
    recording = RecordingProvider(provider)
    out = predict_properties(prop_node("limit to 5 rows"), connector_stage(), recording, trace, {})
    assert out[0].name == "Row Limit"
    assert recording.prompts[0].text.endswith("\nSub-utterance: limit to 5 rows\nProperties set:")
    assert usage(trace)["requests"] == 1
    assert trace[0]["purpose"] == "properties" and trace[0]["node"] == "warehouse"


def test_predict_properties_prompt_lists_each_property():
    cue = "Connection Name: Registered connection to use.\nRow Limit: Max rows to read."
    provider = scripted((cue, "none"))
    out = predict_properties(prop_node(), connector_stage(), provider, [], {})
    assert out == []


# --- coercion -------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("hello", "hello"),
        ("  spaced  ", "spaced"),
        ("'quoted'", "quoted"),
        ('"double"', "double"),
        ("\"'nested'\"", "nested"),
        ('tail"', 'tail"'),  # unmatched quote survives
        ("''", ""),
        ("don't", "don't"),
    ],
)
def test_coerce_string(raw, expected):
    assert coerce(raw, STRING) == expected


@pytest.mark.parametrize(
    "raw, expected",
    [("42", 42), ("+7", 7), ("-3", -3), (" 10 ", 10), ("3.5", None), ("x", None), ("4 2", None), ("", None),
     pytest.param("9" * 5000, None, id="more-digits-than-int-reads")],
)
def test_coerce_integer(raw, expected):
    assert coerce(raw, INTEGER) == expected


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("3.14", Decimal("3.14")),
        (".5", Decimal("0.5")),
        ("2.", Decimal("2")),
        ("7", Decimal("7")),
        ("-0.25", Decimal("-0.25")),
        ("1e3", None),
        ("abc", None),
    ],
)
def test_coerce_decimal(raw, expected):
    assert coerce(raw, DECIMAL) == expected


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("true", True), ("Yes", True), ("ON", True),
        ("false", False), ("No", False), ("off", False),
        ("0", None), ("enabled", None),
    ],
)
def test_coerce_boolean(raw, expected):
    assert coerce(raw, BOOLEAN) == expected


def test_coerce_enum_canonicalizes_to_declared_casing():
    vt = ValueType("enum", ("Explicit", "Schema file"))
    assert coerce("explicit", vt) == "Explicit"
    assert coerce("SCHEMA FILE", vt) == "Schema file"
    assert coerce("implicit", vt) is None


def test_canonical_value_forms():
    assert canonical_value(True) == "true"
    assert canonical_value(False) == "false"
    assert canonical_value(42) == "42"
    assert canonical_value(Decimal("0.5")) == "0.5"
    assert canonical_value("x") == "x"


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=30))
def test_string_coercion_is_a_fixpoint(raw):
    once = coerce(raw, STRING)
    assert coerce(canonical_value(once), STRING) == once


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-10**6, 10**6), st.booleans(), st.decimals(allow_nan=False, allow_infinity=False, places=4)))
def test_scalar_canonical_forms_round_trip(value):
    vt = BOOLEAN if isinstance(value, bool) else INTEGER if isinstance(value, int) else DECIMAL
    coerced = coerce(canonical_value(value), vt)
    assert coerced == value


# --- validation gauntlet ----------------------------------------------------------


def test_validate_accepts_well_typed_assignments():
    out = validate(
        assigned(("Row Limit", "50"), ("Generate Unicode Columns", "yes")),
        connector_stage(),
    )
    assert statuses(out) == [("Row Limit", ACCEPTED), ("Generate Unicode Columns", ACCEPTED)]
    assert out[0].coerced == 50 and out[1].coerced is True


def test_validate_rejects_unknown_name():
    (a,) = validate(assigned(("Compression", "zstd")), connector_stage())
    assert a.status == REJECTED_UNKNOWN_NAME
    assert "warehouse has no such property" in a.detail


def test_validate_rejects_failed_coercion_with_canonical_name():
    (a,) = validate(assigned(("row limit", "fifty")), connector_stage())
    assert a.name == "Row Limit"  # canonicalized even on rejection
    assert a.status == REJECTED_TYPE
    assert "'fifty' is not a valid integer" in a.detail


def test_validate_name_matching_is_case_insensitive():
    (a,) = validate(assigned(("WRITE MODE", "Replace")), connector_stage())
    assert a.name == "Write Mode" and a.status == ACCEPTED
    assert a.coerced == "replace"  # enum canonicalized to declared casing


def test_validate_dependency_requires_sibling_value():
    out = validate(
        assigned(("Write Mode", "append"), ("Create Statement", "CREATE TABLE t (x int)")),
        connector_stage(),
    )
    assert statuses(out) == [("Write Mode", ACCEPTED), ("Create Statement", REJECTED_DEPENDENCY)]
    assert "'Write Mode' = \"replace\"" in out[1].detail


def test_validate_dependency_met():
    out = validate(
        assigned(("Write Mode", "replace"), ("Create Statement", "CREATE TABLE t (x int)")),
        connector_stage(),
    )
    assert [a.status for a in out] == [ACCEPTED, ACCEPTED]


def test_validate_dependency_env_is_first_occurrence_of_survivors():
    out = validate(
        assigned(
            ("Write Mode", "replace"),
            ("Write Mode", "append"),
            ("Create Statement", "ddl"),
        ),
        connector_stage(),
    )
    assert [a.status for a in out] == [ACCEPTED, ACCEPTED, ACCEPTED]


def test_validate_dependency_absent_when_sibling_failed_coercion():
    out = validate(
        assigned(("Write Mode", "sideways"), ("Create Statement", "ddl")),
        connector_stage(),
    )
    assert statuses(out) == [
        ("Write Mode", REJECTED_TYPE),
        ("Create Statement", REJECTED_DEPENDENCY),
    ]


def chain_stage():
    return make_stage(
        "chained",
        properties=(
            PropertyDef("A", "switch", ValueType("enum", ("on", "off"))),
            PropertyDef("B", "depends on A", STRING, availability="'A' = \"on\""),
            PropertyDef("C", "depends on B", STRING, availability="'B' = \"set\""),
        ),
    )


def test_validate_single_pass_does_not_cascade():
    out = validate(assigned(("A", "off"), ("B", "set"), ("C", "x")), chain_stage())
    assert [a.status for a in out] == [ACCEPTED, REJECTED_DEPENDENCY, ACCEPTED]


def registry() -> ExternalRegistry:
    return ExternalRegistry(
        kinds={"connection": frozenset({"teradata-00", "mysql-prod-01"})},
        bindings={"warehouse": {"Connection Name": "connection"}},
    )


def test_validate_external_names_must_be_registered():
    out = validate(
        assigned(("Connection Name", "teradata-00"), ("Row Limit", "5")),
        connector_stage(),
        registry=registry(),
    )
    assert [a.status for a in out] == [ACCEPTED, ACCEPTED]
    (bad,) = validate(
        assigned(("Connection Name", "ghost-db")), connector_stage(), registry=registry()
    )
    assert bad.status == REJECTED_EXTERNAL
    assert "'ghost-db' is not a registered connection" in bad.detail


def test_validate_external_skipped_without_registry_or_binding():
    (a,) = validate(assigned(("Connection Name", "ghost-db")), connector_stage())
    assert a.status == ACCEPTED
    unbound = make_stage("plain", properties=(PropertyDef("Connection Name", "d", STRING),))
    (b,) = validate(assigned(("Connection Name", "ghost-db")), unbound, registry=registry())
    assert b.status == ACCEPTED


def test_validate_preserves_input_order_and_is_pure():
    original = assigned(("Row Limit", "1"), ("Compression", "x"))
    out = validate(original, connector_stage())
    assert [a.name for a in out] == ["Row Limit", "Compression"]
    assert all(a.status is None for a in original)  # inputs untouched


def test_validate_statuses_every_assignment_exactly_once():
    out = validate(
        assigned(
            ("Row Limit", "nope"),
            ("Ghost", "1"),
            ("Write Mode", "upsert"),
            ("Create Statement", "ddl"),
            ("Connection Name", "ghost-db"),
        ),
        connector_stage(),
        registry=registry(),
    )
    assert [a.status for a in out] == [
        REJECTED_TYPE,
        REJECTED_UNKNOWN_NAME,
        ACCEPTED,
        REJECTED_DEPENDENCY,
        REJECTED_EXTERNAL,
    ]


# --- registry loading --------------------------------------------------------------


def test_load_registry_demo_fixture():
    reg = load_registry(fixture_path("demo_registry.json"))
    assert "teradata-00" in reg.kinds["connection"]
    assert reg.bindings["teradata"]["Schema Name"] == "schema"


def test_load_registry_rejects_unknown_kind(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"kinds": {"bucket": []}, "bindings": {}}))
    with pytest.raises(InputError, match="unknown registry kind 'bucket'"):
        load_registry(p)


def test_load_registry_rejects_undeclared_binding_kind(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"kinds": {"connection": []}, "bindings": {"s": {"P": "table"}}}))
    with pytest.raises(InputError, match="undeclared kind 'table'"):
        load_registry(p)


def test_load_registry_requires_both_sections(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"kinds": {}}))
    with pytest.raises(InputError, match=r"reg\.json: bindings: expected object$"):
        load_registry(p)


def test_load_registry_rejects_nested_shapes(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"kinds": {"table": "orders"}, "bindings": {}}))
    with pytest.raises(InputError, match=r"reg\.json: kinds\.table: expected list$"):
        load_registry(p)
    p.write_text(json.dumps({"kinds": {"table": []}, "bindings": {"sort": ["table"]}}))
    with pytest.raises(InputError, match=r"reg\.json: bindings\.sort: expected object$"):
        load_registry(p)


# --- metrics ------------------------------------------------------------------------


def t(*parts: str):
    return tuple(parts)


def test_prop_metrics_half_overlap():
    pred = [t("n", "P1", "x"), t("n", "P2", "y")]
    gold = [t("n", "P1", "x"), t("n", "P3", "z")]
    m = prop_metrics(pred, gold)
    assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)
    assert (m.matches, m.predicted, m.gold) == (1, 2, 2)


def test_prop_metrics_empty_cases():
    perfect = prop_metrics([], [])
    assert (perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
    silent = prop_metrics([], [t("n", "P", "v")])
    assert (silent.precision, silent.recall, silent.f1) == (0.0, 0.0, 0.0)
    noisy = prop_metrics([t("n", "P", "v")], [])
    assert (noisy.precision, noisy.recall, noisy.f1) == (0.0, 0.0, 0.0)


def test_prop_metrics_counts_multiset_duplicates():
    m = prop_metrics([t("n", "P", "v"), t("n", "P", "v")], [t("n", "P", "v")])
    assert m.matches == 1 and m.precision == 0.5 and m.recall == 1.0


triples = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from("PQ"), st.sampled_from("xy")),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(triples, triples)
def test_prop_metrics_bounds_and_symmetry(pred, gold):
    m = prop_metrics(pred, gold)
    assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0 and 0.0 <= m.f1 <= 1.0
    swapped = prop_metrics(gold, pred)
    assert swapped.precision == m.recall and swapped.recall == m.precision
    assert swapped.f1 == pytest.approx(m.f1)


@settings(max_examples=50, deadline=None)
@given(triples)
def test_prop_metrics_self_is_perfect(items):
    m = prop_metrics(items, list(items))
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
