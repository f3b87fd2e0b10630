"""Catalog loading, validation, synonym indexing, and round-trip serialization."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from conftest import make_catalog, make_stage
from flowgen import fixture_path
from flowgen.catalog import (
    Catalog,
    CatalogParseError,
    CatalogValidationError,
    CardinalityBound,
    PropertyDef,
    StageDef,
    ValueType,
    dump_catalog,
    load_catalog,
    parse_catalog,
    validate_catalog,
)
from flowgen.condexpr import COMPARISON_OPS
from flowgen.proppred import ACCEPTED, REJECTED_DEPENDENCY, PropertyAssignment, validate


def doc_with(stage_overrides: dict) -> str:
    stage = {
        "name": "head",
        "description": "Select leading rows.",
        "synonyms": [],
        "is_connector": False,
        "inputs": {"min": 1, "max": 1},
        "outputs": {"min": 0, "max": 1},
        "properties": [],
    }
    stage.update(stage_overrides)
    return json.dumps({"stages": [stage]})


# --- shipped fixtures -------------------------------------------------------------


def test_demo_catalog_loads_clean_and_round_trips():
    catalog = load_catalog(fixture_path("demo_catalog.json"))
    assert len(catalog.stages) == 31
    assert validate_catalog(catalog) == []
    again = parse_catalog(dump_catalog(catalog))
    assert again.stages == catalog.stages


def test_mini_catalog_stage_set():
    catalog = load_catalog(fixture_path("catalog_mini.json"))
    assert sorted(catalog.stages) == [
        "column_generator",
        "column_import",
        "dataset",
        "dv",
        "head",
        "split_subrecord",
        "split_vector",
        "tail",
    ]


# --- parse errors -----------------------------------------------------------------


def test_top_level_must_hold_stages():
    with pytest.raises(CatalogParseError, match="stages"):
        parse_catalog("[]")


def test_malformed_json_reports_line():
    with pytest.raises(CatalogParseError, match="malformed JSON"):
        parse_catalog("{nope}")


def test_undecodable_catalog_file_is_a_parse_error(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CatalogParseError, match="malformed JSON: 'utf-8' codec") as err:
        load_catalog(path)
    assert str(err.value).startswith(f"{path}: ") and err.value.locus == str(path)
    path.write_bytes(b'{"stages": [' + b"1" * 5000 + b"]}")
    exceeds = r"malformed JSON: Exceeds the limit \(4300 digits\)"
    with pytest.raises(CatalogParseError, match=f"^{re.escape(str(path))}: {exceeds}"):
        load_catalog(path)


def test_every_json_error_of_a_catalog_file_names_the_file(tmp_path):
    path = tmp_path / "catalog.json"
    named = re.escape(str(path))
    text = fixture_path("demo_catalog.json").read_text(encoding="utf-8")
    path.write_text(text.replace('"description": "', '"description": "\\ud800', 1), encoding="utf-8")
    with pytest.raises(CatalogParseError, match=f"^{named}: malformed JSON: a string holds the lone surrogate"):
        load_catalog(path)
    path.write_text('{"stages": [\n  {nope}\n]}', encoding="utf-8")
    with pytest.raises(CatalogParseError, match=f"^{named}: line 2: malformed JSON: Expecting") as err:
        load_catalog(path)
    assert err.value.locus == f"{path}: line 2"
    # text with no file keeps the bare line
    with pytest.raises(CatalogParseError, match=r"^line 2: malformed JSON"):
        parse_catalog('{"stages": [\n  {nope}\n]}')


@pytest.mark.parametrize(
    "escape, lone",
    [("\\ud800", True), ("x\\uDFFF", True), ("\\ud83d\\ude00", False), ("\\\\ud800", False)],
    ids=["high", "low", "pair", "escaped-backslash"],
)
def test_a_lone_surrogate_escape_is_malformed_json(escape, lone):
    # a lone surrogate parses, but the prompt hash and the output could not encode it
    text = fixture_path("demo_catalog.json").read_text(encoding="utf-8")
    text = text.replace('"description": "', '"description": "' + escape, 1)
    if lone:
        with pytest.raises(CatalogParseError, match=r"^malformed JSON: a string holds the lone surrogate"):
            parse_catalog(text)
    else:
        assert len(parse_catalog(text).stages) == 31


def test_missing_field_reports_locus():
    with pytest.raises(CatalogParseError, match=r"stages\[0\].description"):
        parse_catalog(json.dumps({"stages": [{"name": "x"}]}))


def test_bad_bound_and_bad_type_loci():
    with pytest.raises(CatalogParseError, match=r"stages\[0\].inputs.min"):
        parse_catalog(doc_with({"inputs": {"min": "one", "max": 1}}))
    with pytest.raises(CatalogParseError, match=r"type"):
        parse_catalog(
            doc_with(
                {"properties": [{"name": "p", "description": "d", "type": "float"}]}
            )
        )


def test_boolean_field_rejects_nonbool():
    with pytest.raises(CatalogParseError, match="expected boolean"):
        parse_catalog(doc_with({"is_connector": "yes"}))


def test_unbounded_max_parses_to_none():
    catalog = parse_catalog(doc_with({"outputs": {"min": 0, "max": "unbounded"}}))
    assert catalog.stages["head"].outputs == CardinalityBound(0, None)


# --- validation -------------------------------------------------------------------


def test_duplicate_stage_name_rejected():
    doc = json.dumps({"stages": [json.loads(doc_with({}))["stages"][0]] * 2})
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc)
    assert any("duplicate stage name" in str(v) for v in err.value.violations)


def test_bound_min_above_max_rejected():
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"inputs": {"min": 3, "max": 1}}))
    assert any("exceeds max" in str(v) for v in err.value.violations)


def test_empty_description_rejected():
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"description": ""}))
    assert any("description" in str(v) for v in err.value.violations)


def test_duplicate_property_names_rejected():
    prop = {"name": "Mode", "description": "d", "type": "string"}
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"properties": [prop, prop]}))
    assert any("duplicate property name" in str(v) for v in err.value.violations)


def test_property_names_that_differ_only_in_case_are_duplicates():
    # find_property matches case-insensitively, so "mode" could never be assigned
    upper = {"name": "Mode", "description": "d", "type": "string"}
    lower = {"name": "mode", "description": "d", "type": "integer"}
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"properties": [upper, lower]}))
    assert [str(v) for v in err.value.violations] == [
        "head.properties[mode]: duplicate property name: 'Mode' and 'mode' differ only in case"
    ]


def test_enum_without_variants_rejected():
    prop = {"name": "Mode", "description": "d", "type": {"enum": []}}
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"properties": [prop]}))
    assert any("no variants" in str(v) for v in err.value.violations)


def test_availability_must_parse_and_reference_siblings():
    bad_syntax = {
        "name": "Col",
        "description": "d",
        "type": "string",
        "availability": "mode = Explicit",
    }
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"properties": [bad_syntax]}))
    assert any("does not parse" in str(v) for v in err.value.violations)

    dangling = {
        "name": "Col",
        "description": "d",
        "type": "string",
        "availability": "'Missing' = \"x\"",
    }
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(doc_with({"properties": [dangling]}))
    assert any("unknown property" in str(v) for v in err.value.violations)


def test_availability_must_type_check_and_name_enum_variants():
    mode = {"name": "Mode", "description": "d", "type": {"enum": ["Explicit", "Schema File"]}}
    flag = {"name": "Flag", "description": "d", "type": "boolean"}

    def violations(availability: str) -> list[str]:
        gated = {"name": "Col", "description": "d", "type": "string", "availability": availability}
        with pytest.raises(CatalogValidationError) as err:
            parse_catalog(doc_with({"properties": [mode, flag, gated]}))
        return [str(v) for v in err.value.violations]

    # a misspelt variant never equals a coerced value; each message is given once
    assert violations('''defined('Flag') or 'Mode' = "Schema file" or 'Mode' = "Schema file"''') == [
        "head.properties[Col]: availability compares 'Mode' with 'Schema file', not a variant"
    ]
    # strict: the right side is checked though ``defined`` holds on the left
    assert violations('''defined('Flag') or 'Flag' = "yes"''') == [
        "head.properties[Col]: availability does not type-check: "
        "comparing string literal against boolean value of 'Flag'"
    ]
    assert violations("'Flag' < true") == [
        "head.properties[Col]: availability does not type-check: "
        "ordering comparison '<' on boolean 'Flag'"
    ]
    assert violations("'Mode'") == [
        "head.properties[Col]: availability does not type-check: "
        "bare reference to non-boolean property 'Mode'"
    ]


# one type of each kind, with a raw value that ``proppred.coerce`` accepts for it
TYPED = {
    "string": ("string", "s"),
    "integer": ("integer", "7"),
    "decimal": ("decimal", "0.5"),
    "boolean": ("boolean", "yes"),
    "enum": ({"enum": ["Explicit", "Schema File"]}, "schema file"),
}
CONDITION_LITERALS = ('"Schema File"', '"x"', "0", "2.5", "true", "false")


def conditions(paths: list[str]):
    leaves = st.one_of(
        st.builds(
            "'{}' {} {}".format,
            st.sampled_from(paths),
            st.sampled_from(COMPARISON_OPS),
            st.sampled_from(CONDITION_LITERALS),
        ),
        st.sampled_from(paths).map("defined('{}')".format),
        st.sampled_from(paths).map("'{}'".format),
        st.sampled_from(CONDITION_LITERALS),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map("not ({})".format),
            st.builds("({}) {} ({})".format, inner, st.sampled_from(["and", "or"]), inner),
        ),
        max_leaves=4,
    )


@given(st.data())
def test_a_catalog_that_loads_raises_no_condition_type_error_in_validate(data):
    """Either the catalog fails to load, or no set of typed answers makes a condition raise."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(TYPED)), min_size=1, max_size=4))
    names = [f"P{i}" for i in range(len(kinds))]
    props = [{"name": n, "description": "d", "type": TYPED[k][0]} for n, k in zip(names, kinds)]
    availability = data.draw(conditions(names), label="availability")
    gated = {"name": "Gated", "description": "d", "type": "string", "availability": availability}
    try:
        catalog = parse_catalog(doc_with({"properties": [*props, gated]}))
    except CatalogValidationError:
        return
    for mask in range(2 ** len(kinds)):  # every subset of the typed assignments
        chosen = [i for i in range(len(kinds)) if mask >> i & 1]
        assignments = [PropertyAssignment(names[i], TYPED[kinds[i]][1]) for i in chosen]
        statused = validate([*assignments, PropertyAssignment("Gated", "g")], catalog.stages["head"])
        assert [a.status for a in statused[:-1]] == [ACCEPTED] * len(chosen)
        assert statused[-1].status in (ACCEPTED, REJECTED_DEPENDENCY)


def test_stage_name_colliding_with_node_names_rejected():
    head = json.loads(doc_with({}))["stages"][0]
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(json.dumps({"stages": [head, {**head, "name": "head_1"}]}))
    assert [str(v) for v in err.value.violations] == [
        "head_1.name: collides with the node names of stage 'head'"
    ]


def test_validate_catalog_is_pure_and_reports_all():
    no_description = StageDef(
        name="a",
        description="",
        synonyms=(),
        is_connector=False,
        inputs=CardinalityBound(2, 1),
        outputs=CardinalityBound(1, 1),
        properties=(),
    )
    # answers are lowercased before verification, so "Mixed" could never be predicted
    # and "b_2" would be the name of the second node of "b" in [b, b, b_2]
    bad = make_catalog(
        no_description, make_stage("b"), make_stage("Mixed"), make_stage("b_2"), make_stage("b_x")
    )
    messages = [str(v) for v in validate_catalog(bad)]
    assert len(messages) == 4
    assert any("exceeds max" in m for m in messages)
    assert any("description" in m for m in messages)
    assert "Mixed.name: stage name is not lowercase" in messages
    assert "b_2.name: collides with the node names of stage 'b'" in messages
    with pytest.raises(CatalogValidationError) as err:
        parse_catalog(dump_catalog(bad))
    assert [str(v) for v in err.value.violations] == messages


# --- lookup and synonym index -------------------------------------------------------


def test_synonym_index_covers_names_and_synonyms_lowercased():
    catalog = make_catalog(
        make_stage("sqlserver", synonyms=("sql_server",), is_connector=True)
    )
    assert catalog.synonym_index["sqlserver"] == frozenset({"sqlserver"})
    assert catalog.synonym_index["sql_server"] == frozenset({"sqlserver"})


def test_lookup_stage_by_exact_name_only():
    catalog = make_catalog(make_stage("head"))
    assert catalog.stages["head"].name == "head"
    assert catalog.stages.get("HEAD") is None


# --- randomized round-trip ----------------------------------------------------------

names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=30,
)
bounds = st.tuples(st.integers(0, 3), st.one_of(st.none(), st.integers(3, 6))).map(
    lambda t: CardinalityBound(*t)
)


@st.composite
def property_defs(draw):
    kind = draw(st.sampled_from(["string", "integer", "decimal", "boolean", "enum"]))
    if kind == "enum":
        variants = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        value_type = ValueType("enum", tuple(variants))
        default = draw(st.one_of(st.none(), st.sampled_from(variants)))
    else:
        value_type = ValueType(kind)
        default = None
    return PropertyDef(
        name=draw(names),
        description=draw(texts),
        value_type=value_type,
        default=default,
    )


@st.composite
def stage_defs(draw, name: str):
    props = draw(st.lists(property_defs(), max_size=3))
    unique_props = []
    seen = set()
    for p in props:
        if p.name not in seen:
            seen.add(p.name)
            unique_props.append(p)
    return StageDef(
        name=name,
        description=draw(texts),
        synonyms=tuple(draw(st.lists(names, max_size=2, unique=True))),
        is_connector=draw(st.booleans()),
        inputs=draw(bounds),
        outputs=draw(bounds),
        properties=tuple(unique_props),
    )


def numbered_after_another(stage_names: list[str]) -> bool:
    """Some name is ``<other name>_<digits>``, which validation rejects."""
    return any(
        base in stage_names and digits.isdigit()
        for base, _, digits in (name.rpartition("_") for name in stage_names)
    )


@st.composite
def catalogs(draw):
    # valid catalogs only, so the round trip never meets a validation error
    stage_names = draw(
        st.lists(names, min_size=1, max_size=4, unique=True).filter(
            lambda ns: not numbered_after_another(ns)
        )
    )
    return Catalog(
        stages={name: draw(stage_defs(name)) for name in stage_names}
    )


@given(catalogs())
def test_dump_parse_round_trip(catalog):
    assert parse_catalog(dump_catalog(catalog)).stages == catalog.stages


@given(catalogs())
def test_dump_is_deterministic(catalog):
    assert dump_catalog(catalog) == dump_catalog(catalog)
