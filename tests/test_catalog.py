"""Catalog loading, validation, synonym indexing, and round-trip serialization."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from conftest import load_catalog_text, make_catalog, make_stage
from flowgen import InputError, fixture_path
from flowgen.catalog import (
    Catalog,
    CatalogValidationError,
    CardinalityBound,
    PropertyDef,
    StageDef,
    ValueType,
    dump_catalog,
    load_catalog,
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


def test_demo_catalog_loads_clean_and_round_trips(tmp_path):
    catalog = load_catalog(fixture_path("demo_catalog.json"))
    assert len(catalog.stages) == 31
    # load_catalog raises on any violation
    again = load_catalog_text(tmp_path, dump_catalog(catalog))
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


def catalog_at(directory) -> str:
    """A pattern for the path that ``load_catalog_text`` writes in ``directory``."""
    return re.escape(str(directory / "catalog.json"))


def test_top_level_must_hold_stages(tmp_path):
    with pytest.raises(InputError, match=f'^{catalog_at(tmp_path)}: expected an object with a "stages" array$'):
        load_catalog_text(tmp_path, "[]")


def test_malformed_json_reports_line(tmp_path):
    expecting = r"Expecting property name enclosed in double quotes: line 1 column 2 \(char 1\)"
    with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: malformed JSON: {expecting}$"):
        load_catalog_text(tmp_path, "{nope}")


def test_a_blank_catalog_file_reads_as_an_object_with_no_stages(tmp_path):
    # a blank file reads as {}, as every input file does
    for blank in ("", "  \n"):
        with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: stages: expected list$"):
            load_catalog_text(tmp_path, blank)


def test_undecodable_catalog_file_is_a_parse_error(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b"\xff\xfe{}")
    undecodable = "malformed JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {undecodable}$") as err:
        load_catalog(path)
    assert str(err.value).startswith(f"{path}: ") and err.value.locus == str(path)
    path.write_bytes(b'{"stages": [' + b"1" * 5000 + b"]}")
    exceeds = r"malformed JSON: Exceeds the limit \(4300 digits\)"
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {exceeds}"):
        load_catalog(path)


def test_every_json_error_of_a_catalog_file_names_the_file(tmp_path):
    path = tmp_path / "catalog.json"
    named = re.escape(str(path))
    text = fixture_path("demo_catalog.json").read_text(encoding="utf-8")
    path.write_text(text.replace('"description": "', '"description": "\\ud800', 1), encoding="utf-8")
    with pytest.raises(InputError, match=f"^{named}: malformed JSON: a string holds the lone surrogate"):
        load_catalog(path)
    path.write_text('{"stages": [\n  {nope}\n]}', encoding="utf-8")
    expecting = r"Expecting property name enclosed in double quotes: line 2 column 4 \(char 16\)"
    with pytest.raises(InputError, match=f"^{named}: malformed JSON: {expecting}$") as err:
        load_catalog(path)
    assert err.value.locus == str(path)


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    """A directory for the Hypothesis tests, which a function-scoped ``tmp_path`` would not suit."""
    return tmp_path_factory.mktemp("catalog")


def stage_doc(**overrides) -> dict:
    return json.loads(doc_with(overrides))


def prop(**overrides) -> dict:
    return {"name": "p", "description": "d", "type": "string", **overrides}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], 'expected an object with a "stages" array'),
        ({"stages": 5}, "stages: expected list"),
        ({"stages": [5]}, "stages[0]: expected stage object"),
        ({"stages": [{"name": 5}]}, "stages[0].name: expected str, got int"),
        (stage_doc(synonyms="sort"), "stages[0].synonyms: expected list"),
        (stage_doc(synonyms=["sort", 5]), "stages[0].synonyms[1]: expected str, got int"),
        (stage_doc(properties={}), "stages[0].properties: expected list"),
        (stage_doc(is_connector="yes"), "stages[0].is_connector: expected boolean, got str"),
        (stage_doc(inputs=5), "stages[0].inputs: expected object with min/max"),
        (stage_doc(inputs={"min": True, "max": 1}), "stages[0].inputs.min: expected integer, got bool"),
        (stage_doc(outputs={"min": 0}), "stages[0].outputs.max: expected integer, got NoneType"),
        (stage_doc(properties=[5]), "stages[0].properties[0]: expected property object"),
        (
            stage_doc(properties=[prop(type="float")]),
            "stages[0].properties[0].type: unknown value type 'float'",
        ),
        (
            stage_doc(properties=[prop(type={"enum": ["a", 1]})]),
            "stages[0].properties[0].type.enum: expected str, got int",
        ),
        (
            stage_doc(properties=[prop(type={"enum": "a"})]),
            'stages[0].properties[0].type: expected a type name or {"enum": [...]}',
        ),
        (
            stage_doc(properties=[prop(availability=5)]),
            "stages[0].properties[0].availability: expected str, got int",
        ),
        (
            stage_doc(inputs={"min": -1, "max": 1}),
            "catalog failed validation:\n  - head.inputs: min -1 is negative",
        ),
    ],
    ids=[
        "top-level-array", "stages-not-list", "stage-not-object", "name-not-str",
        "synonyms-not-list", "synonym-not-str", "properties-not-list", "connector-not-bool",
        "bound-not-object", "min-a-bool", "max-missing", "property-not-object",
        "unknown-type", "variant-not-str", "type-not-name-or-enum", "availability-not-str",
        "negative-min",
    ],
)
def test_every_catalog_error_of_a_file_names_the_file_and_the_locus(tmp_path, doc, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_catalog(path)
    assert str(err.value) == f"{path}: {message}"
    assert isinstance(err.value, CatalogValidationError) == ("validation" in message)


@pytest.mark.parametrize(
    "escape, lone",
    [("\\ud800", True), ("x\\uDFFF", True), ("\\ud83d\\ude00", False), ("\\\\ud800", False)],
    ids=["high", "low", "pair", "escaped-backslash"],
)
def test_a_lone_surrogate_escape_is_malformed_json(tmp_path, escape, lone):
    # a lone surrogate parses, but the prompt hash and the output could not encode it
    text = fixture_path("demo_catalog.json").read_text(encoding="utf-8")
    text = text.replace('"description": "', '"description": "' + escape, 1)
    if lone:
        lone_surrogate = "malformed JSON: a string holds the lone surrogate"
        with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: {lone_surrogate}"):
            load_catalog_text(tmp_path, text)
    else:
        assert len(load_catalog_text(tmp_path, text).stages) == 31


def test_missing_field_reports_locus(tmp_path):
    locus = r"stages\[0\]\.description"
    with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: {locus}: expected str, got NoneType$"):
        load_catalog_text(tmp_path, json.dumps({"stages": [{"name": "x"}]}))


def test_bad_bound_and_bad_type_loci(tmp_path):
    locus = r"stages\[0\]\.inputs\.min"
    with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: {locus}: expected integer, got str$"):
        load_catalog_text(tmp_path, doc_with({"inputs": {"min": "one", "max": 1}}))
    locus = r"stages\[0\]\.properties\[0\]\.type"
    with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: {locus}: unknown value type 'float'$"):
        load_catalog_text(tmp_path, doc_with({"properties": [prop(type="float")]}))


def test_boolean_field_rejects_nonbool(tmp_path):
    locus = r"stages\[0\]\.is_connector"
    with pytest.raises(InputError, match=f"^{catalog_at(tmp_path)}: {locus}: expected boolean, got str$"):
        load_catalog_text(tmp_path, doc_with({"is_connector": "yes"}))


def test_unbounded_max_parses_to_none(tmp_path):
    catalog = load_catalog_text(tmp_path, doc_with({"outputs": {"min": 0, "max": "unbounded"}}))
    assert catalog.stages["head"].outputs == CardinalityBound(0, None)


# --- validation -------------------------------------------------------------------


def test_duplicate_stage_name_rejected(tmp_path):
    doc = json.dumps({"stages": [json.loads(doc_with({}))["stages"][0]] * 2})
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc)
    assert any("duplicate stage name" in str(v) for v in err.value.violations)


def test_bound_min_above_max_rejected(tmp_path):
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"inputs": {"min": 3, "max": 1}}))
    assert any("exceeds max" in str(v) for v in err.value.violations)


def test_empty_description_rejected(tmp_path):
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"description": ""}))
    assert any("description" in str(v) for v in err.value.violations)


def test_duplicate_property_names_rejected(tmp_path):
    prop = {"name": "Mode", "description": "d", "type": "string"}
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"properties": [prop, prop]}))
    assert any("duplicate property name" in str(v) for v in err.value.violations)


def test_property_names_that_differ_only_in_case_are_duplicates(tmp_path):
    # find_property matches case-insensitively, so "mode" could never be assigned
    upper = {"name": "Mode", "description": "d", "type": "string"}
    lower = {"name": "mode", "description": "d", "type": "integer"}
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"properties": [upper, lower]}))
    assert [str(v) for v in err.value.violations] == [
        "head.properties[mode]: duplicate property name: 'Mode' and 'mode' differ only in case"
    ]


def test_enum_without_variants_rejected(tmp_path):
    prop = {"name": "Mode", "description": "d", "type": {"enum": []}}
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"properties": [prop]}))
    assert any("no variants" in str(v) for v in err.value.violations)


def test_availability_must_parse_and_reference_siblings(tmp_path):
    bad_syntax = {
        "name": "Col",
        "description": "d",
        "type": "string",
        "availability": "mode = Explicit",
    }
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"properties": [bad_syntax]}))
    assert any("does not parse" in str(v) for v in err.value.violations)

    dangling = {
        "name": "Col",
        "description": "d",
        "type": "string",
        "availability": "'Missing' = \"x\"",
    }
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, doc_with({"properties": [dangling]}))
    assert any("unknown property" in str(v) for v in err.value.violations)


def test_availability_must_type_check_and_name_enum_variants(tmp_path):
    mode = {"name": "Mode", "description": "d", "type": {"enum": ["Explicit", "Schema File"]}}
    flag = {"name": "Flag", "description": "d", "type": "boolean"}

    def violations(availability: str) -> list[str]:
        gated = {"name": "Col", "description": "d", "type": "string", "availability": availability}
        with pytest.raises(CatalogValidationError) as err:
            load_catalog_text(tmp_path, doc_with({"properties": [mode, flag, gated]}))
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
def test_a_catalog_that_loads_raises_no_condition_type_error_in_validate(catalog_dir, data):
    """Either the catalog fails to load, or no set of typed answers makes a condition raise."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(TYPED)), min_size=1, max_size=4))
    names = [f"P{i}" for i in range(len(kinds))]
    props = [{"name": n, "description": "d", "type": TYPED[k][0]} for n, k in zip(names, kinds)]
    availability = data.draw(conditions(names), label="availability")
    gated = {"name": "Gated", "description": "d", "type": "string", "availability": availability}
    try:
        catalog = load_catalog_text(catalog_dir, doc_with({"properties": [*props, gated]}))
    except CatalogValidationError:
        return
    for mask in range(2 ** len(kinds)):  # every subset of the typed assignments
        chosen = [i for i in range(len(kinds)) if mask >> i & 1]
        assignments = [PropertyAssignment(names[i], TYPED[kinds[i]][1]) for i in chosen]
        statused = validate([*assignments, PropertyAssignment("Gated", "g")], catalog.stages["head"])
        assert [a.status for a in statused[:-1]] == [ACCEPTED] * len(chosen)
        assert statused[-1].status in (ACCEPTED, REJECTED_DEPENDENCY)


def test_stage_name_colliding_with_node_names_rejected(tmp_path):
    head = json.loads(doc_with({}))["stages"][0]
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, json.dumps({"stages": [head, {**head, "name": "head_1"}]}))
    assert [str(v) for v in err.value.violations] == [
        "head_1.name: collides with the node names of stage 'head'"
    ]


def test_catalog_validation_reports_all(tmp_path):
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
    with pytest.raises(CatalogValidationError) as err:
        load_catalog_text(tmp_path, dump_catalog(bad))
    messages = [str(v) for v in err.value.violations]
    assert len(messages) == 4
    assert any("exceeds max" in m for m in messages)
    assert any("description" in m for m in messages)
    assert "Mixed.name: stage name is not lowercase" in messages
    assert "b_2.name: collides with the node names of stage 'b'" in messages


# --- lookup and keyword index -------------------------------------------------------


def test_keyword_index_covers_names_and_synonyms_lowercased():
    catalog = make_catalog(
        make_stage("sqlserver", synonyms=("SQL_Server",), is_connector=True)
    )
    stages_of = {k.pattern.pattern: k.stages for ks in catalog.keyword_index.values() for k in ks}
    assert stages_of == {
        r"\bsqlserver\b": frozenset({"sqlserver"}),
        r"\bsql[_ ]server\b": frozenset({"sqlserver"}),
    }


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
def test_dump_parse_round_trip(catalog_dir, catalog):
    assert load_catalog_text(catalog_dir, dump_catalog(catalog)).stages == catalog.stages


@given(catalogs())
def test_dump_is_deterministic(catalog):
    assert dump_catalog(catalog) == dump_catalog(catalog)
