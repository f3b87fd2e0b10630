"""Stage catalog: the operator vocabulary a flow can be built from.

A catalog lists every stage (transform or connector) with its description,
lookup synonyms, input/output cardinality bounds, and property schema.
Catalogs are stored as a single JSON object with a ``stages`` array; loading
re-serializes bit-exactly for the shipped fixtures so they can double as
round-trip regression data.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from functools import cached_property
from pathlib import Path

from . import InputError, Record, check, condexpr, read_json

__all__ = [
    "CardinalityBound",
    "ValueType",
    "PropertyDef",
    "StageDef",
    "Catalog",
    "Violation",
    "CatalogValidationError",
    "load_catalog",
    "dump_catalog",
    "keyword_parts",
]

class CatalogValidationError(InputError):
    def __init__(self, violations: list["Violation"], source: str):
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(f"catalog failed validation:\n{lines}", source)
        self.violations = violations


class CardinalityBound(Record):
    """Inclusive link-count bounds; ``max=None`` means unbounded."""

    __slots__ = ("min", "max")

    def __init__(self, min: int, max: int | None):
        self.min = min
        self.max = max


class ValueType(Record):
    __slots__ = ("kind", "variants")

    def __init__(self, kind: str, variants: tuple[str, ...] = ()):
        self.kind = kind
        self.variants = variants  # non-empty iff kind == "enum"


STRING = ValueType("string")
INTEGER = ValueType("integer")
DECIMAL = ValueType("decimal")
BOOLEAN = ValueType("boolean")


class PropertyDef(Record):
    __slots__ = ("name", "description", "value_type", "default", "availability")

    def __init__(
        self, name: str, description: str, value_type: ValueType, default: str | None = None,
        availability: str | None = None,
    ):
        self.name = name
        self.description = description
        self.value_type = value_type
        self.default = default
        self.availability = availability  # condexpr source over sibling properties


class StageDef(Record):
    __slots__ = (
        "name", "description", "synonyms", "is_connector", "inputs", "outputs", "properties"
    )

    def __init__(
        self, name: str, description: str, synonyms: tuple[str, ...], is_connector: bool,
        inputs: CardinalityBound, outputs: CardinalityBound, properties: tuple[PropertyDef, ...],
    ):
        self.name = name
        self.description = description
        self.synonyms = synonyms
        self.is_connector = is_connector
        self.inputs = inputs
        self.outputs = outputs
        self.properties = properties

    def find_property(self, name: str) -> PropertyDef | None:
        """Case-insensitive property lookup returning the declared definition."""
        lowered = name.lower()
        for prop in self.properties:
            if prop.name.lower() == lowered:
                return prop
        return None


class Violation:
    __slots__ = ("stage", "field", "message")

    def __init__(self, stage: str, field: str, message: str):
        self.stage = stage
        self.field = field
        self.message = message

    def __str__(self) -> str:
        return f"{self.stage}.{self.field}: {self.message}"


class Keyword:
    """A whole-word, case-insensitive pattern, with the parts the text must hold for it to match.

    An underscore in the keyword matches an underscore or a space.
    """

    __slots__ = ("parts", "pattern", "stages")

    def __init__(self, parts: frozenset[str], pattern: re.Pattern[str], stages: frozenset[str]):
        self.parts = parts  # all but the first, which files it in ``keyword_index``
        self.pattern = pattern
        self.stages = stages


# the only non-ASCII code points that ``re.IGNORECASE`` matches to [a-z0-9];
# str.lower() alone maps U+212A to "k", but not the other three
_ASCII_FOLDS = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})
_PART_RE = re.compile(r"[a-z0-9]+")


def keyword_parts(text: str) -> list[str]:
    """The ``[a-z0-9]+`` runs of ``text`` after the four ASCII folds and lowercasing.

    A keyword's pattern can match a text only if every part of the keyword
    is a part of the text: each character that the pattern matches to an
    ASCII letter or digit folds to it here, and no other character does.
    An ASCII text holds none of the folded characters, so it skips the fold.
    """
    if not text.isascii():
        text = text.translate(_ASCII_FOLDS)
    return _PART_RE.findall(text.lower())


class Catalog:
    # no __slots__: the cached properties live in the instance __dict__
    def __init__(self, stages: dict[str, StageDef]):
        self.stages = stages

    @cached_property
    def keyword_index(self) -> dict[str, tuple[Keyword, ...]]:
        """Each keyword (a stage's name or synonym) by its first ``keyword_parts`` part.

        A keyword's ``stages`` are every stage it names. Keywords are folded
        as ``keyword_parts`` folds a text, then lowercased: ``str.lower()``
        alone turns U+0130 into ``i`` and a combining dot, which no text
        spelled ``İ``, ``i`` or ``I`` matches. A keyword with no part is
        filed under ``""``. Built, and its patterns compiled, at the first
        keyword scan, so a catalog that is never scanned pays nothing.
        """
        stages_of: dict[str, set[str]] = {}
        for stage in self.stages.values():
            for keyword in (stage.name, *stage.synonyms):
                stages_of.setdefault(keyword.translate(_ASCII_FOLDS).lower(), set()).add(stage.name)
        index: dict[str, list[Keyword]] = {}
        for k, stages in stages_of.items():
            first, *rest = keyword_parts(k) or [""]
            pattern = re.compile(r"\b" + re.escape(k).replace("_", "[_ ]") + r"\b", re.IGNORECASE)
            index.setdefault(first, []).append(Keyword(frozenset(rest), pattern, frozenset(stages)))
        return {first: tuple(keywords) for first, keywords in index.items()}


# --- parsing ---------------------------------------------------------------


# the catalog's shape, but for each bound's max and each property's type; None keys name objects
_BOUND = {None: "object with min/max", "min": int}
_PROPERTY = {
    None: "property object", "name": str, "description": str,
    "default?": (None, str), "availability?": (None, str),
}
_STAGE = {
    None: "stage object", "name": str, "description": str, "synonyms?": [str], "is_connector?": bool,
    "inputs": _BOUND, "outputs": _BOUND, "properties?": [_PROPERTY],
}
_CATALOG = {None: 'an object with a "stages" array', "stages": [_STAGE]}


def _parse_bound(raw: dict, locus: str) -> CardinalityBound:
    if raw.get("max") == "unbounded":
        return CardinalityBound(raw["min"], None)
    bound_max = check(raw.get("max"), int, f"{locus}.max")
    return CardinalityBound(raw["min"], bound_max)


def _parse_value_type(raw: object, locus: str, i: int) -> ValueType:
    """The type of the ``i``th property of the stage at ``locus``."""
    if raw in ("string", "integer", "decimal", "boolean"):
        return ValueType(raw)
    locus = f"{locus}.properties[{i}].type"
    if isinstance(raw, str):
        raise InputError(f"unknown value type {raw!r}", locus)
    if isinstance(raw, dict) and set(raw) == {"enum"} and isinstance(raw["enum"], list):
        where = f"{locus}.enum"
        return ValueType("enum", tuple(check(v, str, where) for v in raw["enum"]))
    raise InputError('expected a type name or {"enum": [...]}', locus)


def _parse_stage(raw: dict, locus: str) -> StageDef:
    """The stage of ``raw``, a ``_STAGE``, at ``locus``."""
    properties = [
        PropertyDef(
            p["name"], p["description"], _parse_value_type(p.get("type"), locus, i), p.get("default"),
            p.get("availability"),
        )
        for i, p in enumerate(raw.get("properties", ()))
    ]
    return StageDef(
        name=raw["name"],
        description=raw["description"],
        synonyms=tuple(raw.get("synonyms", ())),
        is_connector=raw.get("is_connector", False),
        inputs=_parse_bound(raw["inputs"], f"{locus}.inputs"),
        outputs=_parse_bound(raw["outputs"], f"{locus}.outputs"),
        properties=tuple(properties),
    )


# a value of each declared kind, of the type ``proppred.coerce`` gives it: type errors depend
# only on types and evaluation is strict, so one evaluation finds all that ``validate`` could hit
_SAMPLE_VALUES = {"string": "", "integer": 0, "decimal": Decimal(0), "boolean": False, "enum": ""}


def _stage_violations(stage: StageDef) -> list[Violation]:
    out: list[Violation] = []
    if stage.name != stage.name.lower():
        # operator answers are lowercased, so such a stage could never be predicted
        out.append(Violation(stage.name, "name", "stage name is not lowercase"))
    for label, bound in (("inputs", stage.inputs), ("outputs", stage.outputs)):
        if bound.min < 0:
            out.append(Violation(stage.name, label, f"min {bound.min} is negative"))
        if bound.max is not None and bound.min > bound.max:
            out.append(Violation(stage.name, label, f"min {bound.min} exceeds max {bound.max}"))
    if not stage.description:
        out.append(Violation(stage.name, "description", "description is empty"))
    # ``find_property`` matches names case-insensitively and takes the first
    seen: dict[str, str] = {}
    declared = {p.name: p.value_type for p in stage.properties}
    sample = {name: _SAMPLE_VALUES[vt.kind] for name, vt in declared.items()}
    for prop in stage.properties:
        locus = f"properties[{prop.name}]"
        first = seen.get(prop.name.lower())
        if first is None:
            seen[prop.name.lower()] = prop.name
        elif first == prop.name:
            out.append(Violation(stage.name, locus, "duplicate property name"))
        else:
            message = f"duplicate property name: {first!r} and {prop.name!r} differ only in case"
            out.append(Violation(stage.name, locus, message))
        if prop.value_type.kind == "enum" and not prop.value_type.variants:
            out.append(Violation(stage.name, locus, "enum type with no variants"))
        if prop.availability is None:
            continue
        try:
            expr = condexpr.parse_condition(prop.availability)
        except condexpr.ConditionSyntaxError as exc:
            out.append(Violation(stage.name, locus, f"availability does not parse: {exc}"))
            continue
        messages = []
        for path, literal in condexpr.references(expr):
            vt = declared.get(path)
            if vt is None:
                messages.append(f"availability references unknown property {path!r}")
            elif vt.kind == "enum" and literal is not None and literal.kind == "string":
                if literal.value not in vt.variants:
                    messages.append(f"availability compares {path!r} with {literal.value!r}, not a variant")
        try:
            condexpr.eval_condition(expr, sample)
        except condexpr.ConditionTypeError as exc:
            messages.append(f"availability does not type-check: {exc}")
        out.extend(Violation(stage.name, locus, m) for m in dict.fromkeys(messages))
    return out


def _violations(stages: list[StageDef]) -> list[Violation]:
    """Every violation of ``stages``, in stage order, then the name collisions.

    A repeated stage name is a violation; a catalog's dict cannot hold one.
    Stages named ``<other>_<digits>`` collide: a numbered node of ``other``
    would share that name.
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for stage in stages:
        if stage.name in seen:
            out.append(Violation(stage.name, "name", "duplicate stage name"))
        seen.add(stage.name)
        out.extend(_stage_violations(stage))
    for name in [stage.name for stage in stages]:
        base, sep, digits = name.rpartition("_")
        if sep and base in seen and digits.isascii() and digits.isdigit():
            out.append(Violation(name, "name", f"collides with the node names of stage {base!r}"))
    return out


def load_catalog(path: str | Path) -> Catalog:
    """The catalog of the file at ``path``; every error names the file."""
    doc = read_json(path, _CATALOG)
    stages = [_parse_stage(raw, f"{path}: stages[{i}]") for i, raw in enumerate(doc["stages"])]
    violations = _violations(stages)
    if violations:
        raise CatalogValidationError(violations, str(path))
    return Catalog({s.name: s for s in stages})


# --- serialization ---------------------------------------------------------


def _bound_doc(bound: CardinalityBound) -> dict:
    return {"min": bound.min, "max": "unbounded" if bound.max is None else bound.max}


def _type_doc(vt: ValueType) -> object:
    if vt.kind == "enum":
        return {"enum": list(vt.variants)}
    return vt.kind


def _property_doc(prop: PropertyDef) -> dict:
    doc: dict = {
        "name": prop.name,
        "description": prop.description,
        "type": _type_doc(prop.value_type),
    }
    if prop.default is not None:
        doc["default"] = prop.default
    if prop.availability is not None:
        doc["availability"] = prop.availability
    return doc


def dump_catalog(catalog: Catalog) -> str:
    """Serialize to the canonical JSON form (stable key order, 2-space indent)."""
    doc = {
        "stages": [
            {
                "name": s.name,
                "description": s.description,
                "synonyms": list(s.synonyms),
                "is_connector": s.is_connector,
                "inputs": _bound_doc(s.inputs),
                "outputs": _bound_doc(s.outputs),
                "properties": [_property_doc(p) for p in s.properties],
            }
            for s in catalog.stages.values()
        ]
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
