"""Per-node property prediction and validation.

The model proposes ``name = value`` lines from a node's sub-utterance. Its
prompt is the properties template with the stage's name and property list
bound and counted once per stage and runtime, so the template's SHA-256
state covers all the text before the sub-utterance. A call counts and
hashes only the sub-utterance, the run's text, and the prompt's last line.
Every assignment then runs a four-step gauntlet, each rejection tagged with
the step that fired:

1. the name must exist in the stage's schema (``rejected_unknown_name``),
2. the raw value must coerce to the declared type (``rejected_type``),
3. the property's availability condition must hold against the assignments
   that survived steps 1–2 (``rejected_dependency``),
4. registry-bound values — connections, schemas, tables — must name
   something that actually exists (``rejected_external``).

Dependency evaluation is a single pass: the environment is fixed to the
step-1–2 survivors, so a rejection in step 3 or 4 does not cascade to the
siblings whose conditions name the rejected property.
"""

from __future__ import annotations

import re
from collections import Counter
from decimal import Decimal
from pathlib import Path
from typing import Hashable, Iterable

from . import InputError, fixture_path, read_json
from .catalog import PropertyDef, StageDef, ValueType
from .condexpr import eval_condition, parse_condition
from .edgepred import NodeInstance
from .llm import (
    CompletionProvider, PromptTemplate, answer_pairs, bind, complete, load_template, render_prompt
)

__all__ = [
    "ACCEPTED",
    "REJECTED_UNKNOWN_NAME",
    "REJECTED_TYPE",
    "REJECTED_DEPENDENCY",
    "REJECTED_EXTERNAL",
    "PropertyAssignment",
    "ExternalRegistry",
    "PropMetrics",
    "predict_properties",
    "coerce",
    "canonical_value",
    "validate",
    "load_registry",
    "prop_metrics",
]

ACCEPTED = "accepted"
REJECTED_UNKNOWN_NAME = "rejected_unknown_name"
REJECTED_TYPE = "rejected_type"
REJECTED_DEPENDENCY = "rejected_dependency"
REJECTED_EXTERNAL = "rejected_external"

REGISTRY_KINDS = ("connection", "schema", "table")

_PROPERTIES_TEMPLATE = load_template(fixture_path("templates", "properties.txt"))


class PropertyAssignment:
    __slots__ = ("name", "raw_value", "coerced", "status", "detail")

    def __init__(
        self, name: str, raw_value: str, coerced: object | None = None, status: str | None = None,
        detail: str = "",
    ):
        self.name = name
        self.raw_value = raw_value
        self.coerced = coerced
        self.status = status  # None until validated; exactly one status after
        self.detail = detail


class ExternalRegistry:
    """Known external names per kind, and which stage properties must use them."""

    __slots__ = ("kinds", "bindings")

    def __init__(self, kinds: dict[str, frozenset[str]], bindings: dict[str, dict[str, str]]):
        self.kinds = kinds
        self.bindings = bindings  # stage -> property name -> kind


def load_registry(path: str | Path) -> ExternalRegistry:
    expected = "kinds and bindings objects"
    raw = read_json(path, dict, expected)
    kinds_raw = raw.get("kinds")
    bindings_raw = raw.get("bindings")
    if not isinstance(kinds_raw, dict) or not isinstance(bindings_raw, dict):
        raise InputError(f"{path}: expected {expected}")
    kinds = {}
    for kind, names in kinds_raw.items():
        if kind not in REGISTRY_KINDS:
            raise InputError(f"{path}: unknown registry kind {kind!r}")
        if not isinstance(names, list):
            raise InputError(f"{path}: registry kind {kind!r} needs an array of names")
        kinds[kind] = frozenset(str(n) for n in names)
    bindings: dict[str, dict[str, str]] = {}
    for stage, props in bindings_raw.items():
        if not isinstance(props, dict):
            raise InputError(f"{path}: bindings of {stage!r} must be an object")
        bindings[stage] = {}
        for prop, kind in props.items():
            if kind not in kinds:
                raise InputError(f"{path}: binding {stage}/{prop} uses undeclared kind {kind!r}")
            bindings[stage][prop] = kind
    return ExternalRegistry(kinds=kinds, bindings=bindings)


# --- prediction -----------------------------------------------------------------


def predict_properties(
    node: NodeInstance,
    stage: StageDef,
    provider: CompletionProvider,
    trace: list[dict],
    templates: dict[str, PromptTemplate],
    span: str,
) -> list[PropertyAssignment]:
    """Ask the model for ``name = value`` lines about ``span``, the node's sub-utterance.

    Zero parseable lines is fine. ``templates`` is the runtime's properties
    template of each stage, by stage name, with only ``sub_utterance`` open
    (``StagePrompts.properties``); it is filled at a stage's first use.
    """
    template = templates.get(stage.name)
    if template is None:
        prop_lines = "\n".join(f"{p.name}: {p.description}" for p in stage.properties)
        template = templates[stage.name] = bind(
            _PROPERTIES_TEMPLATE, {"stage": stage.name, "properties": prop_lines}
        )
    prompt = render_prompt(template, {"sub_utterance": span})
    answer = complete(provider, prompt, trace, "properties", node=node.unique_name)
    pairs = answer_pairs(answer, "=")
    return [PropertyAssignment(name=name, raw_value=value) for name, value in pairs if name]


# --- coercion -------------------------------------------------------------------

_INT_RE = re.compile(r"[+-]?\d+$")
_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)$")
_BOOLEANS = {
    "true": True,
    "yes": True,
    "on": True,
    "false": False,
    "no": False,
    "off": False,
}


def _strip_quotes(raw: str) -> str:
    s = raw.strip()
    while len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
        s = s[1:-1].strip()
    return s


def coerce(raw: str, value_type: ValueType) -> object | None:
    """Coerce a raw string to the declared type; ``None`` signals failure.

    Total and deterministic; re-coercing a canonical form is a fixpoint.
    """
    if value_type.kind == "string":
        return _strip_quotes(raw)
    s = raw.strip()
    if value_type.kind == "integer":
        if not _INT_RE.fullmatch(s):
            return None
        try:
            return int(s)
        except ValueError:  # more digits than ``int`` converts (``sys.get_int_max_str_digits``)
            return None
    if value_type.kind == "decimal":
        return Decimal(s) if _DECIMAL_RE.fullmatch(s) else None
    if value_type.kind == "boolean":
        return _BOOLEANS.get(s.lower())
    if value_type.kind == "enum":
        lowered = s.lower()
        for variant in value_type.variants:
            if variant.lower() == lowered:
                return variant  # canonicalized to declared casing
        return None
    raise AssertionError(f"unknown value type {value_type.kind!r}")


def canonical_value(coerced: object) -> str:
    """Stable text form of a coerced value, used for emission and scoring."""
    if isinstance(coerced, bool):
        return "true" if coerced else "false"
    return str(coerced)


# --- validation ------------------------------------------------------------------


def validate(
    assignments: list[PropertyAssignment],
    stage: StageDef,
    registry: ExternalRegistry | None = None,
) -> list[PropertyAssignment]:
    """Run the four validation steps; returns statused copies in input order.

    Property names match case-insensitively and are canonicalized to the
    declared spelling.
    """
    out: list[PropertyAssignment] = []
    props: list[PropertyDef | None] = []  # each assignment's definition, found once
    for a in assignments:
        prop = stage.find_property(a.name)
        props.append(prop)
        if prop is None:
            detail = f"{stage.name} has no such property"
            status = REJECTED_UNKNOWN_NAME
            out.append(PropertyAssignment(a.name, a.raw_value, a.coerced, status, detail))
            continue
        coerced = coerce(a.raw_value, prop.value_type)
        if coerced is None:
            detail = f"{a.raw_value!r} is not a valid {prop.value_type.kind}"
            out.append(PropertyAssignment(prop.name, a.raw_value, a.coerced, REJECTED_TYPE, detail))
            continue
        out.append(PropertyAssignment(prop.name, a.raw_value, coerced, None, a.detail))

    # dependency environment: assignments that survived steps 1-2 (first
    # occurrence wins on duplicate names)
    env: dict[str, object] = {}
    for a in out:
        if a.status is None and a.name not in env:
            env[a.name] = a.coerced
    for a, prop in zip(out, props):
        if a.status is not None or prop.availability is None:
            continue
        if not eval_condition(parse_condition(prop.availability), env):
            a.status = REJECTED_DEPENDENCY
            a.detail = f"availability not met: {prop.availability}"

    bindings = registry.bindings.get(stage.name, {}) if registry else {}
    for a in out:
        if a.status is not None:
            continue
        kind = bindings.get(a.name)
        if kind is not None:
            value = canonical_value(a.coerced)
            if value not in registry.kinds.get(kind, frozenset()):  # type: ignore[union-attr]
                a.status = REJECTED_EXTERNAL
                a.detail = f"{value!r} is not a registered {kind}"
                continue
        a.status = ACCEPTED
    return out


# --- metrics --------------------------------------------------------------------

PropTriple = tuple[str, str, str]  # (node unique_name, property name, canonical value)


class PropMetrics:
    __slots__ = ("precision", "recall", "f1", "matches", "predicted", "gold")

    def __init__(
        self, precision: float, recall: float, f1: float, matches: int = 0, predicted: int = 0,
        gold: int = 0,
    ):
        self.precision = precision
        self.recall = recall
        self.f1 = f1
        self.matches = matches
        self.predicted = predicted
        self.gold = gold


def prop_metrics(predicted: Iterable[Hashable], gold: Iterable[Hashable]) -> PropMetrics:
    """Set-match on (node, property, value) triples, or on any keys, such as a triple with its record.

    Empty-versus-empty counts as perfect; empty-versus-nonempty as zero.
    F1 is the harmonic mean, zero when both components are zero.
    """
    pred_counts = Counter(predicted)
    gold_counts = Counter(gold)
    matches = sum((pred_counts & gold_counts).values())
    n_pred = sum(pred_counts.values())
    n_gold = sum(gold_counts.values())
    if n_pred == 0:
        precision = 1.0 if n_gold == 0 else 0.0
    else:
        precision = matches / n_pred
    if n_gold == 0:
        recall = 1.0 if n_pred == 0 else 0.0
    else:
        recall = matches / n_gold
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return PropMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        matches=matches,
        predicted=n_pred,
        gold=n_gold,
    )
