"""Deterministic synthetic corpus at full catalog scale.

Builds a 142-stage catalog (90 connectors, 52 transforms), a 142-example
few-shot bank in which every stage is mentioned exactly twice, one classifier
training pair per stage, 20 labeled utterances, and the mock provider scripts
that answer their decomposition and stage-selection prompts. Everything is a
pure function of the seed, so regenerating must reproduce the shipped
fixtures byte for byte.
"""

from __future__ import annotations

import json
import random

from .catalog import (
    BOOLEAN,
    Catalog,
    CardinalityBound,
    INTEGER,
    PropertyDef,
    STRING,
    StageDef,
    ValueType,
    dump_catalog,
)

DEFAULT_SEED = 743916

_VENDORS = (
    "lumora", "vexlar", "quenix", "ardent", "bluepeak", "cindral", "dovetail",
    "emberly", "fenwick", "glimmer", "halcyon", "ironbark", "juniper", "kestrel",
    "larkspur", "meridia", "nimbus", "orchid", "pinnacle", "quartz", "rosewood",
    "sablewood", "tamarind", "umberly", "verdant", "wystone", "xanthic", "yarrow",
    "zephyr", "coralline",
)
_STORES = ("warehouse", "lake", "archive")  # 30 vendors x 3 = 90 connectors

_VERBS = (
    "trim", "rank", "pivot", "bucket", "dedupe", "mask", "stitch", "reorder",
    "window", "collapse", "expand", "balance", "anchor",
)
_OBJECTS = ("columns", "rows", "fields", "segments")  # 13 x 4 = 52 transforms


def _spaced(name: str) -> str:
    return name.replace("_", " ")


# --- catalog -------------------------------------------------------------------

_CONN_ROLE = (
    "Moves records between the flow and a hosted {spaced} service account.",
    "Connects the flow to a managed {spaced} deployment over the bulk interface.",
    "Bridges flow data and an external {spaced} tenant with checkpointed transfers.",
)
_CONN_DETAIL = (
    "Supports credential rotation, staged commits, and resumable bulk loads for "
    "large nightly transfers without operator intervention.",
    "Handles partition discovery, schema drift alerts, and retry budgets so "
    "recurring jobs keep their delivery guarantees.",
    "Provides change capture, quota tracking, and ordered delivery so downstream "
    "consumers observe a consistent snapshot.",
    "Negotiates compression, batching, and parallel sessions to keep transfer "
    "windows short on constrained links.",
)
_CONN_OPS = (
    "Typical use covers both initial history backfills and incremental refresh "
    "cycles scheduled several times a day.",
    "Commonly placed at flow boundaries where audited handover of record "
    "batches matters more than latency.",
    "Suited to regulated environments that require lineage stamps on every "
    "delivered batch.",
)
_TRANS_ROLE = (
    "Applies the {spaced} operation to every incoming record group.",
    "Reshapes streaming data by performing {spaced} across the active schema.",
    "Runs {spaced} over each window of records before they continue downstream.",
)
_TRANS_DETAIL = (
    "Honors locale-aware comparisons, configurable null handling, and stable "
    "ordering so repeated runs give identical output.",
    "Keeps memory bounded by spilling oversized groups to scratch storage while "
    "preserving the declared ordering keys.",
    "Emits per-batch counters for skipped, rewritten, and passthrough records to "
    "aid reconciliation.",
    "Validates the declared schema before processing and rejects records that "
    "would silently lose precision.",
)
_TRANS_OPS = (
    "Often paired with upstream connectors to normalize feeds before they reach "
    "shared storage.",
    "Usually appears mid-flow where layout fixes are cheaper than downstream "
    "compensation.",
    "Works on both bounded batches and continuous feeds without configuration "
    "changes.",
)

_WRITE_MODES = ("append", "replace", "upsert")
_NULL_MODES = ("keep", "drop", "fail")

_TRANSFORM_PROPS = (
    PropertyDef("Key Column", "Column the operation groups or orders by.", STRING),
    PropertyDef("Case Sensitive", "Compare text respecting letter case.", BOOLEAN, default="false"),
    PropertyDef("Batch Size", "Records processed per internal batch.", INTEGER, default="1000"),
    PropertyDef("Locale", "Locale code used for collation decisions.", STRING),
    PropertyDef("Precision", "Digits preserved for numeric rewrites.", INTEGER),
    PropertyDef(
        "Null Handling",
        "What to do with records whose key value is missing.",
        ValueType.enum_of(_NULL_MODES),
        default="keep",
    ),
)

_TRANSFORM_BOUNDS = (
    (CardinalityBound(1, 1), CardinalityBound(1, 1)),
    (CardinalityBound(1, 1), CardinalityBound(1, None)),
    (CardinalityBound(1, None), CardinalityBound(1, 1)),
    (CardinalityBound(2, 2), CardinalityBound(1, 1)),
    (CardinalityBound(1, 1), CardinalityBound(0, None)),
)


def connector_names() -> list[str]:
    return [f"{v}_{s}" for v in _VENDORS for s in _STORES]


def transform_names() -> list[str]:
    return [f"{v}_{o}" for v in _VERBS for o in _OBJECTS]


def _connector(name: str, rng: random.Random) -> StageDef:
    spaced = _spaced(name)
    description = " ".join(
        (
            rng.choice(_CONN_ROLE).format(spaced=spaced),
            rng.choice(_CONN_DETAIL),
            rng.choice(_CONN_OPS),
        )
    )
    props = [
        PropertyDef("Connection Name", "Registered connection to use.", STRING),
        PropertyDef("Schema Name", "Schema holding the target table.", STRING),
        PropertyDef("Table Name", "Table read from or written to.", STRING),
        PropertyDef("Row Limit", "Stop after this many records.", INTEGER),
        PropertyDef(
            "Write Mode",
            "How delivered records combine with existing ones.",
            ValueType.enum_of(_WRITE_MODES),
            default="append",
        ),
        PropertyDef(
            "Create Statement",
            "DDL issued before the first batch when the table is rebuilt.",
            STRING,
            availability="'Write Mode' = \"replace\"",
        ),
    ]
    return StageDef(
        name=name,
        description=description,
        synonyms=(),
        is_connector=True,
        inputs=CardinalityBound(0, 1),
        outputs=CardinalityBound(0, 1),
        properties=tuple(props),
    )


def _transform(name: str, rng: random.Random) -> StageDef:
    spaced = _spaced(name)
    description = " ".join(
        (
            rng.choice(_TRANS_ROLE).format(spaced=spaced),
            rng.choice(_TRANS_DETAIL),
            rng.choice(_TRANS_OPS),
        )
    )
    props = list(rng.sample(_TRANSFORM_PROPS, rng.randint(2, 5)))
    inputs, outputs = rng.choice(_TRANSFORM_BOUNDS)
    return StageDef(
        name=name,
        description=description,
        synonyms=(),
        is_connector=False,
        inputs=inputs,
        outputs=outputs,
        properties=tuple(props),
    )


def generate_catalog(seed: int = DEFAULT_SEED) -> Catalog:
    rng = random.Random(f"{seed}:catalog")
    stages = [_connector(n, rng) for n in connector_names()]
    stages += [_transform(n, rng) for n in transform_names()]
    return Catalog(stages={s.name: s for s in stages})


# --- few-shot bank ---------------------------------------------------------------

_READ_CLAUSES = (
    "pull the latest batch of records out of the {spaced} source before the "
    "morning reconciliation window opens",
    "load historical entries from the {spaced} service, keeping the original "
    "delivery order intact for the audit trail",
    "read every pending record from {spaced} so the downstream consolidation "
    "job starts from a complete picture",
)
_WRITE_CLAUSES = (
    "deliver the cleansed output into the {spaced} target once validation "
    "finishes for the current cycle",
    "publish the merged results to {spaced} where the reporting team picks "
    "them up each evening",
    "store the final snapshot in the {spaced} destination together with its "
    "lineage stamp",
)
_TRANSFORM_CLAUSES = (
    "run the {spaced} step over each group so duplicate identifiers cannot "
    "reach the shared layer",
    "apply {spaced} to the combined feed, keeping the declared ordering keys "
    "stable across batches",
    "use the {spaced} stage to reshape the payload before any downstream "
    "consumer subscribes to it",
)
_JOINERS = (", then ", ", and afterwards ", "; once that settles, ")


def _clause(stage: StageDef, rng: random.Random) -> str:
    spaced = _spaced(stage.name)
    if not stage.is_connector:
        pool = _TRANSFORM_CLAUSES
    else:
        pool = rng.choice((_READ_CLAUSES, _WRITE_CLAUSES))
    return rng.choice(pool).format(spaced=spaced)


def _sentence(stages: list[StageDef], rng: random.Random) -> tuple[str, list[str]]:
    """One utterance mentioning each stage once, plus its clause spans."""
    clauses = [_clause(s, rng) for s in stages]
    text = clauses[0].capitalize()
    for clause in clauses[1:]:
        text += rng.choice(_JOINERS) + clause
    return text + ".", clauses


def _mention_groups(names: list[str], rng: random.Random) -> list[list[str]]:
    """142 groups covering every stage exactly twice; sizes cycle 1, 2, 3.

    The mention order is two independent shuffles back to back, so only the
    one group straddling the halfway boundary can repeat a stage; a forward
    swap inside the second half repairs it without disturbing the rest.
    """
    first, second = list(names), list(names)
    rng.shuffle(first)
    rng.shuffle(second)
    order = first + second
    # n groups holding 2n mentions: n//3 cycles of sizes 1,2,3 plus n%3 pairs
    sizes = [1, 2, 3] * (len(names) // 3) + [2] * (len(names) % 3)
    groups: list[list[str]] = []
    cursor = 0
    for size in sizes:
        group = order[cursor : cursor + size]
        for i in range(1, size):
            if group[i] in group[:i]:
                j = next(
                    k for k in range(cursor + size, len(order)) if order[k] not in group
                )
                order[cursor + i], order[j] = order[j], order[cursor + i]
                group = order[cursor : cursor + size]
        assert len(set(group)) == size
        groups.append(group)
        cursor += size
    assert cursor == len(order)
    return groups


def generate_bank(catalog: Catalog, seed: int = DEFAULT_SEED) -> list[dict]:
    rng = random.Random(f"{seed}:bank")
    names = sorted(catalog.stages)
    examples = []
    for group in _mention_groups(names, rng):
        text, _ = _sentence([catalog.stages[n] for n in group], rng)
        examples.append({"utterance": text, "operators": group})
    return examples


# --- classifier pairs -------------------------------------------------------------

_PAIR_TASKS = (
    "prepare the nightly feed", "refresh the shared layer",
    "settle the reporting batch", "stage the incoming records",
    "reconcile the delivery run", "assemble the export cycle",
)


def generate_training_pairs(catalog: Catalog, seed: int = DEFAULT_SEED) -> list[dict]:
    rng = random.Random(f"{seed}:pairs")
    pairs = []
    for name in sorted(catalog.stages):
        task = rng.choice(_PAIR_TASKS)
        pairs.append(
            {"utterance": f"use the {_spaced(name)} stage to {task}", "label": name}
        )
    return pairs


# --- labeled utterances and provider scripts ---------------------------------------


class SyntheticUtterance:
    __slots__ = ("utterance", "gold_stages", "subs")

    def __init__(self, utterance: str, gold_stages: list[str], subs: list[str]):
        self.utterance = utterance
        self.gold_stages = gold_stages
        self.subs = subs


def generate_utterances(
    catalog: Catalog, seed: int = DEFAULT_SEED, count: int = 20
) -> list[SyntheticUtterance]:
    rng = random.Random(f"{seed}:utterances")
    names = sorted(catalog.stages)
    sizes = [1, 2, 3, 2] * ((count + 3) // 4)
    records = []
    for size in sizes[:count]:
        group = rng.sample(names, size)
        text, clauses = _sentence([catalog.stages[n] for n in group], rng)
        records.append(SyntheticUtterance(text, group, clauses))
    return records


def generate_mock_scripts(records: list[SyntheticUtterance]) -> list[dict]:
    """Decomposition and stage-selection scripts; the stage cue is shared by
    the full-catalog and scoped prompt shapes, so one file serves both."""
    scripts = []
    for rec in records:
        scripts.append(
            {
                "match": {"contains": f"Utterance: {rec.utterance}\nSub-utterances:"},
                "response": "\n".join(f"- {s}" for s in rec.subs),
            }
        )
        scripts.append(
            {
                "match": {"contains": f"Utterance:\n{rec.utterance}\nOperators:<|end_of_text|>"},
                "response": '"' + ", ".join(rec.gold_stages) + '"',
            }
        )
    return scripts


# --- file rendering ----------------------------------------------------------------


def _dumps(obj: object) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def render_all(seed: int = DEFAULT_SEED) -> dict[str, str]:
    """Filename -> exact file text for every synthetic fixture."""
    catalog = generate_catalog(seed)
    records = generate_utterances(catalog, seed)
    return {
        "synthetic_catalog.json": dump_catalog(catalog),
        "synthetic_bank.json": _dumps(generate_bank(catalog, seed)),
        "synthetic_training_pairs.json": _dumps(generate_training_pairs(catalog, seed)),
        "synthetic_utterances.json": _dumps(
            [
                {"utterance": r.utterance, "gold_stages": r.gold_stages, "subs": r.subs}
                for r in records
            ]
        ),
        "mock_scripts_synthetic.json": _dumps(generate_mock_scripts(records)),
    }
