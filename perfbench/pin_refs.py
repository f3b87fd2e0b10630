"""Check (or re-pin) the reference documents of the demo pairs.

    python3 perfbench/pin_refs.py           # check the pinned references
    python3 perfbench/pin_refs.py --write   # pin them from this checkout

The references are the documents ``emit()`` writes for the pairs in
``workloads.DEMO_PAIRS``. They do not rest on the code alone: the flow texts
must equal the ones in ``tests/conftest.py``, the cag and single documents
of the linear and branching flows must agree with the hand-written
``GOLD_LINEAR_SEQUENCE`` and ``GOLD_BRANCHING_EDGES`` in
``tests/test_acceptance.py``, and the repair flow's document must agree with
``GOLD_REPAIR_EDGES`` and ``GOLD_REPAIR_PROPERTIES`` below. Exits 1 on any
disagreement.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from flowgen import pipeline  # noqa: E402
from workloads import DEMO_PAIRS, REFERENCE_DIR, build_demo_runtime, reference_path  # noqa: E402

FLOW_CONSTANTS = {
    "linear": "LINEAR_FLOW",
    "branching": "BRANCHING_FLOW",
    "full_name": "FULL_NAME_FLOW",
    "merge": "MERGE_FLOW",
}
TAIL_FLOW = "Use Tail"  # the README's quick-start utterance
# answered by mock_scripts_repair.json
REPAIR_FLOW = (
    "Read the orders table from MySQL, sort it on order_date and modify it to drop the "
    "notes column. Generate an explicit order_id column and peek at the generated rows. "
    "Funnel both streams in sort mode on order_id into the orders_out fileset."
)

# The scripted edges of the repair flow also hold sort -> funnel and
# column_generator -> peek. sort allows one output and has an input, so
# repair prunes its newer edge; column_generator allows one output and has
# no input, so repair splits it into two copies. Its scripted
# "Options/Schema File" is rejected: that property is available only when
# "Options/Column Method" is "Schema File".
GOLD_REPAIR_EDGES = {
    ("mysql", "sort"),
    ("sort", "modify"),
    ("modify", "funnel"),
    ("column_generator_1", "funnel"),
    ("column_generator_2", "peek"),
    ("funnel", "fileset"),
}
_GENERATED = {"Options/Column Method": "Explicit", "Options/Column To Generate": "order_id"}
GOLD_REPAIR_PROPERTIES = {
    "column_generator_1": _GENERATED,
    "column_generator_2": _GENERATED,
    "funnel": {"Mode": "sort", "Sort Key": "order_id"},
}


def constants(path: Path) -> dict[str, object]:
    """Module-level literal assignments of a Python file, read without importing it."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def expected_flows() -> dict[str, str]:
    conftest = constants(ROOT / "tests" / "conftest.py")
    flows = {name: conftest[const] for name, const in FLOW_CONSTANTS.items()}
    flows["tail"] = TAIL_FLOW
    flows["repair"] = REPAIR_FLOW
    return flows


def emit_all(flows: dict[str, str]) -> dict[tuple[str, str], str]:
    runtimes = {}
    docs = {}
    for strategy, flow in DEMO_PAIRS:
        if strategy not in runtimes:
            runtimes[strategy] = build_demo_runtime("demo-pipeline", strategy)
        workflow = pipeline.generate_with_runtime(flows[flow], runtimes[strategy])
        if workflow.provenance["diagnostics"]:
            raise SystemExit(f"{strategy}-{flow}: diagnostics {workflow.provenance['diagnostics']}")
        docs[(strategy, flow)] = pipeline.emit(workflow)
    return docs


def gold_problems(docs: dict[tuple[str, str], str]) -> list[str]:
    gold = constants(ROOT / "tests" / "test_acceptance.py")
    linear_gold = list(gold["GOLD_LINEAR_SEQUENCE"])
    branching_gold = {tuple(e) for e in gold["GOLD_BRANCHING_EDGES"]}
    problems = []
    for strategy in ("cag", "single"):
        doc = json.loads(docs[(strategy, "linear")])
        stage_of = {n["unique_name"]: n["stage"] for n in doc["nodes"]}
        successor = {e["from"]: e["to"] for e in doc["edges"]}
        heads = set(stage_of) - set(successor.values())
        chain = [next(iter(heads))] if len(heads) == 1 else []
        while chain and chain[-1] in successor:
            chain.append(successor[chain[-1]])
        if [stage_of[n] for n in chain] != linear_gold or len(chain) != len(stage_of):
            problems.append(f"{strategy}-linear: chain {chain} is not {linear_gold}")
        doc = json.loads(docs[(strategy, "branching")])
        edges = {(e["from"], e["to"]) for e in doc["edges"]}
        if edges != branching_gold:
            problems.append(f"{strategy}-branching: edges differ from GOLD_BRANCHING_EDGES")
    doc = json.loads(docs[("single", "repair")])
    if {(e["from"], e["to"]) for e in doc["edges"]} != GOLD_REPAIR_EDGES:
        problems.append("single-repair: edges differ from GOLD_REPAIR_EDGES")
    properties = {n["unique_name"]: {p["name"]: p["value"] for p in n["properties"]} for n in doc["nodes"]}
    if any(properties.get(node) != props for node, props in GOLD_REPAIR_PROPERTIES.items()):
        problems.append("single-repair: properties differ from GOLD_REPAIR_PROPERTIES")
    return problems


def main(argv: list[str]) -> int:
    flows = expected_flows()
    docs = emit_all(flows)
    if "--write" in argv:
        problems = gold_problems(docs)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        text = json.dumps(flows, indent=2, ensure_ascii=False) + "\n"
        (REFERENCE_DIR / "flows.json").write_text(text, encoding="utf-8")
        for pair, doc in docs.items():
            reference_path(*pair).write_text(doc, encoding="utf-8")
        print(f"pinned {len(docs)} documents in {REFERENCE_DIR}")
        return 0
    problems = []
    pinned_flows = json.loads((REFERENCE_DIR / "flows.json").read_text(encoding="utf-8"))
    if pinned_flows != flows:
        problems.append("flows.json differs from the flow texts in tests/conftest.py")
    pinned = {pair: reference_path(*pair).read_text(encoding="utf-8") for pair in DEMO_PAIRS}
    problems += gold_problems(pinned)
    problems += [f"{s}-{f}: emitted document differs" for (s, f), d in docs.items() if pinned[(s, f)] != d]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{len(docs)} pinned documents agree with this checkout and the hand-written gold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
