"""Flow graphs: node construction, edge prediction, cardinality repair.

A stage prediction turns into node instances (duplicates get ``_1``, ``_2``
suffixes in answer order; singletons keep the bare stage name), each node is
assigned the utterance span that describes it, and a final completion call
proposes ``source -> target`` lines. Everything the model proposes is
verified: unknown endpoints are dropped, duplicate edges collapse, and any
edge that would close a cycle is dropped in response order, so the graph is
a DAG by construction.

Cardinality repair is total and idempotent. Pass 1 splits boundary nodes
that exceed a bound on one side while having no links on the other (a source
connector feeding three branches becomes three single-output copies); pass 2
prunes excess edges, newest first. Under-connection is reported, never
repaired — inventing links the user didn't describe is worse than leaving a
hole visible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .catalog import CardinalityBound, Catalog
from .llm import CompletionProvider, complete, load_template, render_prompt

from . import fixture_path

__all__ = [
    "NodeInstance",
    "FlowGraph",
    "CardinalityViolation",
    "EdgeMetrics",
    "GraphError",
    "SegmentationError",
    "EdgePredictionError",
    "node_names",
    "build_nodes",
    "segment_for_nodes",
    "predict_edges",
    "validate_cardinality",
    "repair_with_renames",
    "edge_metrics",
    "to_dot",
]


_SEGMENT_TEMPLATE = load_template(fixture_path("templates", "segment.txt"))
_EDGES_TEMPLATE = load_template(fixture_path("templates", "edges.txt"))


class GraphError(Exception):
    pass


class SegmentationError(GraphError):
    pass


class EdgePredictionError(GraphError):
    pass


@dataclass
class NodeInstance:
    unique_name: str
    stage: str
    inputs: CardinalityBound
    outputs: CardinalityBound
    sub_utterance: str = ""


@dataclass
class FlowGraph:
    nodes: list[NodeInstance]
    edges: list[tuple[str, str]] = field(default_factory=list)  # ordered, no duplicates

    def node_names(self) -> set[str]:
        return {n.unique_name for n in self.nodes}

    def in_degree(self, name: str) -> int:
        return sum(1 for _, dst in self.edges if dst == name)

    def out_degree(self, name: str) -> int:
        return sum(1 for src, _ in self.edges if src == name)

    def has_path(self, start: str, goal: str) -> bool:
        if start == goal:
            return True
        frontier = [start]
        seen = {start}
        while frontier:
            cur = frontier.pop()
            for src, dst in self.edges:
                if src == cur and dst not in seen:
                    if dst == goal:
                        return True
                    seen.add(dst)
                    frontier.append(dst)
        return False

    def copy(self) -> "FlowGraph":
        return FlowGraph(nodes=[replace(n) for n in self.nodes], edges=list(self.edges))


@dataclass
class CardinalityViolation:
    node: str
    direction: str  # "inputs" | "outputs"
    kind: str  # "over" | "under"
    actual: int
    bound: int  # the violated bound (max for over, min for under)

    def __str__(self) -> str:
        rel = ">" if self.kind == "over" else "<"
        return f"{self.node}: {self.actual} {self.direction} {rel} bound {self.bound}"


@dataclass
class EdgeMetrics:
    similarity: float  # Dice coefficient over aligned edge sets
    exact: bool


# --- node construction -------------------------------------------------------


def node_names(stages: list[str]) -> list[str]:
    """Node names for an ordered stage multiset, position by position.

    ``[head, tail, head]`` becomes ``head_1, tail, head_2`` — only duplicated
    stages get numbered, in order.
    """
    counts = Counter(stages)
    seen: Counter[str] = Counter()
    names: list[str] = []
    for stage in stages:
        if counts[stage] > 1:
            seen[stage] += 1
            names.append(f"{stage}_{seen[stage]}")
        else:
            names.append(stage)
    return names


def build_nodes(stages: list[str], catalog: Catalog) -> list[NodeInstance]:
    """Instantiate nodes from an answer-ordered stage multiset, named by ``node_names``."""
    nodes: list[NodeInstance] = []
    for stage_name, unique in zip(stages, node_names(stages)):
        stage = catalog.stages.get(stage_name)
        if stage is None:
            raise GraphError(f"prediction references unknown stage {stage_name!r}")
        nodes.append(
            NodeInstance(
                unique_name=unique,
                stage=stage_name,
                inputs=stage.inputs,
                outputs=stage.outputs,
            )
        )
    return nodes


# --- segmentation --------------------------------------------------------------


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def segment_for_nodes(
    utterance: str,
    nodes: list[NodeInstance],
    catalog: Catalog,
    provider: CompletionProvider,
    trace: list[dict] | None = None,
) -> dict[str, str]:
    """Map every node to the utterance span that describes it.

    A single node trivially owns the whole utterance and costs no completion.
    Spans must actually occur in the utterance (modulo whitespace runs) —
    paraphrased spans are an error, not a warning, because properties are
    predicted from them.
    """
    if not nodes:
        raise SegmentationError("cannot segment for an empty node list")
    if len(nodes) == 1:
        return {nodes[0].unique_name: utterance}
    node_lines = "\n".join(
        f"{n.unique_name} ({n.stage}): {catalog.stages[n.stage].description}" for n in nodes
    )
    prompt = render_prompt(_SEGMENT_TEMPLATE, {"nodes": node_lines, "utterance": utterance})
    answer = complete(provider, prompt, [] if trace is None else trace, "segmentation")
    known = {n.unique_name for n in nodes}
    segments: dict[str, str] = {}
    for line in answer.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        name, _, span = line.partition(":")
        name, span = name.strip(), span.strip()
        if name in known:
            segments[name] = span
    normalized_utterance = _normalize_ws(utterance)
    for node in nodes:
        span = segments.get(node.unique_name, "")
        if not span:
            raise SegmentationError(f"no sub-utterance assigned to node {node.unique_name!r}")
        if _normalize_ws(span) not in normalized_utterance:
            raise SegmentationError(
                f"span for {node.unique_name!r} does not occur in the utterance: {span!r}"
            )
    return segments


# --- edge prediction -----------------------------------------------------------


def _bound_text(bound: CardinalityBound) -> str:
    return f"{bound.min}..{'*' if bound.max is None else bound.max}"


def predict_edges(
    nodes: list[NodeInstance],
    utterance: str,
    provider: CompletionProvider,
    trace: list[dict] | None = None,
) -> FlowGraph:
    """Propose directed edges over the given nodes via one completion.

    Flows with fewer than two nodes have no edges to predict and cost no
    call. Everything the model answers is filtered: unknown endpoints and
    duplicates are dropped with a trace entry, and an edge that would create
    a cycle is dropped in response order, so the result is always a DAG over
    exactly the given nodes.
    """
    trace = [] if trace is None else trace
    graph = FlowGraph(nodes=list(nodes))
    if len(nodes) < 2:
        return graph
    node_lines = "\n".join(
        f"{n.unique_name} ({n.stage}, inputs {_bound_text(n.inputs)}, "
        f"outputs {_bound_text(n.outputs)}): {n.sub_utterance}"
        for n in nodes
    )
    prompt = render_prompt(_EDGES_TEMPLATE, {"nodes": node_lines, "utterance": utterance})
    answer = complete(provider, prompt, trace, "edge_prediction")
    known = graph.node_names()
    parsed: list[tuple[str, str]] = []
    for line in answer.splitlines():
        if "->" not in line:
            continue
        src, _, dst = line.partition("->")
        parsed.append((src.strip(), dst.strip()))
    if not parsed:
        raise EdgePredictionError(f"no parseable edges in response {answer!r}")
    seen: set[tuple[str, str]] = set()
    for src, dst in parsed:
        if src not in known or dst not in known:
            trace.append({"event": "edge_dropped", "edge": f"{src} -> {dst}", "reason": "unknown endpoint"})
            continue
        if (src, dst) in seen:
            trace.append({"event": "edge_dropped", "edge": f"{src} -> {dst}", "reason": "duplicate"})
            continue
        if graph.has_path(dst, src):
            trace.append({"event": "edge_dropped", "edge": f"{src} -> {dst}", "reason": "would create a cycle"})
            continue
        seen.add((src, dst))
        graph.edges.append((src, dst))
    return graph


# --- cardinality validation and repair -------------------------------------------


def _node_violations(g: FlowGraph, node: NodeInstance) -> list[CardinalityViolation]:
    out: list[CardinalityViolation] = []
    for direction, bound, actual in (
        ("inputs", node.inputs, g.in_degree(node.unique_name)),
        ("outputs", node.outputs, g.out_degree(node.unique_name)),
    ):
        if bound.max is not None and actual > bound.max:
            out.append(CardinalityViolation(node.unique_name, direction, "over", actual, bound.max))
        if actual < bound.min:
            out.append(CardinalityViolation(node.unique_name, direction, "under", actual, bound.min))
    return out


def validate_cardinality(g: FlowGraph) -> list[CardinalityViolation]:
    """All cardinality violations, in node order; pure."""
    out: list[CardinalityViolation] = []
    for node in g.nodes:
        out.extend(_node_violations(g, node))
    return out


def _splittable(g: FlowGraph, node: NodeInstance) -> str | None:
    """Direction to split along, or None.

    A node qualifies when its single violation is an over-bound on one side
    while the other side has no links at all, and giving each copy exactly
    one edge of the violating direction satisfies every bound.
    """
    violations = _node_violations(g, node)
    if len(violations) != 1 or violations[0].kind != "over":
        return None
    direction = violations[0].direction
    if direction == "outputs":
        if g.in_degree(node.unique_name) != 0:
            return None
        if node.inputs.min != 0 or node.outputs.min > 1:
            return None
        if node.outputs.max is not None and node.outputs.max < 1:
            return None
    else:
        if g.out_degree(node.unique_name) != 0:
            return None
        if node.outputs.min != 0 or node.inputs.min > 1:
            return None
        if node.inputs.max is not None and node.inputs.max < 1:
            return None
    return direction


def _suffix_index(unique_name: str, stage: str) -> int:
    if unique_name == stage:
        return 0
    tail = unique_name[len(stage) :]
    if tail.startswith("_") and tail[1:].isdigit():
        return int(tail[1:])
    return 0


def repair_with_renames(
    g: FlowGraph, trace: list[dict] | None = None
) -> tuple[FlowGraph, dict[str, list[str]]]:
    """Repair over-connections; also report how node names were remapped.

    The rename map sends each original unique name to the final name(s) of
    its copies (identity entries are omitted), so callers can carry
    per-node data — property assignments, sub-utterances — across a split.
    """
    trace = [] if trace is None else trace
    out = g.copy()
    split_stages: set[str] = set()
    temp_of: dict[str, list[str]] = {}
    temp_counter = 0

    # pass 1: split over-bound boundary nodes
    i = 0
    while i < len(out.nodes):
        node = out.nodes[i]
        direction = _splittable(out, node)
        if direction is None:
            i += 1
            continue
        if direction == "outputs":
            indices = [k for k, (src, _) in enumerate(out.edges) if src == node.unique_name]
        else:
            indices = [k for k, (_, dst) in enumerate(out.edges) if dst == node.unique_name]
        copies: list[NodeInstance] = []
        temps: list[str] = []
        for j, edge_index in enumerate(indices):
            temp_counter += 1
            temp_name = f"{node.stage}__split{temp_counter}"
            temps.append(temp_name)
            copies.append(replace(node, unique_name=temp_name))
            src, dst = out.edges[edge_index]
            if direction == "outputs":
                out.edges[edge_index] = (temp_name, dst)
            else:
                out.edges[edge_index] = (src, temp_name)
        out.nodes[i : i + 1] = copies
        temp_of[node.unique_name] = temps
        split_stages.add(node.stage)
        trace.append(
            {
                "event": "node_split",
                "node": node.unique_name,
                "direction": direction,
                "copies": len(copies),
            }
        )
        i += len(copies)

    # renumber every node of a split stage, flow-wide, in node order
    renames: dict[str, str] = {}
    if split_stages:
        finals = node_names([n.stage for n in out.nodes])
        for node, final in zip(out.nodes, finals):
            if node.stage in split_stages and node.unique_name != final:
                renames[node.unique_name] = final
        for node in out.nodes:
            if node.unique_name in renames:
                node.unique_name = renames[node.unique_name]
        out.edges = [
            (renames.get(src, src), renames.get(dst, dst)) for src, dst in out.edges
        ]

    rename_map: dict[str, list[str]] = {}
    for original, temps in temp_of.items():
        rename_map[original] = [renames.get(t, t) for t in temps]
    for node in g.nodes:
        if node.unique_name in temp_of:
            continue
        final = renames.get(node.unique_name)
        if final is not None:
            rename_map[node.unique_name] = [final]

    # pass 2: prune excess edges, newest first (outputs, then inputs)
    for direction in ("outputs", "inputs"):
        for node in out.nodes:
            bound = node.outputs if direction == "outputs" else node.inputs
            if bound.max is None:
                continue
            while True:
                if direction == "outputs":
                    incident = [k for k, (src, _) in enumerate(out.edges) if src == node.unique_name]
                else:
                    incident = [k for k, (_, dst) in enumerate(out.edges) if dst == node.unique_name]
                if len(incident) <= bound.max:
                    break
                dropped = out.edges.pop(incident[-1])
                trace.append(
                    {
                        "event": "edge_pruned",
                        "edge": f"{dropped[0]} -> {dropped[1]}",
                        "node": node.unique_name,
                        "direction": direction,
                    }
                )
    return out, rename_map


# --- metrics --------------------------------------------------------------------


def _canonical_ids(g: FlowGraph) -> dict[str, tuple[str, int]]:
    """Align instances of a stage by suffix order: n-th pred pairs with n-th gold."""
    ids: dict[str, tuple[str, int]] = {}
    by_stage: dict[str, list[NodeInstance]] = {}
    for node in g.nodes:
        by_stage.setdefault(node.stage, []).append(node)
    for stage, members in by_stage.items():
        members = sorted(members, key=lambda n: _suffix_index(n.unique_name, stage))
        for i, member in enumerate(members):
            ids[member.unique_name] = (stage, i)
    return ids


def edge_metrics(pred: FlowGraph, gold: FlowGraph) -> EdgeMetrics:
    """Dice similarity over aligned edges plus an exact-match flag.

    Two empty edge sets are identical (similarity 1.0); exact match requires
    equal stage multisets and equal aligned edge sets, so exact implies
    similarity 1.0.
    """
    pred_ids = _canonical_ids(pred)
    gold_ids = _canonical_ids(gold)
    pred_edges = {(pred_ids[s], pred_ids[d]) for s, d in pred.edges}
    gold_edges = {(gold_ids[s], gold_ids[d]) for s, d in gold.edges}
    total = len(pred_edges) + len(gold_edges)
    similarity = 1.0 if total == 0 else 2.0 * len(pred_edges & gold_edges) / total
    same_nodes = Counter(n.stage for n in pred.nodes) == Counter(n.stage for n in gold.nodes)
    exact = same_nodes and pred_edges == gold_edges
    return EdgeMetrics(similarity=similarity, exact=exact)


# --- export ----------------------------------------------------------------------


def to_dot(g: FlowGraph) -> str:
    """GraphViz text with lexicographic node and edge ordering."""
    lines = ["digraph flow {"]
    for name in sorted(n.unique_name for n in g.nodes):
        lines.append(f'  "{name}";')
    for src, dst in sorted(g.edges):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
