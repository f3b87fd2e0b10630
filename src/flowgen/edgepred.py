"""Flow graphs: node construction, edge prediction, cardinality repair.

A stage prediction turns into node instances (duplicates get ``_1``, ``_2``
suffixes in answer order; singletons keep the bare stage name), each node is
assigned the utterance span that describes it, and a final completion call
proposes ``source -> target`` lines. Everything the model proposes is
verified: unknown endpoints are dropped, duplicate edges collapse, and any
edge that would close a cycle is dropped in response order, so the graph is
a DAG by construction.

Cardinality checks count degrees once per graph. Repair is total and
idempotent, and leaves a graph with no node over a maximum untouched. Pass 1
splits boundary nodes that exceed a bound on one side while having no links
on the other (a source connector feeding three branches becomes three
single-output copies); pass 2 prunes excess edges, newest first. Split
copies are tracked by position and named once, with every node of their
stage, by ``node_names``; no intermediate names exist, so no stage name is
reserved. Under-connection is reported, never repaired — inventing links
the user didn't describe is worse than leaving a hole visible.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from . import fixture_path
from .catalog import CardinalityBound, Catalog
from .llm import AnswerError, CompletionProvider, answer_pairs, complete, load_template, render_prompt

__all__ = [
    "NodeInstance",
    "FlowGraph",
    "CardinalityViolation",
    "EdgeMetrics",
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


class NodeInstance:
    __slots__ = ("unique_name", "stage", "inputs", "outputs", "sub_utterance")

    def __init__(
        self, unique_name: str, stage: str, inputs: CardinalityBound, outputs: CardinalityBound,
        sub_utterance: str = "",
    ):
        self.unique_name = unique_name
        self.stage = stage
        self.inputs = inputs
        self.outputs = outputs
        self.sub_utterance = sub_utterance


class FlowGraph:
    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: list[NodeInstance], edges: list[tuple[str, str]] | None = None):
        self.nodes = nodes
        self.edges = [] if edges is None else edges  # ordered, no duplicates

    def node_names(self) -> set[str]:
        return {n.unique_name for n in self.nodes}

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


class CardinalityViolation:
    __slots__ = ("node", "direction", "kind", "actual", "bound")

    def __init__(self, node: str, direction: str, kind: str, actual: int, bound: int):
        self.node = node
        self.direction = direction  # "inputs" | "outputs"
        self.kind = kind  # "over" | "under"
        self.actual = actual
        self.bound = bound  # the violated bound (max for over, min for under)

    def __str__(self) -> str:
        rel = ">" if self.kind == "over" else "<"
        return f"{self.node}: {self.actual} {self.direction} {rel} bound {self.bound}"


class EdgeMetrics:
    __slots__ = ("similarity", "exact")

    def __init__(self, similarity: float, exact: bool):
        self.similarity = similarity  # Dice coefficient over aligned edge sets
        self.exact = exact


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
            raise AnswerError(f"prediction references unknown stage {stage_name!r}")
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
    trace: list[dict],
) -> dict[str, str]:
    """Map every node to the utterance span that describes it.

    A single node trivially owns the whole utterance and costs no completion.
    Spans must actually occur in the utterance (modulo whitespace runs) —
    paraphrased spans are an error, not a warning, because properties are
    predicted from them.

    Each node's line is its name and its stage's description line; the
    render counts the node block with the utterance, as the run's text.
    """
    if not nodes:
        raise AnswerError("cannot segment for an empty node list")
    if len(nodes) == 1:
        return {nodes[0].unique_name: utterance}
    block = "\n".join(
        f"{n.unique_name} ({n.stage}): {catalog.stages[n.stage].description}" for n in nodes
    )
    prompt = render_prompt(_SEGMENT_TEMPLATE, {"nodes": block, "utterance": utterance})
    answer = complete(provider, prompt, trace, "segmentation")
    known = {n.unique_name for n in nodes}
    segments = {name: span for name, span in answer_pairs(answer, ":") if name in known}
    normalized_utterance = _normalize_ws(utterance)
    for node in nodes:
        span = segments.get(node.unique_name, "")
        if not span:
            raise AnswerError(f"no sub-utterance assigned to node {node.unique_name!r}")
        if _normalize_ws(span) not in normalized_utterance:
            raise AnswerError(
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
    trace: list[dict],
    spans: Mapping[str, str],
) -> FlowGraph:
    """Propose directed edges over the given nodes via one completion.

    Flows with fewer than two nodes have no edges to predict and cost no
    call. Everything the model answers is filtered: unknown endpoints and
    duplicates are dropped with a trace entry, and an edge that would create
    a cycle is dropped in response order, so the result is always a DAG over
    exactly the given nodes.

    ``spans`` maps each node's name to its sub-utterance. Each node's line
    is its name, its stage and bounds, and its sub-utterance; the render
    counts the node block with the utterance, as the run's text.
    """
    graph = FlowGraph(nodes=list(nodes))
    if len(nodes) < 2:
        return graph
    block = "\n".join(
        f"{n.unique_name} ({n.stage}, inputs {_bound_text(n.inputs)}, "
        f"outputs {_bound_text(n.outputs)}): {spans[n.unique_name]}"
        for n in nodes
    )
    prompt = render_prompt(_EDGES_TEMPLATE, {"nodes": block, "utterance": utterance})
    answer = complete(provider, prompt, trace, "edge_prediction")
    known = graph.node_names()
    parsed = answer_pairs(answer, "->")
    if not parsed:
        raise AnswerError(f"no parseable edges in response {answer!r}")
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


# directions are named after NodeInstance's bound fields; _END gives the end
# of an edge that a node holds in each
_END = {"inputs": 1, "outputs": 0}


def _incident(edges: list[tuple[str, str]], name: str, direction: str) -> list[int]:
    """Indices, oldest first, of the edges on node ``name`` in ``direction``."""
    end = _END[direction]
    return [k for k, edge in enumerate(edges) if edge[end] == name]


def _degrees(edges: list[tuple[str, str]]) -> dict[str, dict[str, int]]:
    """Each node's edge count in each direction, by name, in one pass over ``edges``."""
    inputs, outputs = {}, {}
    for src, dst in edges:
        outputs[src] = outputs.get(src, 0) + 1
        inputs[dst] = inputs.get(dst, 0) + 1
    return {"inputs": inputs, "outputs": outputs}


def _over(node: NodeInstance, direction: str, degrees: dict[str, dict[str, int]]) -> bool:
    """Whether ``node`` has more edges in ``direction`` than its maximum allows."""
    bound = getattr(node, direction)
    return bound.max is not None and degrees[direction].get(node.unique_name, 0) > bound.max


def validate_cardinality(g: FlowGraph) -> list[CardinalityViolation]:
    """All cardinality violations, in node order; pure."""
    out: list[CardinalityViolation] = []
    degrees = _degrees(g.edges)
    for node in g.nodes:
        for direction in ("inputs", "outputs"):
            bound = getattr(node, direction)
            actual = degrees[direction].get(node.unique_name, 0)
            if bound.max is not None and actual > bound.max:
                out.append(CardinalityViolation(node.unique_name, direction, "over", actual, bound.max))
            if actual < bound.min:
                out.append(CardinalityViolation(node.unique_name, direction, "under", actual, bound.min))
    return out


def _splittable(node: NodeInstance, degrees: dict[str, dict[str, int]]) -> str | None:
    """Direction to split along, or None.

    A node qualifies when one side is over its bound while the other side has
    no links at all and a zero minimum, and giving each copy exactly one edge
    of the violating direction satisfies every bound.
    """
    for direction, other in (("inputs", "outputs"), ("outputs", "inputs")):
        bound = getattr(node, direction)
        if (
            _over(node, direction, degrees)
            and bound.min <= 1 <= bound.max
            and getattr(node, other).min == 0
            and not degrees[other].get(node.unique_name)
        ):
            return direction
    return None


def _suffix_index(unique_name: str, stage: str) -> int:
    if unique_name == stage:
        return 0
    tail = unique_name[len(stage) :]
    if tail.startswith("_") and tail[1:].isdigit():
        return int(tail[1:])
    return 0


def repair_with_renames(
    g: FlowGraph, trace: list[dict]
) -> tuple[FlowGraph, dict[str, list[str]]]:
    """Repair over-connections; also report how node names were remapped.

    The rename map sends each original unique name to the final name(s) of
    its copies (identity entries are omitted), so callers can carry
    per-node data — property assignments, sub-utterances — across a split.
    A graph with no node over a maximum comes back as it is. An edge with an
    endpoint that is not a node raises ``ValueError``, naming the first such edge.
    """
    degrees = _degrees(g.edges)
    names = {n.unique_name for n in g.nodes}
    if not (names.issuperset(degrees["outputs"]) and names.issuperset(degrees["inputs"])):
        src, dst = next(edge for edge in g.edges if not names.issuperset(edge))
        raise ValueError(f"edge {src} -> {dst} has an endpoint that is not a node")
    if not any(_over(node, d, degrees) for node in g.nodes for d in _END):
        return g, {}
    # pass 1: split over-bound boundary nodes. Nodes are tracked by position:
    # origin[k] is the position in g.nodes that new node k comes from, and
    # copy_at[edge, end] is the new position of the split copy taking that end.
    origin: list[int] = []
    copy_at: dict[tuple[int, int], int] = {}
    for i, node in enumerate(g.nodes):
        direction = _splittable(node, degrees)
        if direction is None:
            origin.append(i)
            continue
        incident = _incident(g.edges, node.unique_name, direction)
        for k in incident:  # one copy per edge of the violating direction
            copy_at[k, _END[direction]] = len(origin)
            origin.append(i)
        trace.append(
            {
                "event": "node_split",
                "node": node.unique_name,
                "direction": direction,
                "copies": len(incident),
            }
        )

    # name every node of a split stage by the one naming rule, flow-wide
    stages = [g.nodes[i].stage for i in origin]
    split = {stages[k] for k in range(1, len(origin)) if origin[k] == origin[k - 1]}
    names = [g.nodes[i].unique_name for i in origin]
    if split:
        for k, name in enumerate(node_names(stages)):
            if stages[k] in split:
                names[k] = name
    nodes = [
        NodeInstance(name, n.stage, n.inputs, n.outputs, n.sub_utterance)
        for n, name in zip((g.nodes[i] for i in origin), names)
    ]
    renames: dict[str, list[str]] = {}
    for i, name in zip(origin, names):
        renames.setdefault(g.nodes[i].unique_name, []).append(name)
    # each edge end takes the final name of its split copy, or else of its node
    position = {g.nodes[i].unique_name: k for k, i in enumerate(origin)}
    edges = [
        tuple(names[copy_at.get((k, end), position[n])] for end, n in enumerate(edge))
        for k, edge in enumerate(g.edges)
    ]

    # pass 2: prune excess edges, newest first (outputs, then inputs); a stale count only overcounts
    degrees = _degrees(edges)
    for direction in ("outputs", "inputs"):
        for node in nodes:
            if not _over(node, direction, degrees):
                continue
            for e in reversed(_incident(edges, node.unique_name, direction)[getattr(node, direction).max :]):
                dropped = edges.pop(e)
                trace.append(
                    {
                        "event": "edge_pruned",
                        "edge": f"{dropped[0]} -> {dropped[1]}",
                        "node": node.unique_name,
                        "direction": direction,
                    }
                )
    renames = {old: new for old, new in renames.items() if new != [old]}
    return FlowGraph(nodes=nodes, edges=edges), renames


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


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT identifier, its ``\\`` and ``"`` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: FlowGraph) -> str:
    """GraphViz text with lexicographic node and edge ordering."""
    lines = ["digraph flow {"]
    for name in sorted(n.unique_name for n in g.nodes):
        lines.append(f"  {_dot_id(name)};")
    for src, dst in sorted(g.edges):
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
