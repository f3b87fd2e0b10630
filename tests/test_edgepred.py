"""Graph construction, segmentation, edge verification, cardinality repair.

The randomized repair properties are the heart of this module: repair must
be total (no over-connection survives), idempotent, and must never invent
or inflate edges — splitting preserves the count, pruning lowers it.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_catalog, make_stage, scripted
from flowgen import fixture_path
from flowgen.catalog import CardinalityBound, load_catalog
from flowgen.edgepred import (
    CardinalityViolation,
    FlowGraph,
    NodeInstance,
    build_nodes,
    edge_metrics,
    node_names,
    predict_edges,
    repair_with_renames,
    segment_for_nodes,
    to_dot,
    validate_cardinality,
)
from flowgen.llm import AnswerError, usage


def node(
    name: str,
    stage: str | None = None,
    inputs: tuple[int, int | None] = (0, None),
    outputs: tuple[int, int | None] = (0, None),
) -> NodeInstance:
    return NodeInstance(
        unique_name=name,
        stage=stage or name,
        inputs=CardinalityBound(*inputs),
        outputs=CardinalityBound(*outputs),
    )


def spans_of(nodes: list[NodeInstance]) -> dict[str, str]:
    """Each node's sub-utterance, as the pipeline hands them to ``predict_edges``."""
    return {n.unique_name: n.sub_utterance for n in nodes}


# --- node construction ---------------------------------------------------------


def test_build_nodes_numbers_only_duplicates():
    catalog = make_catalog(make_stage("head"), make_stage("tail"))
    names = [n.unique_name for n in build_nodes(["head", "tail", "head"], catalog)]
    assert names == ["head_1", "tail", "head_2"]


def test_build_nodes_copies_catalog_bounds():
    catalog = make_catalog(make_stage("join", inputs=(2, 2), outputs=(1, None)))
    (n,) = build_nodes(["join"], catalog)
    assert n.stage == "join"
    assert (n.inputs.min, n.inputs.max) == (2, 2)
    assert (n.outputs.min, n.outputs.max) == (1, None)


def test_build_nodes_branching_walkthrough_naming():
    demo = load_catalog(fixture_path("demo_catalog.json"))
    answer = ["mysql", "sample", "switch", "fileset", "sort", "fileset", "join", "sqlserver", "head"]
    names = [n.unique_name for n in build_nodes(answer, demo)]
    assert names == [
        "mysql", "sample", "switch", "fileset_1", "sort", "fileset_2", "join", "sqlserver", "head",
    ]


def test_build_nodes_unknown_stage():
    with pytest.raises(AnswerError, match="unknown stage 'ghost'"):
        build_nodes(["ghost"], make_catalog(make_stage("head")))


# --- segmentation ----------------------------------------------------------------


def test_segment_single_node_owns_utterance_without_a_call():
    catalog = make_catalog(make_stage("head"))
    (n,) = build_nodes(["head"], catalog)
    # an unscripted provider would raise if consulted
    assert segment_for_nodes("take five rows", [n], catalog, scripted(), []) == {
        "head": "take five rows"
    }


def test_segment_assigns_each_node_a_verbatim_span():
    catalog = make_catalog(make_stage("head"), make_stage("sort"))
    nodes = build_nodes(["sort", "head"], catalog)
    utterance = "sort by age then take the first rows"
    provider = scripted(
        ("Assignments:", "sort: sort by age\nhead: take the first rows\nghost: noise\njunk line")
    )
    segments = segment_for_nodes(utterance, nodes, catalog, provider, trace := [])
    assert segments == {"sort": "sort by age", "head": "take the first rows"}
    assert usage(trace)["requests"] == 1
    assert trace[0]["purpose"] == "segmentation"


def test_segment_prompt_lists_nodes_with_descriptions():
    catalog = make_catalog(
        make_stage("head", "Select leading rows."), make_stage("sort", "Order rows.")
    )
    nodes = build_nodes(["sort", "head"], catalog)
    cue = "Nodes:\nsort (sort): Order rows.\nhead (head): Select leading rows."
    provider = scripted((cue, "sort: a then\nhead: b"))
    assert segment_for_nodes("a then b", nodes, catalog, provider, [])["head"] == "b"


def test_segment_accepts_spans_modulo_whitespace_runs():
    catalog = make_catalog(make_stage("head"), make_stage("sort"))
    nodes = build_nodes(["sort", "head"], catalog)
    provider = scripted(("Assignments:", "sort: sort  the rows\nhead: first two"))
    segments = segment_for_nodes("sort the  rows, first two", nodes, catalog, provider, [])
    assert segments["sort"] == "sort  the rows"


def test_segment_missing_node_is_an_error():
    catalog = make_catalog(make_stage("head"), make_stage("sort"))
    nodes = build_nodes(["sort", "head"], catalog)
    provider = scripted(("Assignments:", "sort: whole text"))
    with pytest.raises(AnswerError, match="no sub-utterance assigned to node 'head'"):
        segment_for_nodes("whole text", nodes, catalog, provider, [])


def test_segment_paraphrased_span_is_an_error():
    catalog = make_catalog(make_stage("head"), make_stage("sort"))
    nodes = build_nodes(["sort", "head"], catalog)
    provider = scripted(("Assignments:", "sort: order them\nhead: keep a few"))
    with pytest.raises(AnswerError, match="does not occur in the utterance"):
        segment_for_nodes("sort rows then head", nodes, catalog, provider, [])


def test_segment_empty_node_list_is_an_error():
    with pytest.raises(AnswerError, match="cannot segment for an empty node list"):
        segment_for_nodes("text", [], make_catalog(make_stage("head")), scripted(), [])


# --- edge prediction --------------------------------------------------------------


def test_predict_edges_skips_call_for_small_flows():
    for stages in ([], ["head"]):
        catalog = make_catalog(make_stage("head"))
        nodes = build_nodes(stages, catalog)
        g = predict_edges(nodes, "u", scripted(), [], spans_of(nodes))
        assert g.edges == []


def test_predict_edges_parses_arrow_lines():
    nodes = [node("a"), node("b"), node("c")]
    provider = scripted(("Edges:", "noise\na -> b\n  b   ->   c  "))
    g = predict_edges(nodes, "u", provider, [], spans_of(nodes))
    assert g.edges == [("a", "b"), ("b", "c")]


def test_predict_edges_prompt_includes_bounds_and_spans():
    nodes = [
        node("join", inputs=(2, 2), outputs=(1, 1)),
        node("switch", inputs=(1, 1), outputs=(1, None)),
    ]
    nodes[0].sub_utterance = "merge them"
    cue = "join (join, inputs 2..2, outputs 1..1): merge them\nswitch (switch, inputs 1..1, outputs 1..*):"
    provider = scripted((cue, "switch -> join"))
    g = predict_edges(nodes, "u", provider, [], spans_of(nodes))
    assert g.edges == [("switch", "join")]


def test_predict_edges_drops_unknown_duplicate_and_cycle_edges():
    nodes = [node("a"), node("b")]
    provider = scripted(("Edges:", "a -> b\na -> ghost\na -> b\nb -> a\na -> a"))
    trace: list[dict] = []
    g = predict_edges(nodes, "u", provider, trace, spans_of(nodes))
    assert g.edges == [("a", "b")]
    reasons = [(e["edge"], e["reason"]) for e in trace if e["event"] == "edge_dropped"]
    assert reasons == [
        ("a -> ghost", "unknown endpoint"),
        ("a -> b", "duplicate"),
        ("b -> a", "would create a cycle"),
        ("a -> a", "would create a cycle"),
    ]


def test_predict_edges_requires_at_least_one_parseable_line():
    provider = scripted(("Edges:", "there are no edges here"))
    nodes = [node("a"), node("b")]
    with pytest.raises(AnswerError, match="no parseable edges in response 'there are no edges here'"):
        predict_edges(nodes, "u", provider, [], spans_of(nodes))


def test_predicted_graph_is_always_acyclic():
    nodes = [node(f"n{i}") for i in range(4)]
    lines = "\n".join(f"n{i} -> n{j}" for i in range(4) for j in range(4))
    g = predict_edges(nodes, "u", scripted(("Edges:", lines)), [], spans_of(nodes))
    order = {name: i for i, name in enumerate(sorted(g.node_names()))}
    assert all(order[s] < order[d] for s, d in g.edges)


# --- cardinality validation --------------------------------------------------------


def test_validate_cardinality_reports_over_and_under():
    g = FlowGraph(
        nodes=[
            node("src", inputs=(0, 0), outputs=(1, 1)),
            node("join", inputs=(2, 2), outputs=(0, 0)),
            node("x", inputs=(0, 1), outputs=(0, 0)),
        ],
        edges=[("src", "join"), ("src", "x")],
    )
    violations = validate_cardinality(g)
    assert [str(v) for v in violations] == [
        "src: 2 outputs > bound 1",
        "join: 1 inputs < bound 2",
    ]


def test_validate_cardinality_clean_graph():
    g = FlowGraph(
        nodes=[node("a", inputs=(0, 0), outputs=(1, 1)), node("b", inputs=(1, 1), outputs=(0, 0))],
        edges=[("a", "b")],
    )
    assert validate_cardinality(g) == []


# --- repair -------------------------------------------------------------------------


def fan_out_graph() -> FlowGraph:
    reader = node("reader", inputs=(0, 0), outputs=(1, 1))
    sinks = [node(s, inputs=(1, 1), outputs=(0, 0)) for s in ("a", "b", "c")]
    return FlowGraph(
        nodes=[reader, *sinks], edges=[("reader", "a"), ("reader", "b"), ("reader", "c")]
    )


def test_repair_splits_fan_out_source_preserving_edges():
    g = fan_out_graph()
    trace: list[dict] = []
    repaired, renames = repair_with_renames(g, trace)
    assert [n.unique_name for n in repaired.nodes] == ["reader_1", "reader_2", "reader_3", "a", "b", "c"]
    assert repaired.edges == [("reader_1", "a"), ("reader_2", "b"), ("reader_3", "c")]
    assert len(repaired.edges) == len(g.edges)
    assert validate_cardinality(repaired) == []
    assert renames == {"reader": ["reader_1", "reader_2", "reader_3"]}
    assert any(e["event"] == "node_split" for e in trace)
    # the input graph is untouched
    assert g.edges == [("reader", "a"), ("reader", "b"), ("reader", "c")]


def test_repair_splits_fan_in_sink():
    srcs = [node(s, inputs=(0, 0), outputs=(1, 1)) for s in ("a", "b")]
    sink = node("writer", inputs=(1, 1), outputs=(0, 0))
    g = FlowGraph(nodes=[*srcs, sink], edges=[("a", "writer"), ("b", "writer")])
    repaired, _ = repair_with_renames(g, [])
    assert [n.unique_name for n in repaired.nodes] == ["a", "b", "writer_1", "writer_2"]
    assert repaired.edges == [("a", "writer_1"), ("b", "writer_2")]
    assert validate_cardinality(repaired) == []


def test_repair_renumbers_existing_instances_flow_wide():
    # fs_1 splits in two; the untouched fs_2 must slide to fs_3
    srcs = [node(s, inputs=(0, 0), outputs=(1, 1)) for s in ("a", "b", "c")]
    fs1 = node("fs_1", stage="fs", inputs=(1, 1), outputs=(0, 0))
    fs2 = node("fs_2", stage="fs", inputs=(1, 1), outputs=(0, 0))
    g = FlowGraph(nodes=[*srcs, fs1, fs2], edges=[("a", "fs_1"), ("b", "fs_1"), ("c", "fs_2")])
    repaired, renames = repair_with_renames(g, [])
    assert [n.unique_name for n in repaired.nodes] == ["a", "b", "c", "fs_1", "fs_2", "fs_3"]
    assert repaired.edges == [("a", "fs_1"), ("b", "fs_2"), ("c", "fs_3")]
    assert renames == {"fs_1": ["fs_1", "fs_2"], "fs_2": ["fs_3"]}
    assert validate_cardinality(repaired) == []


def test_repair_split_names_never_collide_with_real_stage_names():
    # reader splits in two; the stage reader__split1 beside it keeps its
    # name and edges, so no stage name is reserved for split copies
    g = FlowGraph(
        nodes=[
            node("reader", inputs=(0, 0), outputs=(1, 1)),
            node("sink", inputs=(1, 1), outputs=(0, 0)),
            node("reader__split1", inputs=(0, 2), outputs=(0, 0)),
            node("src", inputs=(0, 0), outputs=(1, 1)),
        ],
        edges=[("reader", "sink"), ("reader", "reader__split1"), ("src", "reader__split1")],
    )
    trace: list[dict] = []
    repaired, renames = repair_with_renames(g, trace)
    names = [n.unique_name for n in repaired.nodes]
    assert names == ["reader_1", "reader_2", "sink", "reader__split1", "src"]
    assert len(set(names)) == len(names)
    assert repaired.edges == [
        ("reader_1", "sink"),
        ("reader_2", "reader__split1"),
        ("src", "reader__split1"),
    ]
    assert renames == {"reader": ["reader_1", "reader_2"]}
    assert validate_cardinality(repaired) == []
    assert not [e for e in trace if e["event"] == "edge_pruned"]


def test_repair_prunes_newest_edges_when_split_is_ineligible():
    # p has an input link, so it cannot split; excess outputs are pruned newest-first
    g = FlowGraph(
        nodes=[
            node("x", inputs=(0, 0), outputs=(1, 1)),
            node("p", inputs=(1, 1), outputs=(1, 1)),
            node("y", inputs=(0, 1), outputs=(0, 0)),
            node("z", inputs=(0, 1), outputs=(0, 0)),
        ],
        edges=[("x", "p"), ("p", "y"), ("p", "z")],
    )
    trace: list[dict] = []
    repaired, renames = repair_with_renames(g, trace)
    assert repaired.edges == [("x", "p"), ("p", "y")]
    assert renames == {}
    pruned = [e for e in trace if e["event"] == "edge_pruned"]
    assert pruned == [{"event": "edge_pruned", "edge": "p -> z", "node": "p", "direction": "outputs"}]


def test_repair_never_fixes_under_connections():
    g = FlowGraph(
        nodes=[node("a", inputs=(0, 0), outputs=(1, 1)), node("join", inputs=(2, 2), outputs=(0, 0))],
        edges=[("a", "join")],
    )
    repaired, _ = repair_with_renames(g, [])
    assert repaired.edges == g.edges
    assert [v.kind for v in validate_cardinality(repaired)] == ["under"]


def test_repair_leaves_valid_graphs_alone():
    g = FlowGraph(
        nodes=[node("a", inputs=(0, 0), outputs=(1, 1)), node("b", inputs=(1, 1), outputs=(0, 0))],
        edges=[("a", "b")],
    )
    trace: list[dict] = []
    repaired, renames = repair_with_renames(g, trace)
    assert repaired is g  # nothing over a bound: the graph comes back as it is
    assert [n.unique_name for n in repaired.nodes] == ["a", "b"]
    assert renames == {}
    assert repaired.edges == [("a", "b")]
    assert trace == []


@pytest.mark.parametrize(
    ("edges", "first"),
    [
        ([("a", "zz")], "a -> zz"),
        ([("a", "zz"), ("a", "yy")], "a -> zz"),  # a over its output maximum
        ([("a", "a2"), ("zz", "a2"), ("yy", "a2")], "zz -> a2"),  # a2 over its input maximum
    ],
    ids=["within", "over-outputs", "over-inputs"],
)
def test_repair_rejects_an_edge_to_a_missing_node(edges, first):
    nodes = [node("a", inputs=(0, 0), outputs=(0, 1)), node("a2", inputs=(0, 1), outputs=(0, 0))]
    trace: list[dict] = []
    with pytest.raises(ValueError, match=f"^edge {first} has an endpoint that is not a node$"):
        repair_with_renames(FlowGraph(nodes=nodes, edges=edges), trace)
    assert trace == []


# bounds a split can satisfy (min <= 1 <= max on one side, min 0 on the other)
SPLITTABLE_BOUNDS = [(0, 0), (0, 1), (1, 1), (0, None)]


def bounds(draw) -> tuple[int, int | None]:
    if draw(st.integers(0, 3)):  # three times in four
        return draw(st.sampled_from(SPLITTABLE_BOUNDS))
    lo = draw(st.integers(0, 2))
    return lo, draw(st.one_of(st.none(), st.integers(lo, lo + 2)))


@st.composite
def graphs(draw):
    """Graphs whose stages may repeat (named as ``build_nodes`` names them), with splittable bounds."""
    stages = draw(st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5"]), min_size=1, max_size=6))
    # nodes of one stage share its bounds, as the catalog gives them
    stage_bounds = {stage: (bounds(draw), bounds(draw)) for stage in sorted(set(stages))}
    nodes = []
    for i, (stage, name) in enumerate(zip(stages, node_names(stages))):
        inputs, outputs = stage_bounds[stage]
        nodes.append(node(name, stage, inputs=inputs, outputs=outputs))
        nodes[-1].sub_utterance = f"span {i}"
    names = [n.unique_name for n in nodes]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if draw(st.booleans()):  # else a DAG, as predict_edges leaves one, with more nodes to split
        pairs += [(b, a) for a, b in pairs]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    return FlowGraph(nodes=nodes, edges=edges)


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_repair_is_total_and_idempotent(g):
    trace: list[dict] = []
    repaired, _ = repair_with_renames(g, trace)
    assert all(v.kind == "under" for v in validate_cardinality(repaired))
    pruned = sum(1 for e in trace if e["event"] == "edge_pruned")
    assert len(repaired.edges) == len(g.edges) - pruned
    again, renames = repair_with_renames(repaired, trace2 := [])
    assert renames == {}
    assert [n.unique_name for n in again.nodes] == [n.unique_name for n in repaired.nodes]
    assert again.edges == repaired.edges
    assert not [e for e in trace2 if e["event"] in ("node_split", "edge_pruned")]


# the edge-scanning implementation of validation and repair, before degrees were
# counted once per graph: the reference for the two below


def _incident(edges: list[tuple[str, str]], name: str, direction: str) -> list[int]:
    end = {"inputs": 1, "outputs": 0}[direction]
    return [k for k, edge in enumerate(edges) if edge[end] == name]


def reference_validate_cardinality(g: FlowGraph) -> list[CardinalityViolation]:
    out: list[CardinalityViolation] = []
    for n in g.nodes:
        for direction in ("inputs", "outputs"):
            bound = getattr(n, direction)
            actual = len(_incident(g.edges, n.unique_name, direction))
            if bound.max is not None and actual > bound.max:
                out.append(CardinalityViolation(n.unique_name, direction, "over", actual, bound.max))
            if actual < bound.min:
                out.append(CardinalityViolation(n.unique_name, direction, "under", actual, bound.min))
    return out


def _reference_splittable(g: FlowGraph, n: NodeInstance) -> str | None:
    for direction, other in (("inputs", "outputs"), ("outputs", "inputs")):
        bound = getattr(n, direction)
        if (
            bound.max is not None
            and bound.min <= 1 <= bound.max
            and getattr(n, other).min == 0
            and len(_incident(g.edges, n.unique_name, direction)) > bound.max
            and not _incident(g.edges, n.unique_name, other)
        ):
            return direction
    return None


def reference_repair_with_renames(
    g: FlowGraph, trace: list[dict]
) -> tuple[FlowGraph, dict[str, list[str]]]:
    end_of = {"inputs": 1, "outputs": 0}
    origin: list[int] = []
    copy_at: dict[tuple[int, int], int] = {}
    for i, n in enumerate(g.nodes):
        direction = _reference_splittable(g, n)
        if direction is None:
            origin.append(i)
            continue
        incident = _incident(g.edges, n.unique_name, direction)
        for k in incident:
            copy_at[k, end_of[direction]] = len(origin)
            origin.append(i)
        trace.append(
            {"event": "node_split", "node": n.unique_name, "direction": direction, "copies": len(incident)}
        )
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
    position = {g.nodes[i].unique_name: k for k, i in enumerate(origin)}
    edges = [
        tuple(names[copy_at.get((k, end), position[n])] for end, n in enumerate(edge))
        for k, edge in enumerate(g.edges)
    ]
    for direction in ("outputs", "inputs"):
        for n in nodes:
            bound = getattr(n, direction)
            if bound.max is None:
                continue
            for e in reversed(_incident(edges, n.unique_name, direction)[bound.max :]):
                dropped = edges.pop(e)
                trace.append(
                    {
                        "event": "edge_pruned",
                        "edge": f"{dropped[0]} -> {dropped[1]}",
                        "node": n.unique_name,
                        "direction": direction,
                    }
                )
    renames = {old: new for old, new in renames.items() if new != [old]}
    return FlowGraph(nodes=nodes, edges=edges), renames


def violation_fields(violations: list[CardinalityViolation]) -> list[tuple]:
    return [(str(v), v.node, v.direction, v.kind, v.actual, v.bound) for v in violations]


def node_fields(g: FlowGraph) -> list[tuple]:
    return [(n.unique_name, n.stage, n.inputs, n.outputs, n.sub_utterance) for n in g.nodes]


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_validation_and_repair_match_the_edge_scanning_reference(g):
    before = (node_fields(g), list(g.edges))
    assert violation_fields(validate_cardinality(g)) == violation_fields(reference_validate_cardinality(g))
    trace: list[dict] = []
    repaired, renames = repair_with_renames(g, trace)
    expected_trace: list[dict] = []
    expected, expected_renames = reference_repair_with_renames(g, expected_trace)
    assert node_fields(repaired) == node_fields(expected)
    assert repaired.edges == expected.edges
    assert renames == expected_renames
    assert trace == expected_trace
    assert violation_fields(validate_cardinality(repaired)) == violation_fields(
        reference_validate_cardinality(expected)
    )
    # only a graph with a node over a maximum is rebuilt, and the input is never changed
    over = any(v.kind == "over" for v in reference_validate_cardinality(g))
    assert (repaired is g) == (not over)
    assert (node_fields(g), g.edges) == before


# --- metrics ------------------------------------------------------------------------


def linear(*names: str) -> FlowGraph:
    nodes = [node(n.rsplit("_", 1)[0] if "_" in n and n.rsplit("_", 1)[1].isdigit() else n) for n in names]
    for nd, name in zip(nodes, names):
        nd.unique_name = name
    return FlowGraph(nodes=nodes, edges=[(names[i], names[i + 1]) for i in range(len(names) - 1)])


def test_edge_metrics_identical_graphs():
    m = edge_metrics(linear("a", "b", "c"), linear("a", "b", "c"))
    assert m.similarity == 1.0 and m.exact


def test_edge_metrics_empty_edge_sets_match():
    m = edge_metrics(linear("a"), linear("a"))
    assert m.similarity == 1.0 and m.exact


def test_edge_metrics_missing_one_edge_of_eight():
    demo = load_catalog(fixture_path("demo_catalog.json"))
    answer = ["mysql", "sample", "switch", "fileset", "sort", "fileset", "join", "sqlserver", "head"]
    gold_edges = [
        ("mysql", "sample"), ("sample", "switch"), ("sample", "join"), ("switch", "fileset_1"),
        ("switch", "sort"), ("sort", "fileset_2"), ("sqlserver", "join"), ("join", "head"),
    ]
    gold = FlowGraph(nodes=build_nodes(answer, demo), edges=gold_edges)
    pred = FlowGraph(nodes=build_nodes(answer, demo), edges=gold_edges[:-1])
    m = edge_metrics(pred, gold)
    assert abs(m.similarity - 14 / 15) < 1e-9
    assert not m.exact


def test_edge_metrics_alignment_is_by_suffix_order():
    pred = FlowGraph(
        nodes=[node("x_1", stage="x"), node("x_2", stage="x"), node("y")],
        edges=[("x_1", "y")],
    )
    gold = FlowGraph(
        nodes=[node("x_1", stage="x"), node("x_2", stage="x"), node("y")],
        edges=[("x_2", "y")],
    )
    m = edge_metrics(pred, gold)
    assert m.similarity == 0.0 and not m.exact


def test_edge_metrics_exact_requires_equal_stage_multisets():
    pred = FlowGraph(nodes=[node("a"), node("b"), node("extra")], edges=[("a", "b")])
    gold = FlowGraph(nodes=[node("a"), node("b")], edges=[("a", "b")])
    m = edge_metrics(pred, gold)
    assert m.similarity == 1.0 and not m.exact


def test_edge_metrics_disjoint_edges():
    pred = FlowGraph(nodes=[node("a"), node("b"), node("c")], edges=[("a", "b")])
    gold = FlowGraph(nodes=[node("a"), node("b"), node("c")], edges=[("b", "c")])
    assert edge_metrics(pred, gold).similarity == 0.0


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_metrics_self_comparison_is_perfect(g):
    m = edge_metrics(g, copy.deepcopy(g))
    assert m.similarity == 1.0 and m.exact


# --- export -------------------------------------------------------------------------


def test_to_dot_orders_lexicographically():
    g = FlowGraph(nodes=[node("b"), node("a")], edges=[("b", "a")])
    assert to_dot(g) == 'digraph flow {\n  "a";\n  "b";\n  "b" -> "a";\n}\n'


def test_to_dot_escapes_quotes_and_backslashes():
    g = FlowGraph(nodes=[node('say "hi"'), node("c:\\tmp\\")], edges=[("c:\\tmp\\", 'say "hi"')])
    assert to_dot(g).splitlines() == [
        "digraph flow {",
        r'  "c:\\tmp\\";',
        r'  "say \"hi\"";',
        r'  "c:\\tmp\\" -> "say \"hi\"";',
        "}",
    ]
