"""End-to-end generation: utterance in, validated workflow out.

The pipeline runs stage prediction, instantiates nodes, assigns each node
its utterance span, and then works two independent branches — edge
prediction (with cardinality validation and repair) and per-node property
prediction (with schema validation) — merging them into a single workflow.
The branches may run concurrently; results are keyed by node name and
assembled in a fixed order, so a parallel run is byte-identical to a
sequential one under a scripted provider.

Failure handling is deliberately asymmetric: without stages there is nothing
to build, so stage-prediction failure aborts with a structured error; a
failing edge or property step only degrades the result (empty edges, or an
empty property list for that node) and leaves a diagnostic behind.
"""

from __future__ import annotations

import threading
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path

from . import InputError, fixture_path, read_json, run_in_order, thread_pool
from .catalog import CardinalityBound, Catalog, load_catalog
from .classify import RemoteClassifier, StageClassifier, load_training_pairs, train
from .edgepred import (
    CardinalityViolation,
    FlowGraph,
    NodeInstance,
    build_nodes,
    predict_edges,
    repair_with_renames,
    segment_for_nodes,
    validate_cardinality,
)
from .llm import (
    FAMILIES,
    AnswerError,
    CompletionProvider,
    PromptTemplate,
    ProviderError,
    load_mock_scripts,
    provider_from_env,
    usage,
)
from .proppred import (
    ACCEPTED,
    ExternalRegistry,
    PropertyAssignment,
    canonical_value,
    load_registry,
    predict_properties,
    validate,
)
from .stagepred import (
    DEFAULT_EXAMPLE_CAP,
    FewShotExample,
    StagePrediction,
    StagePrompts,
    load_examples,
    load_split_examples,
    predict_agentic,
    predict_cag,
    predict_single,
    stage_prompts,
)

__all__ = [
    "PipelineConfig",
    "Runtime",
    "Workflow",
    "PipelineError",
    "build_runtime",
    "load_classifier",
    "generate_with_runtime",
    "predict_stages",
    "emit",
    "load_workflow_doc",
]

STRATEGIES = ("cag", "single", "agentic")


class PipelineError(Exception):
    def __init__(self, step: str, message: str, provenance: dict | None = None):
        super().__init__(f"{step}: {message}")
        self.step = step
        self.provenance = provenance or {}

    def envelope(self) -> dict:
        return {
            "error": {"step": self.step, "message": str(self)},
            "provenance": self.provenance,
        }


class PipelineConfig:
    """Where a runtime's inputs come from, and how it runs; paths default to the demo fixtures.

    ``registry_path=None`` means no registry.
    """

    __slots__ = (
        "strategy", "catalog_path", "examples_path", "split_examples_path", "classifier_path",
        "registry_path", "mock_scripts_path", "classifier_endpoint", "family", "parallel",
        "example_cap",
    )

    def __init__(
        self,
        strategy: str = "cag",
        catalog_path: str | Path = fixture_path("demo_catalog.json"),
        examples_path: str | Path = fixture_path("demo_bank.json"),
        split_examples_path: str | Path = fixture_path("split_examples.json"),
        classifier_path: str | Path = fixture_path("demo_training_pairs.json"),
        registry_path: str | Path | None = fixture_path("demo_registry.json"),
        mock_scripts_path: str | Path | None = None,
        classifier_endpoint: str | None = None,
        family: str = "granite",
        parallel: int = 1,
        example_cap: int = DEFAULT_EXAMPLE_CAP,
    ):
        self.strategy = strategy
        self.catalog_path = catalog_path
        self.examples_path = examples_path
        self.split_examples_path = split_examples_path
        self.classifier_path = classifier_path
        self.registry_path = registry_path
        self.mock_scripts_path = mock_scripts_path
        self.classifier_endpoint = classifier_endpoint
        self.family = family
        self.parallel = parallel
        self.example_cap = example_cap


def _check_config(cfg: PipelineConfig) -> None:
    if cfg.strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {cfg.strategy!r} (choose from {STRATEGIES})")
    if cfg.family not in FAMILIES:
        raise InputError(f"unknown model family {cfg.family!r}")
    if cfg.parallel < 1:
        raise InputError("parallel width must be at least 1")
    if cfg.example_cap < 0:
        raise InputError("example cap must not be negative")
    paths = {
        "catalog": cfg.catalog_path,
        "examples": cfg.examples_path,
        "split-examples": cfg.split_examples_path,
    }
    if not cfg.classifier_endpoint:
        paths["classifier"] = cfg.classifier_path
    if cfg.registry_path is not None:
        paths["registry"] = cfg.registry_path
    if cfg.mock_scripts_path is not None:
        paths["mock-scripts"] = cfg.mock_scripts_path
    missing = [f"{label}: {path}" for label, path in paths.items() if not Path(path).is_file()]
    if missing:
        raise InputError("missing input files:\n  " + "\n  ".join(missing))


class Runtime:
    __slots__ = (
        "catalog", "classifier", "bank", "split_examples", "registry", "provider", "cfg",
        "prompts", "listing", "_branch_pool", "_pool_lock",
    )

    def __init__(
        self, catalog: Catalog, classifier: StageClassifier, bank: list[FewShotExample],
        split_examples: list[tuple[str, tuple[str, ...]]], registry: ExternalRegistry | None,
        provider: CompletionProvider, cfg: PipelineConfig, prompts: StagePrompts,
        listing: PromptTemplate | None,
    ):
        self.catalog = catalog
        self.classifier = classifier
        self.bank = bank
        self.split_examples = split_examples
        self.registry = registry
        self.provider = provider
        self.cfg = cfg
        # the static text of the stage prompts, counted once
        self.prompts = prompts
        # the single strategy's full-catalog stage prompt, all but the utterance
        # bound and counted once; None for the other strategies
        self.listing = listing
        self._branch_pool = None
        self._pool_lock = threading.Lock()

    def branch_pool(self):
        """The pool that runs the edge and property branches; None at ``parallel`` 1.

        It starts at the first call, so ``concurrent.futures`` loads at the
        first parallel run, and the runtime keeps it, with its threads, until
        the runtime is dropped. Concurrent first calls start one pool. Only
        branches run on it: a caller that waits on them runs elsewhere.
        """
        if self.cfg.parallel < 2:
            return None
        with self._pool_lock:
            if self._branch_pool is None:
                self._branch_pool = thread_pool(self.cfg.parallel)
            return self._branch_pool


def load_classifier(cfg: PipelineConfig, catalog: Catalog | None) -> StageClassifier:
    """The configured stage classifier.

    That is the remote one at ``cfg.classifier_endpoint`` if one is set, else
    the model trained on the pairs at ``cfg.classifier_path`` over
    ``catalog``'s stages. Only the trained model reads ``catalog``. Its
    errors start with the training file's path.
    """
    if cfg.classifier_endpoint:
        return RemoteClassifier(cfg.classifier_endpoint)
    pairs = load_training_pairs(cfg.classifier_path)
    try:
        return train(pairs, catalog.stages)
    except InputError as exc:
        raise InputError(f"{cfg.classifier_path}: {exc}") from exc


def build_runtime(cfg: PipelineConfig) -> Runtime:
    """Load every configured artifact once; reusable across generate calls."""
    _check_config(cfg)
    catalog = load_catalog(cfg.catalog_path)
    classifier = load_classifier(cfg, catalog)
    bank = load_examples(cfg.examples_path, catalog)
    split_examples = load_split_examples(cfg.split_examples_path)
    registry = load_registry(cfg.registry_path) if cfg.registry_path else None
    if cfg.mock_scripts_path is not None:
        provider: CompletionProvider = load_mock_scripts(cfg.mock_scripts_path)
    else:
        provider = provider_from_env()
    prompts = stage_prompts(catalog, split_examples, cfg.family, bank)
    listing = prompts.listing() if cfg.strategy == "single" else None
    return Runtime(
        catalog=catalog,
        classifier=classifier,
        bank=bank,
        split_examples=split_examples,
        registry=registry,
        provider=provider,
        cfg=cfg,
        prompts=prompts,
        listing=listing,
    )


class Workflow:
    __slots__ = ("graph", "properties", "provenance")

    def __init__(
        self, graph: FlowGraph, properties: dict[str, list[PropertyAssignment]], provenance: dict
    ):
        self.graph = graph
        self.properties = properties  # accepted assignments per node
        self.provenance = provenance


# --- generation ----------------------------------------------------------------


def predict_stages(utterance: str, rt: Runtime) -> StagePrediction:
    """Predict the utterance's stage multiset with the configured strategy.

    Any failure raises ``PipelineError("stage_prediction")``. Its provenance
    keeps the ``stage_trace`` and ``usage`` of the calls made before the
    failure, since those were paid for.
    """
    cfg = rt.cfg
    trace: list[dict] = []
    try:
        if cfg.strategy == "single":
            return predict_single(utterance, rt.catalog, rt.listing, rt.provider, trace=trace)
        if cfg.strategy == "cag":
            return predict_cag(
                utterance, rt.catalog, rt.classifier, rt.bank, rt.provider,
                cap=cfg.example_cap, trace=trace, prompts=rt.prompts,
            )
        return predict_agentic(utterance, rt.catalog, rt.classifier, rt.provider, trace=trace)
    except (AnswerError, ProviderError) as exc:
        provenance = {
            "utterance": utterance,
            "strategy": cfg.strategy,
            "stage_trace": trace,
            "usage": usage(trace),
        }
        raise PipelineError("stage_prediction", str(exc), provenance) from exc


def _edge_branch(
    utterance: str, nodes: list[NodeInstance], rt: Runtime
) -> tuple[FlowGraph, dict[str, list[str]], list[CardinalityViolation], list[dict], list[dict]]:
    trace: list[dict] = []
    diagnostics: list[dict] = []
    try:
        graph = predict_edges(nodes, utterance, rt.provider, trace=trace)
    except (AnswerError, ProviderError) as exc:
        diagnostics.append({"step": "edge_prediction", "message": str(exc)})
        graph = FlowGraph(nodes=list(nodes))
    pre_violations = validate_cardinality(graph)
    repaired, renames = repair_with_renames(graph, trace)
    return repaired, renames, pre_violations, trace, diagnostics


def _property_branch_one(
    node: NodeInstance, rt: Runtime
) -> tuple[str, list[PropertyAssignment], list[dict], list[dict]]:
    trace: list[dict] = []
    diagnostics: list[dict] = []
    stage = rt.catalog.stages[node.stage]
    try:
        raw = predict_properties(node, stage, rt.provider, trace, rt.prompts.properties)
        statused = validate(raw, stage, rt.registry)
    except ProviderError as exc:  # degrade per node; a loaded catalog's conditions type-check
        diagnostics.append(
            {"step": "properties", "node": node.unique_name, "message": str(exc)}
        )
        statused = []
    return node.unique_name, statused, trace, diagnostics


def generate_with_runtime(utterance: str, rt: Runtime) -> Workflow:
    """Run every step on ``utterance``.

    Each node carries its own ``sub_utterance`` once segmentation sets it.
    Each render counts the run's text it reads; only text fixed per runtime
    (``rt.prompts``, ``rt.listing``) comes counted.
    """
    cfg = rt.cfg
    prediction = predict_stages(utterance, rt)
    provenance: dict = {
        "utterance": utterance,
        "strategy": cfg.strategy,
        "stage_trace": prediction.trace,
        "stages": list(prediction.stages),
    }
    diagnostics: list[dict] = []

    nodes = build_nodes(prediction.stages, rt.catalog)
    if not nodes:
        provenance["usage"] = usage(prediction.trace)
        provenance["diagnostics"] = diagnostics
        return Workflow(graph=FlowGraph(nodes=[]), properties={}, provenance=provenance)

    seg_trace: list[dict] = []
    try:
        segments = segment_for_nodes(utterance, nodes, rt.catalog, rt.provider, seg_trace)
    except (AnswerError, ProviderError) as exc:
        # degraded but total: every node falls back to the whole utterance
        diagnostics.append({"step": "segmentation", "message": str(exc)})
        segments = {n.unique_name: utterance for n in nodes}
    for node in nodes:
        node.sub_utterance = segments[node.unique_name]
    provenance["segments"] = {n.unique_name: n.sub_utterance for n in nodes}
    provenance["segment_trace"] = seg_trace

    calls = [partial(_edge_branch, utterance, nodes, rt)]
    calls += [partial(_property_branch_one, n, rt) for n in nodes]
    edge_result, *prop_results = run_in_order(calls, rt.branch_pool())
    graph, renames, pre_violations, edge_trace, edge_diags = edge_result
    diagnostics.extend(edge_diags)

    statused_by_node: dict[str, list[PropertyAssignment]] = {}
    prop_trace: list[dict] = []
    for name, statused, trace, diags in prop_results:
        statused_by_node[name] = statused
        prop_trace.extend(trace)
        diagnostics.extend(diags)

    # carry properties across repair renames (split copies share them)
    properties: dict[str, list[PropertyAssignment]] = {}
    rejections: dict[str, list[dict]] = {}
    for original, statused in statused_by_node.items():
        targets = renames.get(original, [original])
        accepted = [a for a in statused if a.status == ACCEPTED]
        rejected = [
            {"name": a.name, "status": a.status, "detail": a.detail}
            for a in statused
            if a.status != ACCEPTED
        ]
        for target in targets:
            properties[target] = list(accepted)
            if rejected:
                rejections[target] = rejected

    provenance["edge_trace"] = edge_trace
    provenance["property_trace"] = prop_trace
    provenance["pre_repair_violations"] = [str(v) for v in pre_violations]
    violations = validate_cardinality(graph)
    provenance["under_connections"] = [str(v) for v in violations if v.kind == "under"]
    provenance["renames"] = {k: v for k, v in sorted(renames.items())}
    provenance["rejections"] = {k: rejections[k] for k in sorted(rejections)}
    provenance["usage"] = usage(prediction.trace, seg_trace, edge_trace, prop_trace)
    provenance["diagnostics"] = diagnostics

    workflow = Workflow(graph=graph, properties=properties, provenance=provenance)
    _assert_workflow(workflow, violations)
    return workflow


def _assert_workflow(w: Workflow, violations: list[CardinalityViolation]) -> None:
    """Internal consistency: repaired graph, property keys subset of nodes.

    ``violations`` is ``validate_cardinality(w.graph)``.
    """
    names = w.graph.node_names()
    stray = set(w.properties) - names
    if stray:
        raise PipelineError("assembly", f"properties for unknown nodes {sorted(stray)}")
    over = [v for v in violations if v.kind == "over"]
    if over:
        shown = "; ".join(str(v) for v in over)
        raise PipelineError("assembly", f"over-connections survived repair: {shown}")


# --- emission --------------------------------------------------------------------


def emit(workflow: Workflow) -> str:
    """Serialize a workflow as its canonical JSON document.

    The document is written directly, byte for byte what
    ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` writes for the
    same nodes, properties and edges: ``json`` runs its pure-Python encoder
    whenever it indents, so only its string escaper is used here.
    """
    q = encode_basestring
    nodes = []
    for n in sorted(workflow.graph.nodes, key=lambda n: n.unique_name):
        properties = [
            f'\n        {{\n          "name": {q(a.name)},\n'
            f'          "value": {q(canonical_value(a.coerced))}\n        }}'
            for a in workflow.properties.get(n.unique_name, ())
        ]
        nodes.append(
            f'\n    {{\n      "unique_name": {q(n.unique_name)},\n      "stage": {q(n.stage)},\n'
            f'      "sub_utterance": {q(n.sub_utterance)},\n'
            f'      "properties": {_array(properties, "      ")}\n    }}'
        )
    edges = [
        f'\n    {{\n      "from": {q(src)},\n      "to": {q(dst)}\n    }}'
        for src, dst in sorted(workflow.graph.edges)
    ]
    return f'{{\n  "nodes": {_array(nodes, "  ")},\n  "edges": {_array(edges, "  ")}\n}}\n'


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded ``items``, each led by its newline and indent, closed at ``indent``."""
    return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"


_PROPERTY = {"name": str, "value": str}
_WORKFLOW = {
    "nodes": [{"unique_name": str, "stage": str, "sub_utterance?": str, "properties?": [_PROPERTY]}],
    "edges": [{"from": str, "to": str}],
}


def load_workflow_doc(path: str | Path) -> Workflow:
    """Rebuild a workflow from an emitted document (for re-export).

    Bounds are not part of the document, so the graph carries permissive
    ones; property values are already canonical strings and re-emit as-is.
    Every name, stage, sub-utterance, property and edge end must be a JSON
    string, as ``emit`` writes it. A repeated node name, a self-loop or an
    edge to a missing node is an ``InputError``: no generate run writes such
    a graph.
    """
    raw = read_json(path, _WORKFLOW)
    anybound = CardinalityBound(0, None)
    nodes = []
    properties: dict[str, list[PropertyAssignment]] = {}
    for n in raw["nodes"]:
        if n["unique_name"] in properties:
            raise InputError(f"{path}: node {n['unique_name']!r} appears twice")
        node = NodeInstance(n["unique_name"], n["stage"], anybound, anybound, n.get("sub_utterance", ""))
        nodes.append(node)
        properties[n["unique_name"]] = [
            PropertyAssignment(name=p["name"], raw_value=p["value"], coerced=p["value"], status=ACCEPTED)
            for p in n.get("properties", [])
        ]
    edges = [(e["from"], e["to"]) for e in raw["edges"]]
    for src, dst in edges:
        if src == dst:
            raise InputError(f"{path}: edge {src!r} -> {dst!r} is a self-loop")
        if src not in properties or dst not in properties:
            raise InputError(f"{path}: edge {src!r} -> {dst!r} names a node the document lacks")
    graph = FlowGraph(nodes=nodes, edges=edges)
    return Workflow(graph=graph, properties=properties, provenance={"source": str(path)})
