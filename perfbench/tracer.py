"""Spans around flowgen's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function at the place the program
looks it up (a module attribute, or the runtime's ``provider`` and
``classifier``) with a wrapper that records a span: name, start, end,
parent span and utterance id, and the CPU time of its thread. Spans stay in
memory until ``write``. ``uninstall`` puts every original back, so a
traced and an untraced run in one process execute the same program.

A span's self time is its duration minus the part of it that its child
spans cover. Calls made on a worker thread with no open span of their own
are children of the span open on the main thread (``generate_with_runtime``
waiting on its pool), so provider time on a worker is still subtracted
from its caller. Times are reported at reference speed, as the end-to-end
ones are (see ``speed.py``): the CPU part of a self time is multiplied by
the span's ``scale``, and the rest, such as a provider's sleep, is kept.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter, thread_time

from speed import rescaled

# (module, attribute, span name): every place that the library code looks a
# traced function up. Functions imported by name are wrapped in the
# importing module; functions called through a module attribute or a
# function-local import are wrapped in their own module. Not wrapped:
# ``flowgen.cli``'s imports, which the benchmark never calls, and
# ``edgepred.repair``'s call of ``repair_with_renames``, which the pipeline
# does not use.
TARGETS = (
    ("flowgen.llm", "count_tokens", "llm.count_tokens"),
    ("flowgen.llm", "render_prompt", "llm.render_prompt"),
    ("flowgen.edgepred", "render_prompt", "llm.render_prompt"),
    ("flowgen.proppred", "render_prompt", "llm.render_prompt"),
    ("flowgen.stagepred", "load_template", "llm.load_template"),
    ("flowgen.edgepred", "load_template", "llm.load_template"),
    ("flowgen.proppred", "load_template", "llm.load_template"),
    ("flowgen.classify", "keyword_scan", "classify.keyword_scan"),
    ("flowgen.pipeline", "train", "classify.train"),
    ("flowgen.stagepred", "render_stage_prompt", "stagepred.render_stage_prompt"),
    ("flowgen.stagepred", "decompose", "stagepred.decompose"),
    ("flowgen.stagepred", "build_candidates", "stagepred.build_candidates"),
    ("flowgen.stagepred", "select_examples", "stagepred.select_examples"),
    ("flowgen.pipeline", "predict_single", "stagepred.predict_single"),
    ("flowgen.pipeline", "predict_cag", "stagepred.predict_cag"),
    ("flowgen.pipeline", "predict_agentic", "stagepred.predict_agentic"),
    ("flowgen.pipeline", "segment_for_nodes", "edgepred.segment_for_nodes"),
    ("flowgen.pipeline", "predict_edges", "edgepred.predict_edges"),
    ("flowgen.pipeline", "repair_with_renames", "edgepred.repair_with_renames"),
    ("flowgen.pipeline", "validate_cardinality", "edgepred.validate_cardinality"),
    ("flowgen.pipeline", "predict_properties", "proppred.predict_properties"),
    ("flowgen.pipeline", "validate", "proppred.validate"),
    ("flowgen.proppred", "parse_condition", "condexpr.parse_condition"),
    ("flowgen.condexpr", "parse_condition", "condexpr.parse_condition"),
    ("flowgen.proppred", "eval_condition", "condexpr.eval_condition"),
    ("flowgen.pipeline", "load_catalog", "catalog.load_catalog"),
    ("flowgen.pipeline", "build_runtime", "pipeline.build_runtime"),
    ("flowgen.pipeline", "generate_with_runtime", "pipeline.generate_with_runtime"),
    ("flowgen.pipeline", "emit", "pipeline.emit"),
    ("flowgen.evaluation", "run_eval", "evaluation.run_eval"),
    ("flowgen.evaluation", "build_runtime", "pipeline.build_runtime"),
    ("flowgen.evaluation", "generate_with_runtime", "pipeline.generate_with_runtime"),
)

# provider calls are attributed to a purpose by the span that made them
PURPOSE_OF_CALLER = {
    "stagepred.decompose": "decompose",
    "stagepred.predict_single": "stage_selection",
    "stagepred.predict_cag": "stage_selection",
    "stagepred.predict_agentic": "agent_step",
    "edgepred.segment_for_nodes": "segmentation",
    "edgepred.predict_edges": "edge_prediction",
    "proppred.predict_properties": "properties",
}
PURPOSES = tuple(dict.fromkeys(PURPOSE_OF_CALLER.values()))


class Span:
    __slots__ = ("name", "start", "end", "cpu", "thread", "scale", "parent", "utt", "attrs")

    def __init__(self, name: str, parent: "Span | None", utt: str | None):
        self.name = name
        self.parent = parent
        self.utt = utt
        self.thread = threading.get_ident()
        self.scale = 1.0  # speed of the machine while the span ran (see speed.py)
        self.attrs: dict | None = None
        self.cpu = thread_time()
        self.start = self.end = perf_counter()

    def close(self) -> None:
        self.end = perf_counter()
        self.cpu = thread_time() - self.cpu


def _count_events(trace: list[dict], event: str) -> int:
    return sum(1 for entry in trace if entry.get("event") == event)


def _dropped_names(trace: list[dict]) -> int:
    return sum(len(e["names"]) for e in trace if e.get("event") == "dropped_names")


def _stage_prediction_attrs(tracer, args, kwargs, result) -> dict:
    return {
        "stage_prompt_tokens": result.stage_prompt_tokens,
        "dropped_names": _dropped_names(result.trace),
    }


def _candidates_attrs(tracer, args, kwargs, result) -> dict:
    gold = tracer.gold or set()
    return {"candidates": len(result.stages), "recall": float(gold <= result.stages)}


def _edges_attrs(tracer, args, kwargs, result) -> dict:
    trace = args[4] if len(args) > 4 else kwargs.get("trace") or []
    kept = len(result.edges)
    return {"kept": kept, "proposed": kept + _count_events(trace, "edge_dropped")}


def _repair_attrs(tracer, args, kwargs, result) -> dict:
    trace = args[1] if len(args) > 1 else kwargs.get("trace") or []
    return {
        "splits": _count_events(trace, "node_split"),
        "prunes": _count_events(trace, "edge_pruned"),
    }


def _validate_attrs(tracer, args, kwargs, result) -> dict:
    return {"accepted": sum(1 for a in result if a.status == "accepted"), "validated": len(result)}


ATTRS = {
    "llm.count_tokens": lambda tracer, args, kwargs, result: {"chars": len(args[0])},
    "stagepred.predict_single": _stage_prediction_attrs,
    "stagepred.predict_cag": _stage_prediction_attrs,
    "stagepred.predict_agentic": _stage_prediction_attrs,
    "stagepred.build_candidates": _candidates_attrs,
    "edgepred.predict_edges": _edges_attrs,
    "edgepred.repair_with_renames": _repair_attrs,
    "proppred.validate": _validate_attrs,
}


class _TracedProvider:
    def __init__(self, tracer: "Tracer", inner):
        self.inner = inner
        self.complete = tracer.wrap("llm.provider", inner.complete, _provider_attrs)


def _provider_attrs(tracer, args, kwargs, result) -> dict:
    return {"prompt_tokens": args[0].token_estimate}


class _TracedClassifier:
    def __init__(self, tracer: "Tracer", inner):
        self.inner = inner
        self.classify = tracer.wrap("classify.classify", inner.classify)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.utt: str | None = None
        self.gold: frozenset[str] | None = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_ident = threading.main_thread().ident
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, parent, tracer.utt)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.close()
                stack.pop()
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(tracer, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, runtimes) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self.wrap(name, getattr(module, attr), ATTRS.get(name)))
        for rt in runtimes:
            self._replace(rt, "provider", _TracedProvider(self, rt.provider))
            self._replace(rt, "classifier", _TracedClassifier(self, rt.classifier))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        self.spans = []

    def set_scale(self, scale: float, first: int = 0) -> None:
        """Rescale the spans from index ``first`` on with ``scale``."""
        for span in self.spans[first:]:
            span.scale = scale

    def write(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "cpu": s.cpu,
                    "scale": s.scale,
                    "parent": index.get(id(s.parent)),
                    "utt": s.utt,
                }
                if s.attrs:
                    row["attrs"] = s.attrs
                out.write(json.dumps(row) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the union of its children's intervals, at
    reference speed. The CPU its children used on its own thread is taken
    out of its CPU time; a worker thread's CPU never was in it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    children_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            p = s.parent
            children[id(p)].append((max(s.start, p.start), min(s.end, p.end)))
            if s.thread == p.thread:
                children_cpu[id(p)] += s.cpu
    out = {}
    for s in spans:
        wall = (s.end - s.start) - _covered(children.get(id(s), []))
        out[id(s)] = rescaled(wall, max(s.cpu - children_cpu[id(s)], 0.0), s.scale)
    return out


def durations_ms(spans: list[Span], scale: float) -> dict[str, float]:
    """Total duration per span name, children included, at reference speed."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += rescaled(s.end - s.start, s.cpu, scale) * 1000.0
    return dict(out)


def depth(intervals: list[tuple[float, float]]) -> int:
    """Most pairwise non-overlapping intervals: round trips on the critical path."""
    count = 0
    reach = float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= reach:
            count += 1
            reach = end
    return count


def summarize(spans: list[Span], n_utts: int) -> dict[str, float]:
    """Per-utterance means: ``<span>.ms`` (self time), ``<span>.calls``, attrs."""
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    provider_by_utt: dict[str | None, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        out[f"{s.name}.ms"] += own[id(s)] * 1000.0
        out[f"{s.name}.calls"] += 1
        for key, value in (s.attrs or {}).items():
            out[f"{s.name}:{key}"] += value
        if s.name == "llm.provider":
            provider_by_utt[s.utt].append((s.start, s.end))
            purpose = PURPOSE_OF_CALLER.get(s.parent.name if s.parent else "", "other")
            out[f"llm.prompt_tokens.{purpose}"] += (s.attrs or {}).get("prompt_tokens", 0)
    out["llm.provider.depth"] = sum(depth(iv) for iv in provider_by_utt.values())
    n = max(n_utts, 1)
    return {key: value / n for key, value in out.items()}
