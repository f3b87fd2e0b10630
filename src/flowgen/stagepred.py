"""Stage prediction: which operators does an utterance ask for?

Three interchangeable strategies produce the same shape of answer, an
ordered multiset of stage names:

* ``single`` — one prompt enumerating the whole catalog plus the full
  few-shot bank. Simple, token-hungry.
* ``cag`` — classifier-augmented generation: decompose the utterance into
  sub-utterances, classify each, add keyword hits over the full utterance,
  and prompt with only the candidate stages and the few-shot examples that
  mention them. Same answer format at a fraction of the tokens.
* ``agentic`` — a text-protocol loop where the model calls the classifier
  one sub-utterance at a time (``CALL classify: ...``) and finishes with
  ``FINAL: "..."``.

Every strategy verifies the model's answer against what the prompt offered:
names outside the catalog (or outside the candidate set, for cag) are
dropped and trace-recorded, never invented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import InputError, fixture_path, read_json
from .catalog import Catalog
from .classify import Classification, StageClassifier
from .llm import (
    FAMILY_PRESEED,
    CompletionProvider,
    OperatorParseError,
    PromptTemplate,
    RenderedPrompt,
    bind,
    complete,
    load_template,
    parse_operator_list,
)

__all__ = [
    "FewShotExample",
    "SplitExample",
    "CandidateSet",
    "StagePrediction",
    "StagePredictionError",
    "DecompositionError",
    "ProtocolViolation",
    "DEFAULT_EXAMPLE_CAP",
    "DEFAULT_MAX_STEPS",
    "load_examples",
    "load_split_examples",
    "decompose",
    "build_candidates",
    "select_examples",
    "stage_listing",
    "predict_single",
    "predict_cag",
    "predict_agentic",
]

DEFAULT_EXAMPLE_CAP = 40
DEFAULT_MAX_STEPS = 8

_STAGE_TEMPLATES = {
    family: load_template(
        fixture_path("templates", f"{family}_stage.txt"), preseed=FAMILY_PRESEED[family]
    )
    for family in ("granite", "llama")
}
_DECOMPOSE_TEMPLATE = load_template(fixture_path("templates", "decompose.txt"))
_AGENT_TEMPLATE = load_template(fixture_path("templates", "agent.txt"))


class StagePredictionError(Exception):
    pass


class DecompositionError(StagePredictionError):
    pass


class ProtocolViolation(StagePredictionError):
    def __init__(self, message: str, transcript: list[str]):
        super().__init__(f"{message}\ntranscript:\n" + "\n".join(transcript))
        self.transcript = transcript


@dataclass(frozen=True)
class FewShotExample:
    utterance: str
    operators: tuple[str, ...]


@dataclass(frozen=True)
class SplitExample:
    utterance: str
    subs: tuple[str, ...]


@dataclass
class CandidateSet:
    stages: frozenset[str]
    # stage -> which evidence produced it ("classifier" and/or "keyword")
    provenance: dict[str, frozenset[str]]


@dataclass
class StagePrediction:
    stages: list[str]  # answer-ordered; duplicates are distinct nodes
    trace: list[dict] = field(default_factory=list)  # llm_call records carry the usage
    # estimate for the final stage-selection prompt (0 if no prompt was sent);
    # this is the request the single-prompt baseline is compared against
    stage_prompt_tokens: int = 0


# --- fixture loading ---------------------------------------------------------


def load_examples(path: str | Path, catalog: Catalog | None = None) -> list[FewShotExample]:
    out: list[FewShotExample] = []
    for i, item in enumerate(read_json(path, list, "example", ("utterance", "operators"))):
        if not isinstance(item["operators"], list):
            raise InputError(f"{path}: example {i} operators must be an array")
        ops = tuple(str(op) for op in item["operators"])
        if catalog is not None:
            for op in ops:
                if op not in catalog.stages:
                    raise InputError(f"{path}: example {i} references unknown stage {op!r}")
        out.append(FewShotExample(str(item["utterance"]), ops))
    return out


def load_split_examples(path: str | Path) -> list[SplitExample]:
    out: list[SplitExample] = []
    for i, item in enumerate(read_json(path, list, "split example", ("utterance", "subs"))):
        if not isinstance(item["subs"], list):
            raise InputError(f"{path}: split example {i} subs must be an array")
        out.append(SplitExample(str(item["utterance"]), tuple(str(s) for s in item["subs"])))
    return out


# --- prompt assembly ---------------------------------------------------------


def _context_block(catalog: Catalog, stages: set[str] | None = None) -> str:
    names = sorted(catalog.stages if stages is None else stages)
    return "\n".join(f'"{name}": {catalog.stages[name].description}' for name in names)


def _examples_block(examples: list[FewShotExample]) -> str:
    return "\n\n".join(
        f'Utterance: {ex.utterance}\nOperators: "{", ".join(ex.operators)}"' for ex in examples
    )


def _verified(
    answer: list[str],
    allowed: set[str],
    trace: list[dict],
) -> list[str]:
    kept, dropped = [], []
    for name in answer:
        (kept if name in allowed else dropped).append(name)
    if dropped:
        trace.append({"event": "dropped_names", "names": dropped})
    return kept


def stage_listing(
    catalog: Catalog,
    candidates: set[str] | None,
    examples: list[FewShotExample],
    family: str = "granite",
) -> PromptTemplate:
    """The stage template with its context and examples bound; ``utterance`` stays open.

    The context lists the candidate stages, or the whole catalog when
    ``candidates`` is None.
    """
    return bind(
        _STAGE_TEMPLATES[family],
        {"context": _context_block(catalog, candidates), "examples": _examples_block(examples)},
    )


def render_stage_prompt(
    catalog: Catalog,
    candidates: set[str] | None,
    examples: list[FewShotExample],
    utterance: str,
    family: str = "granite",
) -> RenderedPrompt:
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    listing = stage_listing(catalog, candidates, examples, family)
    return render_prompt(listing, {"utterance": utterance})


# --- single-prompt strategy --------------------------------------------------


def predict_single(
    utterance: str,
    catalog: Catalog,
    listing: PromptTemplate,
    provider: CompletionProvider,
    trace: list[dict] | None = None,
) -> StagePrediction:
    """One prompt over the full catalog and the full example bank.

    ``listing`` is ``stage_listing(catalog, None, bank, family)``, built once
    and reused for every utterance.
    """
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    trace = [] if trace is None else trace
    prompt = render_prompt(listing, {"utterance": utterance})
    answer = parse_operator_list(complete(provider, prompt, trace, "stage_selection"))
    stages = _verified(answer, set(catalog.stages), trace)
    return StagePrediction(
        stages=stages,
        trace=trace,
        stage_prompt_tokens=prompt.token_estimate,
    )


# --- cag strategy ------------------------------------------------------------


def decompose(
    utterance: str,
    provider: CompletionProvider,
    split_examples: list[SplitExample],
    trace: list[dict] | None = None,
) -> list[str]:
    """Split an utterance into single-stage sub-utterances via one completion."""
    trace = [] if trace is None else trace
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    examples_block = "\n\n".join(
        "Utterance: {}\nSub-utterances:\n{}".format(
            ex.utterance, "\n".join(f"- {sub}" for sub in ex.subs)
        )
        for ex in split_examples
    )
    prompt = render_prompt(
        _DECOMPOSE_TEMPLATE, {"examples": examples_block, "utterance": utterance}
    )
    answer = complete(provider, prompt, trace, "decompose")
    subs = [
        line.strip()[2:].strip()
        for line in answer.splitlines()
        if line.strip().startswith("- ")
    ]
    subs = [s for s in subs if s]
    if not subs:
        raise DecompositionError(f"no sub-utterances parsed from {answer!r}")
    return subs


def build_candidates(
    subs: list[str],
    classifier: StageClassifier,
    catalog: Catalog,
    full_utterance: str,
    trace: list[dict] | None = None,
) -> CandidateSet:
    """Candidate stages: classifier hits on each sub plus keyword hits on the whole.

    Only catalog stages can become candidates; a remote classifier emitting a
    stray label cannot smuggle it into the prompt. Adding synonyms or
    training data can only grow the set.
    """
    # local: perfbench/tracer.py wraps flowgen.classify.keyword_scan; hoisting it empties that span
    from .classify import keyword_scan

    trace = [] if trace is None else trace
    provenance: dict[str, set[str]] = {}
    for sub in subs:
        result: Classification = classifier.classify(sub)
        top = result.top
        trace.append(
            {
                "event": "classified",
                "sub_utterance": sub,
                "top": top,
                "score": result.ranked[0][1] if result.ranked else 0.0,
                "matched": result.matched,
            }
        )
        if result.matched and top is not None and top in catalog.stages:
            provenance.setdefault(top, set()).add("classifier")
    for name in keyword_scan(catalog, full_utterance):
        provenance.setdefault(name, set()).add("keyword")
    candidates = CandidateSet(
        stages=frozenset(provenance),
        provenance={k: frozenset(v) for k, v in sorted(provenance.items())},
    )
    trace.append({"event": "candidates", "stages": sorted(candidates.stages)})
    return candidates


def select_examples(
    candidates: CandidateSet,
    bank: list[FewShotExample],
    cap: int = DEFAULT_EXAMPLE_CAP,
) -> list[FewShotExample]:
    """Few-shot examples that mention at least one candidate stage.

    If more than ``cap`` match, a round-robin over candidate stages (stages in
    lexicographic order, examples in bank order) keeps per-candidate coverage;
    the selection is emitted in bank order either way.
    """
    matching = [ex for ex in bank if candidates.stages.intersection(ex.operators)]
    if len(matching) <= cap:
        return matching
    chosen: set[int] = set()
    per_stage: dict[str, list[int]] = {
        stage: [i for i, ex in enumerate(matching) if stage in ex.operators]
        for stage in sorted(candidates.stages)
    }
    cursors = {stage: 0 for stage in per_stage}
    while len(chosen) < cap:
        progressed = False
        for stage, indices in per_stage.items():
            if len(chosen) >= cap:
                break
            cursor = cursors[stage]
            while cursor < len(indices) and indices[cursor] in chosen:
                cursor += 1
            if cursor < len(indices):
                chosen.add(indices[cursor])
                cursors[stage] = cursor + 1
                progressed = True
        if not progressed:
            break
    return [matching[i] for i in sorted(chosen)]


def predict_cag(
    utterance: str,
    catalog: Catalog,
    classifier: StageClassifier,
    bank: list[FewShotExample],
    provider: CompletionProvider,
    family: str = "granite",
    split_examples: list[SplitExample] | None = None,
    cap: int = DEFAULT_EXAMPLE_CAP,
    trace: list[dict] | None = None,
) -> StagePrediction:
    """Classifier-augmented prediction: scoped context, scoped examples.

    The rendered context block contains exactly the candidate stages, so any
    verified answer stage is guaranteed to have been offered to the model.
    An empty candidate set short-circuits to an empty prediction — there is
    nothing the model could legally answer.
    """
    trace = [] if trace is None else trace
    subs = decompose(utterance, provider, split_examples or [], trace)
    candidates = build_candidates(subs, classifier, catalog, utterance, trace)
    if not candidates.stages:
        trace.append({"event": "empty_candidates"})
        return StagePrediction(stages=[], trace=trace)
    examples = select_examples(candidates, bank, cap)
    trace.append({"event": "examples_selected", "count": len(examples)})
    prompt = render_stage_prompt(catalog, set(candidates.stages), examples, utterance, family)
    answer = parse_operator_list(complete(provider, prompt, trace, "stage_selection"))
    stages = _verified(answer, set(candidates.stages), trace)
    return StagePrediction(
        stages=stages,
        trace=trace,
        stage_prompt_tokens=prompt.token_estimate,
    )


# --- agentic strategy ---------------------------------------------------------


def _scan_agent_reply(text: str) -> tuple[str, str] | None:
    """First CALL or FINAL action in a reply, as (kind, payload)."""
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("CALL classify:"):
            return ("call", line[len("CALL classify:") :].strip())
        if line.startswith("FINAL:"):
            return ("final", line[len("FINAL:") :].strip())
    return None


def predict_agentic(
    utterance: str,
    catalog: Catalog,
    classifier: StageClassifier,
    provider: CompletionProvider,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: list[dict] | None = None,
) -> StagePrediction:
    """ReAct-style loop: the model drives the classifier one call per turn.

    Each turn re-renders the base prompt plus the transcript so far. The
    loop ends at FINAL or after ``max_steps`` completions; at the cap, a
    reply that still tries to act (or does not parse as an operator list) is
    a protocol violation carrying the transcript.
    """
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    trace = [] if trace is None else trace
    transcript: list[str] = []
    last_reply = ""
    for _step in range(max_steps):
        prompt = render_prompt(
            _AGENT_TEMPLATE, {"utterance": utterance, "transcript": "\n".join(transcript)}
        )
        last_reply = complete(provider, prompt, trace, "agent_step")
        action = _scan_agent_reply(last_reply)
        if action is None:
            transcript.append(last_reply.strip())
            continue
        kind, payload = action
        if kind == "final":
            answer = parse_operator_list(payload)
            stages = _verified(answer, set(catalog.stages), trace)
            trace.append({"event": "final", "answer": payload})
            return StagePrediction(stages=stages, trace=trace)
        transcript.append(f"CALL classify: {payload}")
        outcome = classifier.classify(payload)
        label = outcome.top if outcome.matched and outcome.top else "no match"
        transcript.append(f"RESULT: {label}")
        trace.append({"event": "classify_call", "text": payload, "result": label})
    # out of steps: accept a reply that at least looks like an operator list
    if "CALL" not in last_reply:
        try:
            answer = parse_operator_list(last_reply)
        except OperatorParseError:
            answer = None
        if answer:
            trace.append({"event": "best_effort_final", "answer": last_reply.strip()})
            stages = _verified(answer, set(catalog.stages), trace)
            return StagePrediction(stages=stages, trace=trace)
    raise ProtocolViolation(f"no FINAL answer within {max_steps} steps", transcript)
