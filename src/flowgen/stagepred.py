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

from pathlib import Path
from typing import Iterable

from . import InputError, Record, fixture_path, read_json
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
    count_tokens,
    counted,
    load_template,
    parse_operator_list,
)

__all__ = [
    "FewShotExample",
    "CandidateSet",
    "StagePrediction",
    "StagePredictionError",
    "DecompositionError",
    "ProtocolViolation",
    "DEFAULT_EXAMPLE_CAP",
    "DEFAULT_MAX_STEPS",
    "StagePrompts",
    "load_examples",
    "load_split_examples",
    "stage_prompts",
    "decompose",
    "build_candidates",
    "select_examples",
    "predict_single",
    "predict_cag",
    "predict_agentic",
]

DEFAULT_EXAMPLE_CAP = 40
DEFAULT_MAX_STEPS = 8

_STAGE_TEMPLATES = {
    family: load_template(fixture_path("templates", f"{family}_stage.txt"), preseed=preseed)
    for family, preseed in FAMILY_PRESEED.items()
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


class FewShotExample(Record):
    """An utterance and its answer; hashable by value, as ``StagePrompts`` counts each once."""

    __slots__ = ("utterance", "operators")

    def __init__(self, utterance: str, operators: tuple[str, ...]):
        self.utterance = utterance
        self.operators = operators

    def __hash__(self) -> int:
        return hash((self.utterance, self.operators))


class CandidateSet:
    __slots__ = ("stages", "provenance")

    def __init__(self, stages: frozenset[str], provenance: dict[str, frozenset[str]]):
        self.stages = stages
        # stage -> which evidence produced it ("classifier" and/or "keyword")
        self.provenance = provenance


class StagePrediction:
    __slots__ = ("stages", "trace", "stage_prompt_tokens")

    def __init__(
        self, stages: list[str], trace: list[dict] | None = None, stage_prompt_tokens: int = 0
    ):
        self.stages = stages  # answer-ordered; duplicates are distinct nodes
        # llm_call records carry the usage
        self.trace = [] if trace is None else trace
        # estimate for the final stage-selection prompt (0 if no prompt was sent);
        # this is the request the single-prompt baseline is compared against
        self.stage_prompt_tokens = stage_prompt_tokens


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


def load_split_examples(path: str | Path) -> list[tuple[str, tuple[str, ...]]]:
    """The ``(utterance, subs)`` decomposition examples of a file."""
    out: list[tuple[str, tuple[str, ...]]] = []
    for i, item in enumerate(read_json(path, list, "split example", ("utterance", "subs"))):
        if not isinstance(item["subs"], list):
            raise InputError(f"{path}: split example {i} subs must be an array")
        out.append((str(item["utterance"]), tuple(str(s) for s in item["subs"])))
    return out


# --- prompt assembly ---------------------------------------------------------


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


def _joined(texts: list[str], keys: list, tokens: dict, sep: str) -> tuple[str, int]:
    """``texts`` joined by a whitespace ``sep``, and their token total.

    Each text is counted once per key in ``tokens``. No alphanumeric run
    crosses ``sep``, so the counts add exactly.
    """
    total = 0
    for key, text in zip(keys, texts):
        n = tokens.get(key)
        if n is None:
            n = tokens[key] = count_tokens(text)
        total += n
    return sep.join(texts), total


class StagePrompts:
    """The static prompt text of a runtime, each piece counted once.

    ``stage_prompts`` builds it once per runtime. Its pieces are filled at
    their first use and looked up after that:

    * for the stage prompt, each stage's context line and each example's
      few-shot block (``listing``);
    * for the segmentation prompt, each stage's description line
      (``node_tokens``, which ``edgepred.segment_for_nodes`` fills);
    * for the properties prompt, each stage's template with its name and
      property list bound (``properties``, which
      ``proppred.predict_properties`` fills), so its digest state covers all
      the text before the sub-utterance.

    So a render counts only what the run adds. Threads that share it can at
    worst build a piece twice, to the same value.
    """

    __slots__ = (
        "catalog", "stage", "decompose", "line_tokens", "block_tokens", "node_tokens", "properties",
    )

    def __init__(self, catalog: Catalog, stage: PromptTemplate, decompose: PromptTemplate):
        self.catalog = catalog
        self.stage = stage  # the family's stage template, no slot bound
        self.decompose = decompose  # the split examples bound; ``utterance`` open
        self.line_tokens: dict[str, int] = {}  # by stage name
        self.block_tokens: dict[FewShotExample, int] = {}
        self.node_tokens: dict[str, int] = {}  # by stage name
        self.properties: dict[str, PromptTemplate] = {}  # by stage name

    def listing(
        self, candidates: Iterable[str] | None, examples: list[FewShotExample]
    ) -> PromptTemplate:
        """The stage template with its context and examples bound; ``utterance`` stays open.

        The context lists the candidate stages, or the whole catalog when
        ``candidates`` is None.
        """
        stages = self.catalog.stages
        names = sorted(stages if candidates is None else candidates)
        lines = [f'"{name}": {stages[name].description}' for name in names]
        blocks = [
            f'Utterance: {ex.utterance}\nOperators: "{", ".join(ex.operators)}"' for ex in examples
        ]
        return bind(
            self.stage,
            {
                "context": _joined(lines, names, self.line_tokens, "\n"),
                "examples": _joined(blocks, examples, self.block_tokens, "\n\n"),
            },
        )


def stage_prompts(
    catalog: Catalog,
    split_examples: Iterable[tuple[str, tuple[str, ...]]] = (),
    family: str = "granite",
) -> StagePrompts:
    """The stage prompts over ``catalog`` for ``family``, with ``split_examples`` bound.

    ``split_examples`` holds ``(utterance, subs)`` pairs, as ``load_split_examples`` reads them.
    """
    examples_block = "\n\n".join(
        "Utterance: {}\nSub-utterances:\n{}".format(
            utterance, "\n".join(f"- {sub}" for sub in subs)
        )
        for utterance, subs in split_examples
    )
    return StagePrompts(
        catalog=catalog,
        stage=_STAGE_TEMPLATES[family],
        decompose=bind(_DECOMPOSE_TEMPLATE, {"examples": examples_block}),
    )


def render_stage_prompt(
    catalog: Catalog,
    candidates: Iterable[str] | None,
    examples: list[FewShotExample],
    utterance: str | tuple[str, int],
    family: str = "granite",
    prompts: StagePrompts | None = None,
) -> RenderedPrompt:
    """The stage prompt: ``prompts.listing(candidates, examples)`` with the utterance.

    ``prompts`` is the runtime's ``stage_prompts(catalog, ...)``; without
    it, the static text is counted on this call. An utterance given as
    ``(text, tokens)`` is not counted again.
    """
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    if prompts is None:
        prompts = stage_prompts(catalog, family=family)
    return render_prompt(prompts.listing(candidates, examples), {"utterance": utterance})


# --- single-prompt strategy --------------------------------------------------


def predict_single(
    utterance: str | tuple[str, int],
    catalog: Catalog,
    listing: PromptTemplate,
    provider: CompletionProvider,
    trace: list[dict] | None = None,
) -> StagePrediction:
    """One prompt over the full catalog and the full example bank.

    ``listing`` is ``stage_prompts(catalog, family=family).listing(None,
    bank)``, built once and reused for every utterance. An utterance given
    as ``(text, tokens)`` is not counted again.
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
    utterance: str | tuple[str, int],
    provider: CompletionProvider,
    template: PromptTemplate,
    trace: list[dict] | None = None,
) -> list[str]:
    """Split an utterance into single-stage sub-utterances via one completion.

    ``template`` is the runtime's ``stage_prompts(...).decompose``, with the
    split examples bound once. An utterance given as ``(text, tokens)`` is
    not counted again.
    """
    trace = [] if trace is None else trace
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    prompt = render_prompt(template, {"utterance": utterance})
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
    utterance: str | tuple[str, int],
    catalog: Catalog,
    classifier: StageClassifier,
    bank: list[FewShotExample],
    provider: CompletionProvider,
    family: str = "granite",
    split_examples: list[tuple[str, tuple[str, ...]]] | None = None,
    cap: int = DEFAULT_EXAMPLE_CAP,
    trace: list[dict] | None = None,
    prompts: StagePrompts | None = None,
) -> StagePrediction:
    """Classifier-augmented prediction: scoped context, scoped examples.

    The rendered context block contains exactly the candidate stages, so any
    verified answer stage is guaranteed to have been offered to the model.
    An empty candidate set short-circuits to an empty prediction — there is
    nothing the model could legally answer.

    ``prompts`` is ``stage_prompts(catalog, split_examples, family)``, built
    once per runtime; without it, that is built on this call. The utterance
    is counted once, for both prompts, unless it comes as ``(text, tokens)``.
    """
    trace = [] if trace is None else trace
    if prompts is None:
        prompts = stage_prompts(catalog, split_examples or (), family)
    utterance = counted(utterance)
    subs = decompose(utterance, provider, prompts.decompose, trace)
    candidates = build_candidates(subs, classifier, catalog, utterance[0], trace)
    if not candidates.stages:
        trace.append({"event": "empty_candidates"})
        return StagePrediction(stages=[], trace=trace)
    examples = select_examples(candidates, bank, cap)
    trace.append({"event": "examples_selected", "count": len(examples)})
    prompt = render_stage_prompt(catalog, candidates.stages, examples, utterance, family, prompts)
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
    utterance: str | tuple[str, int],
    catalog: Catalog,
    classifier: StageClassifier,
    provider: CompletionProvider,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: list[dict] | None = None,
) -> StagePrediction:
    """ReAct-style loop: the model drives the classifier one call per turn.

    Each turn re-renders the base prompt plus the transcript so far; the
    utterance is counted once, unless it comes as ``(text, tokens)``. The
    loop ends at FINAL or after ``max_steps`` completions; at the cap, a
    reply that still tries to act (or does not parse as an operator list) is
    a protocol violation carrying the transcript.
    """
    # local: perfbench/tracer.py wraps flowgen.llm.render_prompt; hoisting it empties that span
    from .llm import render_prompt

    trace = [] if trace is None else trace
    utterance = counted(utterance)
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
