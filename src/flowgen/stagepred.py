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
from typing import Container, Iterable, Sequence

# render_prompt and keyword_scan are called through their modules: perfbench/tracer.py
# replaces the module attribute, and a call through the module reaches the replacement
from . import InputError, Record, classify, fixture_path, llm, read_json
from .catalog import Catalog
from .classify import Classification, StageClassifier
from .llm import (
    FAMILIES,
    AnswerError,
    CompletionProvider,
    PromptTemplate,
    RenderedPrompt,
    bind,
    complete,
    counted,
    load_template,
    parse_operator_list,
)

__all__ = [
    "FewShotExample",
    "CandidateSet",
    "StagePrediction",
    "ProtocolViolation",
    "DEFAULT_EXAMPLE_CAP",
    "DEFAULT_MAX_STEPS",
    "StagePrompts",
    "load_examples",
    "load_split_examples",
    "stage_prompts",
    "decompose",
    "build_candidates",
    "example_positions",
    "select_examples",
    "predict_single",
    "predict_cag",
    "predict_agentic",
]

DEFAULT_EXAMPLE_CAP = 40
DEFAULT_MAX_STEPS = 8

_STAGE_TEMPLATES = {
    family: load_template(fixture_path("templates", f"{family}_stage.txt")) for family in FAMILIES
}
_DECOMPOSE_TEMPLATE = load_template(fixture_path("templates", "decompose.txt"))
_AGENT_TEMPLATE = load_template(fixture_path("templates", "agent.txt"))


class ProtocolViolation(AnswerError):
    def __init__(self, message: str, transcript: list[str]):
        super().__init__(f"{message}\ntranscript:\n" + "\n".join(transcript))
        self.transcript = transcript


class FewShotExample(Record):
    """An utterance and its answer, with its few-shot block counted once.

    ``block`` is the example as the stage prompt shows it, a ``(text,
    tokens)`` pair made when the example is.
    """

    __slots__ = ("utterance", "operators", "block")

    def __init__(self, utterance: str, operators: tuple[str, ...]):
        self.utterance = utterance
        self.operators = operators
        self.block = counted(f'Utterance: {utterance}\nOperators: "{", ".join(operators)}"')


class CandidateSet:
    __slots__ = ("stages", "provenance")

    def __init__(self, stages: frozenset[str], provenance: dict[str, frozenset[str]]):
        self.stages = stages
        # stage -> which evidence produced it ("classifier" and/or "keyword")
        self.provenance = provenance


class StagePrediction:
    __slots__ = ("stages", "trace", "stage_prompt_tokens")

    def __init__(self, stages: list[str], trace: list[dict], stage_prompt_tokens: int = 0):
        self.stages = stages  # answer-ordered; duplicates are distinct nodes
        self.trace = trace  # llm_call records carry the usage
        # estimate for the final stage-selection prompt (0 if no prompt was sent);
        # this is the request the single-prompt baseline is compared against
        self.stage_prompt_tokens = stage_prompt_tokens


# --- fixture loading ---------------------------------------------------------


def load_examples(path: str | Path, catalog: Catalog) -> list[FewShotExample]:
    out: list[FewShotExample] = []
    for i, item in enumerate(read_json(path, [{"utterance": str, "operators": [str]}])):
        for j, op in enumerate(item["operators"]):
            if op not in catalog.stages:
                raise InputError(f"unknown stage {op!r}", f"{path}: [{i}].operators[{j}]")
        out.append(FewShotExample(item["utterance"], tuple(item["operators"])))
    return out


def load_split_examples(path: str | Path) -> list[tuple[str, tuple[str, ...]]]:
    """The ``(utterance, subs)`` decomposition examples of a file."""
    raw = read_json(path, [{"utterance": str, "subs": [str]}])
    return [(item["utterance"], tuple(item["subs"])) for item in raw]


# --- prompt assembly ---------------------------------------------------------


def _verified(
    answer: list[str],
    allowed: Container[str],
    trace: list[dict],
) -> list[str]:
    kept, dropped = [], []
    for name in answer:
        (kept if name in allowed else dropped).append(name)
    if dropped:
        trace.append({"event": "dropped_names", "names": dropped})
    return kept


def _joined(pieces: list[tuple[str, int]], sep: str) -> tuple[str, int]:
    """Counted ``pieces`` joined by a whitespace ``sep``, and their token total.

    No alphanumeric run crosses ``sep``, so the counts add exactly.
    """
    return sep.join([text for text, _ in pieces]), sum([n for _, n in pieces])


class StagePrompts:
    """The static prompt text of a runtime, each piece counted once, where it is made.

    ``stage_prompts`` builds it once per runtime, with ``lines``: each
    stage's context line for the stage prompt, a ``(text, tokens)`` pair by
    stage name. Each few-shot example counts its own block when it is made
    (``FewShotExample.block``), so ``bindings`` only joins counted pairs.

    ``properties`` holds each stage's properties template with its name and
    property list bound, filled at the stage's first use
    (``proppred.predict_properties``), so its digest state covers all the
    text before the sub-utterance. Threads that share it can at worst build
    a template twice, to the same value.

    A render counts the run's text it is given: the utterance, the
    sub-utterances and the node blocks are never kept here.

    ``stage`` is the family's module-level template, whose leading text is
    hashed once per process; ``render_stage_prompt`` renders it with
    ``bindings`` in one pass.

    It is the one holder of the few-shot ``bank`` and its
    ``example_positions``, which ``listing`` and ``select_examples`` read.
    """

    __slots__ = ("stage", "decompose", "bank", "positions", "lines", "properties")

    def __init__(
        self, catalog: Catalog, stage: PromptTemplate, decompose: PromptTemplate,
        bank: Sequence[FewShotExample],
    ):
        self.stage = stage  # the family's stage template, no slot bound
        self.decompose = decompose  # the split examples bound; ``utterance`` open
        self.bank = bank
        self.positions = example_positions(bank)
        self.lines = {
            name: counted(f'"{name}": {stage.description}') for name, stage in catalog.stages.items()
        }
        self.properties: dict[str, PromptTemplate] = {}  # by stage name

    def bindings(
        self, candidates: Iterable[str] | None, examples: Sequence[FewShotExample]
    ) -> dict[str, tuple[str, int]]:
        """The stage template's ``context`` and ``examples``, each a ``(text, tokens)`` pair.

        The context lists the candidate stages, or the whole catalog when
        ``candidates`` is None.
        """
        lines = self.lines
        names = sorted(lines if candidates is None else candidates)
        return {
            "context": _joined([lines[name] for name in names], "\n"),
            "examples": _joined([ex.block for ex in examples], "\n\n"),
        }

    def listing(self) -> PromptTemplate:
        """The stage template over the whole catalog and ``bank``; ``utterance`` stays open.

        The single strategy's full listing, bound once per runtime and reused
        for every utterance; a per-call prompt is rendered in one pass by
        ``render_stage_prompt``.
        """
        return bind(self.stage, self.bindings(None, self.bank))


def stage_prompts(
    catalog: Catalog,
    split_examples: Iterable[tuple[str, tuple[str, ...]]] = (),
    family: str = "granite",
    bank: Sequence[FewShotExample] = (),
) -> StagePrompts:
    """The stage prompts over ``catalog`` and ``bank`` for ``family``, with ``split_examples`` bound.

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
        bank=bank,
    )


def render_stage_prompt(
    catalog: Catalog,
    candidates: Iterable[str] | None,
    examples: list[FewShotExample],
    utterance: str,
    family: str = "granite",
    prompts: StagePrompts | None = None,
) -> RenderedPrompt:
    """The stage prompt: ``prompts.bindings(candidates, examples)`` and the utterance.

    One ``render_prompt`` pass over the family's stage template, whose
    leading text is hashed once per process, so each call hashes from the
    context block on. ``prompts`` is the runtime's ``stage_prompts(catalog,
    ...)``, or None outside a runtime.
    """
    if prompts is None:
        prompts = stage_prompts(catalog, family=family)
    bindings = prompts.bindings(candidates, examples)
    return llm.render_prompt(prompts.stage, {**bindings, "utterance": utterance})


# --- single-prompt strategy --------------------------------------------------


def predict_single(
    utterance: str,
    catalog: Catalog,
    listing: PromptTemplate,
    provider: CompletionProvider,
    trace: list[dict],
) -> StagePrediction:
    """One prompt over the full catalog and the full example bank.

    ``listing`` is ``stage_prompts(catalog, family=family, bank=bank).listing()``,
    built once and reused for every utterance.
    """
    prompt = llm.render_prompt(listing, {"utterance": utterance})
    answer = parse_operator_list(complete(provider, prompt, trace, "stage_selection"))
    stages = _verified(answer, catalog.stages, trace)
    return StagePrediction(
        stages=stages,
        trace=trace,
        stage_prompt_tokens=prompt.token_estimate,
    )


# --- cag strategy ------------------------------------------------------------


def decompose(
    utterance: str,
    provider: CompletionProvider,
    template: PromptTemplate,
    trace: list[dict],
) -> list[str]:
    """Split an utterance into single-stage sub-utterances via one completion.

    ``template`` is the runtime's ``stage_prompts(...).decompose``, with the
    split examples bound once.
    """
    prompt = llm.render_prompt(template, {"utterance": utterance})
    answer = complete(provider, prompt, trace, "decompose")
    subs = [
        line.strip()[2:].strip()
        for line in answer.splitlines()
        if line.strip().startswith("- ")
    ]
    subs = [s for s in subs if s]
    if not subs:
        raise AnswerError(f"no sub-utterances parsed from {answer!r}")
    return subs


def build_candidates(
    subs: list[str],
    classifier: StageClassifier,
    catalog: Catalog,
    full_utterance: str,
    trace: list[dict],
) -> CandidateSet:
    """Candidate stages: classifier hits on each sub plus keyword hits on the whole.

    Only catalog stages can become candidates; a remote classifier emitting a
    stray label cannot smuggle it into the prompt. Adding synonyms or
    training data can only grow the set.
    """
    provenance: dict[str, set[str]] = {}
    for sub in subs:
        result: Classification = classifier.classify(sub)
        top = result.top
        trace.append(
            {
                "event": "classified",
                "sub_utterance": sub,
                "top": top,
                "score": result.score,
                "matched": result.matched,
            }
        )
        if result.matched and top is not None and top in catalog.stages:
            provenance.setdefault(top, set()).add("classifier")
    for name in classify.keyword_scan(catalog, full_utterance):
        provenance.setdefault(name, set()).add("keyword")
    candidates = CandidateSet(
        stages=frozenset(provenance),
        provenance={k: frozenset(v) for k, v in sorted(provenance.items())},
    )
    trace.append({"event": "candidates", "stages": sorted(candidates.stages)})
    return candidates


def example_positions(bank: Sequence[FewShotExample]) -> dict[str, tuple[int, ...]]:
    """Each stage's positions in ``bank``, ascending; a stage no example names has none."""
    positions: dict[str, list[int]] = {}
    for i, ex in enumerate(bank):
        for stage in set(ex.operators):
            positions.setdefault(stage, []).append(i)
    return {stage: tuple(found) for stage, found in positions.items()}


def select_examples(
    candidates: CandidateSet, prompts: StagePrompts, cap: int = DEFAULT_EXAMPLE_CAP
) -> list[FewShotExample]:
    """Few-shot examples of ``prompts.bank`` that mention at least one candidate stage.

    The matches are read from ``prompts.positions``, not found by testing
    every example. If more than ``cap`` match, a round-robin over candidate
    stages (stages in lexicographic order, examples in bank order) keeps
    per-candidate coverage; the selection is emitted in bank order either way.
    """
    bank, positions = prompts.bank, prompts.positions
    per_stage = [positions[stage] for stage in sorted(candidates.stages) if stage in positions]
    matching = sorted(set().union(*per_stage))
    if len(matching) <= cap:
        return [bank[i] for i in matching]
    chosen: set[int] = set()
    cursors = [0] * len(per_stage)
    # more matches than the cap, so each round picks one at least: an unchosen match lies
    # at or after its stage's cursor
    while len(chosen) < cap:
        for k, indices in enumerate(per_stage):
            if len(chosen) >= cap:
                break
            cursor = cursors[k]
            while cursor < len(indices) and indices[cursor] in chosen:
                cursor += 1
            if cursor < len(indices):
                chosen.add(indices[cursor])
                cursors[k] = cursor + 1
    return [bank[i] for i in sorted(chosen)]


def predict_cag(
    utterance: str,
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

    ``prompts`` is ``stage_prompts(catalog, split_examples, family, bank)``,
    built once per runtime, or None outside a runtime; the examples come
    from its bank.
    """
    trace = [] if trace is None else trace
    if prompts is None:
        prompts = stage_prompts(catalog, split_examples or (), family, bank)
    subs = decompose(utterance, provider, prompts.decompose, trace)
    candidates = build_candidates(subs, classifier, catalog, utterance, trace)
    if not candidates.stages:
        trace.append({"event": "empty_candidates"})
        return StagePrediction(stages=[], trace=trace)
    examples = select_examples(candidates, prompts, cap)
    trace.append({"event": "examples_selected", "count": len(examples)})
    prompt = render_stage_prompt(catalog, candidates.stages, examples, utterance, family, prompts)
    answer = parse_operator_list(complete(provider, prompt, trace, "stage_selection"))
    stages = _verified(answer, candidates.stages, trace)
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
    trace: list[dict],
) -> StagePrediction:
    """ReAct-style loop: the model drives the classifier one call per turn.

    Each turn re-renders the base prompt plus the transcript so far. The
    loop ends at FINAL or after ``DEFAULT_MAX_STEPS`` completions; at the
    cap, a reply that still tries to act (or does not parse as an operator
    list) is a protocol violation carrying the transcript.
    """
    transcript: list[str] = []
    last_reply = ""
    for _step in range(DEFAULT_MAX_STEPS):
        prompt = llm.render_prompt(
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
            stages = _verified(answer, catalog.stages, trace)
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
        except AnswerError:
            answer = None
        if answer:
            trace.append({"event": "best_effort_final", "answer": last_reply.strip()})
            stages = _verified(answer, catalog.stages, trace)
            return StagePrediction(stages=stages, trace=trace)
    raise ProtocolViolation(f"no FINAL answer within {DEFAULT_MAX_STEPS} steps", transcript)
