"""Stage prediction strategies: single prompt, classifier-scoped, agentic loop.

Includes byte-frozen prompt regressions so template or assembly drift is
caught even when every parser still accepts the output.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FULL_NAME_FLOW, RecordingProvider, make_catalog, make_stage, scripted
from flowgen import InputError, fixture_path
from flowgen.catalog import load_catalog
from flowgen.classify import Classification, train
from flowgen.llm import FAMILIES, AnswerError, bind, count_tokens, render_prompt, usage
from flowgen.stagepred import (
    DEFAULT_EXAMPLE_CAP,
    DEFAULT_MAX_STEPS,
    CandidateSet,
    FewShotExample,
    ProtocolViolation,
    build_candidates,
    decompose,
    example_positions,
    load_examples,
    load_split_examples,
    predict_agentic,
    predict_cag,
    predict_single,
    render_stage_prompt,
    select_examples,
    stage_prompts,
)


def fit(pairs: list[tuple[str, str]]):
    return train(pairs, {label for _, label in pairs})


@pytest.fixture()
def catalog():
    return make_catalog(
        make_stage("head", "Select rows from the start of the data."),
        make_stage(
            "sql_server",
            "Read from or write to a SQL Server database.",
            synonyms=("sqlserver",),
            is_connector=True,
        ),
        make_stage("join", "Combine two inputs on a key.", inputs=(2, 2)),
        make_stage("switch", "Route records to branches.", outputs=(1, None)),
    )


# --- example loading ---------------------------------------------------------------


def test_demo_bank_loads_and_validates_against_demo_catalog():
    demo = load_catalog(fixture_path("demo_catalog.json"))
    bank = load_examples(fixture_path("demo_bank.json"), demo)
    assert len(bank) == 50
    assert all(isinstance(ex, FewShotExample) and ex.operators for ex in bank)


def test_load_examples_rejects_unknown_stage_only_when_catalog_given(tmp_path, catalog):
    p = tmp_path / "bank.json"
    p.write_text(json.dumps([{"utterance": "u", "operators": ["head", "bogus"]}]))
    knows_both = make_catalog(*catalog.stages.values(), make_stage("bogus"))
    assert load_examples(p, knows_both)[0].operators == ("head", "bogus")
    with pytest.raises(InputError, match="unknown stage 'bogus'"):
        load_examples(p, catalog)


@pytest.mark.parametrize(
    "payload",
    [
        {"utterance": "u"},
        [{"utterance": "u"}],
        [{"operators": ["head"]}],
        ["text"],
        [{"utterance": "u", "operators": "sort"}],
    ],
)
def test_load_examples_shape_errors(tmp_path, payload, catalog):
    p = tmp_path / "bank.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(InputError):
        load_examples(p, catalog)


def test_load_split_examples():
    splits = load_split_examples(fixture_path("split_examples.json"))
    assert len(splits) >= 2
    assert all(len(subs) >= 1 for _, subs in splits)


def test_load_split_examples_shape_errors(tmp_path):
    p = tmp_path / "splits.json"
    p.write_text(json.dumps([{"utterance": "u"}]))
    with pytest.raises(InputError, match="needs utterance and subs"):
        load_split_examples(p)
    p.write_text(json.dumps([{"utterance": "u", "subs": "sort the rows"}]))
    with pytest.raises(InputError, match="subs must be an array"):
        load_split_examples(p)


# --- prompt assembly ---------------------------------------------------------------


def test_context_block_scopes_to_candidates(catalog):
    full = render_stage_prompt(catalog, None, [], "utt").text
    for name in catalog.stages:
        assert f'"{name}": {catalog.stages[name].description}' in full
    scoped = render_stage_prompt(catalog, {"head"}, [], "utt").text
    assert '"head": Select rows from the start of the data.' in scoped
    assert "sql_server" not in scoped and "join" not in scoped


def test_context_block_sorts_stage_names(catalog):
    text = render_stage_prompt(catalog, None, [], "utt").text
    positions = [text.index(f'"{name}":') for name in sorted(catalog.stages)]
    assert positions == sorted(positions)


def test_examples_render_as_utterance_operator_pairs(catalog):
    bank = [FewShotExample("first rows please", ("head",)),
            FewShotExample("route then join", ("switch", "join"))]
    text = render_stage_prompt(catalog, None, bank, "utt").text
    assert 'Utterance: first rows please\nOperators: "head"' in text
    assert 'Utterance: route then join\nOperators: "switch, join"' in text


@pytest.mark.parametrize(
    "family, frozen, tokens",
    [("granite", "granite_listing.txt", 1837), ("llama", "llama_listing.txt", 1731)],
)
def test_frozen_full_listing_prompt(family, frozen, tokens):
    # mini catalog as context, full demo bank as examples: pins the whole
    # assembly path (template, context block, example block, role tokens)
    mini = load_catalog(fixture_path("catalog_mini.json"))
    demo = load_catalog(fixture_path("demo_catalog.json"))
    bank = load_examples(fixture_path("demo_bank.json"), demo)
    prompt = render_stage_prompt(mini, None, bank, FULL_NAME_FLOW, family)
    expected = fixture_path("prompts", frozen).read_text(encoding="utf-8")
    assert prompt.text == expected
    assert prompt.token_estimate == tokens


# --- decomposition -----------------------------------------------------------------


def decompose_prompt(splits=()):
    return stage_prompts(make_catalog(), splits).decompose


def test_decompose_parses_bullet_lines():
    provider = scripted(("Sub-utterances:", "- first rows\n- combine data\nignored"))
    subs = decompose("first rows then combine data", provider, decompose_prompt(), [])
    assert subs == ["first rows", "combine data"]


def test_decompose_skips_blank_bullets_and_indented_noise():
    provider = scripted(("Sub-utterances:", "- \n  - keep me\nplain text\n- also"))
    subs = decompose("u", provider, decompose_prompt(), [])
    assert subs == ["keep me", "also"]


def test_decompose_renders_split_examples_and_counts_usage():
    splits = load_split_examples(fixture_path("split_examples.json"))
    (utterance, subs), *_ = splits
    cue = f"Utterance: {utterance}\nSub-utterances:\n- {subs[0]}"
    provider = scripted((cue, "- one"))  # only matches if the example block rendered
    usage_trace: list[dict] = []
    subs = decompose("u", provider, decompose_prompt(splits), usage_trace)
    assert subs == ["one"]
    spent = usage(usage_trace)
    assert spent["requests"] == 1 and spent["prompt_tokens"] > 0
    assert usage_trace[0]["event"] == "llm_call" and usage_trace[0]["purpose"] == "decompose"


def test_decompose_error_when_no_bullets():
    provider = scripted(("Sub-utterances:", "I cannot answer that."))
    with pytest.raises(AnswerError, match="no sub-utterances parsed from 'I cannot answer that.'"):
        decompose("u", provider, decompose_prompt(), [])


# --- candidate construction --------------------------------------------------------


def test_build_candidates_unions_classifier_and_keyword_evidence(catalog):
    model = fit([("first rows", "head"), ("combine data", "join")])
    subs = ["first rows", "combine data"]
    cand = build_candidates(subs, model, catalog, "read from sqlserver first rows", trace := [])
    assert cand.stages == {"head", "join", "sql_server"}
    assert cand.provenance["head"] == {"classifier"}
    assert cand.provenance["sql_server"] == {"keyword"}
    assert {e["event"] for e in trace} >= {"classified", "candidates"}


def test_build_candidates_marks_both_sources(catalog):
    model = fit([("first rows head", "head")])
    cand = build_candidates(["first rows head"], model, catalog, "use head now", [])
    assert cand.provenance["head"] == {"classifier", "keyword"}


def test_build_candidates_ignores_labels_outside_catalog(catalog):
    class Stray:
        def classify(self, text):
            return Classification(ranked=(("not_a_stage", 0.99),), matched=True)

    cand = build_candidates(["x"], Stray(), catalog, "nothing here", [])
    assert cand.stages == frozenset()


def test_build_candidates_ignores_below_threshold(catalog):
    model = fit([("alpha beta gamma", "head")])
    cand = build_candidates(["alpha zzz yyy"], model, catalog, "no names", [])
    assert cand.stages == frozenset()


# --- example selection -------------------------------------------------------------


def _cands(*names: str) -> CandidateSet:
    return CandidateSet(stages=frozenset(names), provenance={})


def test_select_examples_filters_to_candidate_mentions():
    bank = [
        FewShotExample("a", ("head",)),
        FewShotExample("b", ("switch",)),
        FewShotExample("c", ("join", "head")),
    ]
    prompts = stage_prompts(make_catalog(), bank=bank)
    assert select_examples(_cands("head"), prompts) == [bank[0], bank[2]]
    assert select_examples(_cands("sql_server"), prompts) == []


def test_select_examples_round_robin_over_cap():
    A = [FewShotExample(f"a{i}", ("alpha",)) for i in range(4)]
    B = [FewShotExample(f"b{i}", ("beta",)) for i in range(2)]
    bank = [A[0], A[1], A[2], B[0], A[3], B[1]]
    # round 1 picks a0 and b0, round 2 picks a1; output restores bank order
    prompts = stage_prompts(make_catalog(), bank=bank)
    chosen = select_examples(_cands("alpha", "beta"), prompts, cap=3)
    assert chosen == [A[0], A[1], B[0]]


def test_select_examples_cap_covers_every_candidate():
    bank = [FewShotExample(f"a{i}", ("alpha",)) for i in range(30)]
    bank += [FewShotExample("b", ("beta",))]
    prompts = stage_prompts(make_catalog(), bank=bank)
    chosen = select_examples(_cands("alpha", "beta"), prompts, cap=5)
    assert len(chosen) == 5
    assert any("beta" in ex.operators for ex in chosen)
    names = [ex.utterance for ex in chosen]
    assert names == sorted(names, key=lambda u: [ex.utterance for ex in bank].index(u))


def scan_every_example(candidates, bank, cap):
    """``select_examples`` without its index: every example tested against the candidates."""
    matching = [ex for ex in bank if candidates.stages.intersection(ex.operators)]
    if len(matching) <= cap:
        return matching
    chosen: set[int] = set()
    per_stage = {
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


# "s5" and "s6" are in no example; an example may name a stage twice
bank_stages = st.sampled_from(["s0", "s1", "s2", "s3", "s4"])
candidate_stages = st.sets(st.sampled_from(["s0", "s1", "s2", "s3", "s4", "s5", "s6"]), max_size=5)
banks = st.lists(st.lists(bank_stages, min_size=1, max_size=4), max_size=30).map(
    lambda answers: [FewShotExample(f"u{i}", tuple(ops)) for i, ops in enumerate(answers)]
)


@settings(max_examples=300, deadline=None)
@given(bank=banks, stages=candidate_stages, offset=st.integers(-6, 2))
@example(
    bank=[FewShotExample(f"u{i}", ops) for i, ops in enumerate(
        [("s0", "s0"), ("s1",), ("s0", "s1"), ("s2",), ("s0",), ("s1", "s0"), ("s2",)]
    )],
    stages={"s0", "s1", "s2", "s5"},
    offset=-2,
)
def test_select_examples_from_the_index_equals_the_bank_scan(bank, stages, offset):
    candidates = _cands(*stages)
    matches = len(scan_every_example(candidates, bank, len(bank)))
    # the cap is below, at or above the number of matches
    cap = max(0, matches + offset)
    chosen = select_examples(candidates, stage_prompts(make_catalog(), bank=bank), cap)
    assert chosen == scan_every_example(candidates, bank, cap)


def test_example_positions_list_each_stage_once_per_example():
    bank = [
        FewShotExample("a", ("head", "head")),
        FewShotExample("b", ("join",)),
        FewShotExample("c", ("join", "head")),
    ]
    assert example_positions(bank) == {"head": (0, 2), "join": (1, 2)}


def test_default_limits():
    assert DEFAULT_EXAMPLE_CAP == 40
    assert DEFAULT_MAX_STEPS == 8


# --- single-prompt strategy --------------------------------------------------------


def test_predict_single_answers_and_counts_tokens(catalog):
    bank = [FewShotExample("first rows", ("head",))]
    provider = scripted(("Context:", '"head, join"'))
    listing = stage_prompts(catalog, bank=bank).listing()
    pred = predict_single("u", catalog, listing, provider, [])
    assert pred.stages == ["head", "join"]
    assert usage(pred.trace)["requests"] == 1
    expected = render_stage_prompt(catalog, None, bank, "u").token_estimate
    assert pred.stage_prompt_tokens == expected == usage(pred.trace)["prompt_tokens"]


def test_predict_single_keeps_duplicates_and_drops_unknown(catalog):
    provider = scripted(("Context:", '"head, head, bogus"'))
    listing = stage_prompts(catalog).listing()
    pred = predict_single("u", catalog, listing, provider, [])
    assert pred.stages == ["head", "head"]
    assert {"event": "dropped_names", "names": ["bogus"]} in pred.trace


# --- classifier-scoped strategy ----------------------------------------------------


def test_predict_cag_scopes_context_and_examples(catalog):
    model = fit([("first rows", "head"), ("combine data", "join")])
    bank = [
        FewShotExample("first rows", ("head",)),
        FewShotExample("route it", ("switch",)),
    ]
    provider = scripted(
        ("Sub-utterances:", "- first rows\n- combine data"),
        ("Context:", '"head, join"'),
    )
    pred = predict_cag("first rows then combine data", catalog, model, bank, provider)
    assert pred.stages == ["head", "join"]
    assert usage(pred.trace)["requests"] == 2  # decompose + one scoped stage prompt
    # the scoped prompt is strictly smaller than the full listing would be
    full = render_stage_prompt(catalog, None, bank, "first rows then combine data")
    assert 0 < pred.stage_prompt_tokens < full.token_estimate


def test_predict_cag_verifies_against_candidates_not_catalog(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(
        ("Sub-utterances:", "- first rows"),
        ("Context:", '"head, switch"'),  # switch is a real stage but not a candidate
    )
    pred = predict_cag("first rows", catalog, model, [], provider)
    assert pred.stages == ["head"]
    assert {"event": "dropped_names", "names": ["switch"]} in pred.trace


def test_predict_cag_empty_candidates_short_circuits(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(("Sub-utterances:", "- zzz qqq"))
    pred = predict_cag("zzz qqq", catalog, model, [], provider)
    assert pred.stages == [] and pred.stage_prompt_tokens == 0
    assert usage(pred.trace)["requests"] == 1  # nothing after decomposition
    assert {"event": "empty_candidates"} in pred.trace


@settings(max_examples=40, deadline=None)
@given(
    answer=st.lists(
        st.sampled_from(["head", "join", "switch", "sql_server", "ghost", "blob"]),
        min_size=1,
        max_size=6,
    )
)
def test_predict_cag_output_is_subset_of_candidates(answer):
    catalog = make_catalog(
        make_stage("head"), make_stage("join"), make_stage("switch"), make_stage("sql_server")
    )
    model = fit([("first rows", "head"), ("combine data", "join")])
    provider = scripted(
        ("Sub-utterances:", "- first rows\n- combine data"),
        ("Context:", f'"{", ".join(answer)}"'),
    )
    pred = predict_cag("first rows then combine data", catalog, model, [], provider)
    cand = build_candidates(
        ["first rows", "combine data"],
        model,
        catalog,
        "first rows then combine data",
        [],
    )
    assert set(pred.stages) <= set(cand.stages)
    assert pred.stages == [name for name in answer if name in cand.stages]

# --- cag prompts, counted once per runtime -----------------------------------------

# (prompt_sha256:prompt_tokens) of the decompose and stage-selection calls of
# each utterance in synthetic_utterances.json, as the cag strategy rendered
# them before its static prompt text was counted once per runtime
PINNED_CAG_CALLS = [
    ("486261555255bf7b:189", "bf1da7dd1f12c39a:297"),
    ("5f9c2e4bbb20aaea:206", "4ae86c941500ef7c:551"),
    ("8a1f1003995eab6e:225", "09ef5f0081e1bff1:782"),
    ("0e4ec4ab4f8a548e:208", "33f36e784e12c409:535"),
    ("1327cb39c7b985e5:187", "aacf71b63f6766a6:340"),
    ("f32a6c36a9a8a7cc:206", "954efd98c885d369:511"),
    ("d839e255933505d2:223", "fca00df3838e7d68:778"),
    ("96f4c3c32bbdf9a2:206", "04ca9e54ebca78de:510"),
    ("6a31a57202843008:187", "d947b677adbd8cad:368"),
    ("9ba7d076531f0672:208", "39ec3ac4da731d23:507"),
    ("bf3291ffc7871d00:225", "e348302efb3ed8ff:751"),
    ("c7eb82b04f8a73ec:205", "4f1cb0d520156dee:526"),
    ("2573cb1ca60c103d:188", "b67a89fae4769510:367"),
    ("ccea7855562c8b33:210", "b5225195fddd969f:567"),
    ("997b30b4ee50d8eb:225", "eae2d1733c0f6794:755"),
    ("2612dca5dd7e5408:213", "7f0938bd6a462eb8:546"),
    ("679ba66f44819296:190", "2fb592be62c0b66b:348"),
    ("70b1b0d4422aced8:207", "a7537d05dfef9909:514"),
    ("f51b2e16d08df9c9:223", "57f6724d71f72e9f:744"),
    ("00905b696e3910a6:206", "16903b3cbe12ec46:777"),
]


# synthetic_cag_digest() as the cag strategy gave it before the stage prompt's
# pieces were counted when the runtime is built
SYNTHETIC_CAG_DIGEST = "7ff10b1ce60091894b02172f17647ef88b5d4039a5d283d016b0c02f09f8a176"


def _synthetic_cag_runtime():
    from flowgen.pipeline import PipelineConfig, build_runtime

    return build_runtime(
        PipelineConfig(
            catalog_path=fixture_path("synthetic_catalog.json"),
            examples_path=fixture_path("synthetic_bank.json"),
            classifier_path=fixture_path("synthetic_training_pairs.json"),
            registry_path=None,
            mock_scripts_path=fixture_path("mock_scripts_synthetic.json"),
        )
    )


def test_cag_prompts_are_pinned_and_counted_exactly():
    from flowgen.pipeline import predict_stages

    rt = _synthetic_cag_runtime()
    rt.provider = recording = RecordingProvider(rt.provider)
    cfg = rt.cfg
    records = json.loads(fixture_path("synthetic_utterances.json").read_text(encoding="utf-8"))
    assert len(records) == len(PINNED_CAG_CALLS)
    for record, pinned in zip(records, PINNED_CAG_CALLS):
        utterance = record["utterance"]
        # the runtime's counted prompts, and the positional call that counts on the spot
        runs = [
            predict_stages(utterance, rt),
            predict_cag(
                utterance, rt.catalog, rt.classifier, rt.bank, rt.provider,
                cfg.family, rt.split_examples, cfg.example_cap,
            ),
        ]
        for prediction in runs:
            calls = [e for e in prediction.trace if e["event"] == "llm_call"]
            assert [c["purpose"] for c in calls] == ["decompose", "stage_selection"]
            assert tuple(f"{c['prompt_sha256']}:{c['prompt_tokens']}" for c in calls) == pinned
            assert prediction.stages == record["gold_stages"]
    assert len(recording.prompts) == 4 * len(records)
    for prompt in recording.prompts:
        assert prompt.token_estimate == count_tokens(prompt.text)


def synthetic_cag_digest() -> str:
    """SHA-256 over each synthetic record's predicted stages and its calls' purpose, tokens and hash."""
    from flowgen.pipeline import predict_stages

    rt = _synthetic_cag_runtime()
    records = json.loads(fixture_path("synthetic_utterances.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for record in records:
        prediction = predict_stages(record["utterance"], rt)
        calls = [
            [c["purpose"], c["prompt_tokens"], c["completion_tokens"], c["prompt_sha256"]]
            for c in prediction.trace if c["event"] == "llm_call"
        ]
        digest.update(json.dumps([prediction.stages, calls]).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_the_synthetic_corpus_cag_calls_are_pinned():
    assert synthetic_cag_digest() == SYNTHETIC_CAG_DIGEST


# text that starts and ends with a letter, a digit or a punctuation mark, so
# that every join of the prompt's parts puts such a mark next to a newline
_ENDS = st.sampled_from([*"aZ09", *".,:;_\"'-!?()/"])
phrases = st.builds(
    lambda first, middle, last: first + middle + last,
    _ENDS,
    st.text(alphabet=[*"aZ09 .,:_-\n", "\u00e9"], max_size=10),
    _ENDS,
)


def _expected_stage_prompt(family, lines, blocks, utterance):
    """The stage prompt by plain substitution into the template file."""
    raw = fixture_path("templates", f"{family}_stage.txt").read_text(encoding="utf-8")
    text = raw.removesuffix("\n").replace("{{context}}", "\n".join(lines))
    text = text.replace("{{examples}}", "\n\n".join(blocks)).replace("{{utterance}}", utterance)
    return text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counted_prompt_parts_add_up_exactly(data):
    family = data.draw(st.sampled_from(["granite", "llama"]))
    descriptions = data.draw(st.lists(phrases, min_size=1, max_size=5))
    catalog = make_catalog(*(make_stage(f"s{i}", d) for i, d in enumerate(descriptions)))
    names = sorted(catalog.stages)
    operators = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple)
    bank = data.draw(st.lists(st.builds(FewShotExample, phrases, operators), max_size=5))
    splits = data.draw(
        st.lists(st.tuples(phrases, st.lists(phrases, max_size=3).map(tuple)), max_size=3)
    )
    utterance = data.draw(phrases)
    prompts = stage_prompts(catalog, splits, family)

    # the second render finds some pieces counted by the first
    for _ in range(2):
        candidates = data.draw(st.none() | st.sets(st.sampled_from(names)))
        examples = [ex for ex in bank if data.draw(st.booleans())]
        prompt = render_stage_prompt(catalog, candidates, examples, utterance, family, prompts)
        shown = names if candidates is None else sorted(candidates)
        lines = [f'"{n}": {catalog.stages[n].description}' for n in shown]
        blocks = [f'Utterance: {ex.utterance}\nOperators: "{", ".join(ex.operators)}"' for ex in examples]
        assert prompt.text == _expected_stage_prompt(family, lines, blocks, utterance)
        assert prompt.token_estimate == count_tokens(prompt.text)

    decomposed = render_prompt(prompts.decompose, {"utterance": utterance})
    assert decomposed.token_estimate == count_tokens(decomposed.text)
    for split_utterance, _ in splits:
        assert f"Utterance: {split_utterance}\nSub-utterances:\n" in decomposed.text


@functools.cache
def corpus_prompts(corpus: str, family: str):
    """A bundled corpus's catalog, and its stage prompts with its bank held in them."""
    catalog = load_catalog(fixture_path(f"{corpus}_catalog.json"))
    bank = load_examples(fixture_path(f"{corpus}_bank.json"), catalog)
    return catalog, stage_prompts(catalog, family=family, bank=bank)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_pass_stage_prompt_equals_the_two_step_render(data):
    corpus = data.draw(st.sampled_from(["demo", "synthetic"]))
    family = data.draw(st.sampled_from(FAMILIES))
    catalog, prompts = corpus_prompts(corpus, family)
    stages, bank = catalog.stages, prompts.bank
    candidates = data.draw(st.none() | st.sets(st.sampled_from(sorted(stages)), max_size=6))
    chosen = data.draw(st.lists(st.sampled_from(range(len(bank))), unique=True, max_size=6))
    examples = [bank[i] for i in sorted(chosen)]
    utterance = data.draw(phrases | st.sampled_from(["", " ", "x"]))

    prompt = render_stage_prompt(catalog, candidates, examples, utterance, family, prompts)
    # the same parts, bound first into a template of their own and counted as plain text
    shown = sorted(stages if candidates is None else candidates)
    lines = [f'"{n}": {stages[n].description}' for n in shown]
    blocks = [f'Utterance: {ex.utterance}\nOperators: "{", ".join(ex.operators)}"' for ex in examples]
    listing = bind(prompts.stage, {"context": "\n".join(lines), "examples": "\n\n".join(blocks)})
    two_step = render_prompt(listing, {"utterance": utterance})
    assert (prompt.text, prompt.token_estimate, prompt.sha256) == (
        two_step.text, two_step.token_estimate, two_step.sha256
    )
    assert prompt.sha256 == hashlib.sha256(prompt.text.encode("utf-8")).hexdigest()[:16]


# --- agentic strategy --------------------------------------------------------------


def test_predict_agentic_multi_turn_transcript(catalog):
    model = fit([("first rows", "head"), ("combine data", "join")])
    provider = scripted(
        # matched latest-turn-first; the bare utterance cue must come last
        ("CALL classify: zzz\nRESULT: no match", 'FINAL: "head, join"'),
        ("CALL classify: first rows\nRESULT: head", "CALL classify: zzz"),
        ("Utterance:", "CALL classify: first rows"),
    )
    pred = predict_agentic("u", catalog, model, provider, [])
    assert pred.stages == ["head", "join"]
    assert usage(pred.trace)["requests"] == 3
    calls = [e for e in pred.trace if e["event"] == "classify_call"]
    assert [(c["text"], c["result"]) for c in calls] == [
        ("first rows", "head"),
        ("zzz", "no match"),
    ]
    assert pred.trace[-1] == {"event": "final", "answer": '"head, join"'}


def test_predict_agentic_final_verified_against_catalog(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(("Utterance:", 'FINAL: "head, bogus"'))
    pred = predict_agentic("u", catalog, model, provider, [])
    assert pred.stages == ["head"]
    assert {"event": "dropped_names", "names": ["bogus"]} in pred.trace


def test_predict_agentic_appends_free_form_replies(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(
        ("let me think", 'FINAL: "head"'),
        ("Utterance:", "let me think"),
    )
    pred = predict_agentic("u", catalog, model, provider, [])
    assert pred.stages == ["head"] and usage(pred.trace)["requests"] == 2


def test_predict_agentic_protocol_violation_at_step_cap(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(("Utterance:", "CALL classify: loop"))
    with pytest.raises(ProtocolViolation) as err:
        predict_agentic("u", catalog, model, provider, [])
    # one CALL line and one RESULT line per step
    assert len(err.value.transcript) == 2 * DEFAULT_MAX_STEPS == 16
    assert err.value.transcript[0] == "CALL classify: loop"
    assert err.value.transcript[1] == "RESULT: no match"


def test_predict_agentic_best_effort_answer_at_cap(catalog):
    model = fit([("first rows", "head")])
    provider = scripted(("Utterance:", '"head, join"'))  # neither CALL nor FINAL
    pred = predict_agentic("u", catalog, model, provider, [])
    assert pred.stages == ["head", "join"]
    assert usage(pred.trace)["requests"] == DEFAULT_MAX_STEPS == 8
    assert any(e["event"] == "best_effort_final" for e in pred.trace)
