"""Prompt templates, token estimation, answer parsing, and providers."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FakeResponse
from flowgen import InputError
from flowgen.llm import (
    CompletionParams,
    FAMILY_PRESEED,
    MockProvider,
    MockScript,
    AnswerError,
    NoScriptMatchError,
    ProviderError,
    RenderedPrompt,
    TemplateError,
    answer_pairs,
    bind,
    complete,
    count_tokens,
    counted,
    load_mock_scripts,
    load_template,
    parse_operator_list,
    parse_template,
    post_json,
    provider_from_env,
    render_prompt,
)

PARAMS = CompletionParams()


# --- token estimation -------------------------------------------------------------


def test_count_tokens_examples():
    assert count_tokens("sort on age") == 3
    assert count_tokens("") == 0
    assert count_tokens("a.b,c") == 5
    assert count_tokens("   ") == 0
    assert count_tokens("full_name") == 3  # two runs plus the underscore
    assert count_tokens("ORDERS-1 (table)") == 6


@given(st.text(max_size=40), st.text(max_size=40))
def test_count_tokens_is_additive_across_a_space(a, b):
    assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=80))
def test_count_tokens_zero_only_for_whitespace_within_ascii(text):
    estimate = count_tokens(text)
    assert estimate >= 0
    assert (estimate == 0) == (text.strip() == "")


def test_count_tokens_ignores_nonascii_alphanumerics():
    # unicode alphanumerics are neither runs nor punctuation to the estimator
    assert count_tokens("²") == 0


def per_character_count(text: str) -> int:
    """The estimate's definition, one character at a time: the reference for count_tokens."""
    runs, in_run, marks = 0, False, 0
    for ch in text:
        ascii_alnum = ch.isascii() and ch.isalnum()
        runs += ascii_alnum and not in_run
        in_run = ascii_alnum
        marks += not ch.isspace() and not ch.isalnum()
    return runs + marks


def test_count_tokens_matches_reference_on_every_code_point():
    mismatched = [cp for cp in range(sys.maxunicode + 1)
                  if count_tokens(chr(cp)) != per_character_count(chr(cp))]
    assert mismatched == []


MIXED_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("_aZ09 \t\n.,-\"'é²ß٣\u00a0"), st.characters()),
    max_size=60,
)


@given(MIXED_TEXT)
def test_count_tokens_matches_reference(text):
    assert count_tokens(text) == per_character_count(text)


# --- templates ---------------------------------------------------------------------


def test_placeholders_substitute_in_order():
    template = parse_template("A {{x}} B {{y}} C {{x}}")
    rendered = render_prompt(template, {"x": "1", "y": "2"})
    assert rendered.text == "A 1 B 2 C 1"
    assert rendered.token_estimate == count_tokens(rendered.text)


def test_unbound_placeholder_is_an_error():
    template = parse_template("hello {{name}}")
    with pytest.raises(TemplateError, match="name"):
        render_prompt(template, {})


def test_extra_bindings_are_ignored():
    template = parse_template("static text")
    assert render_prompt(template, {"unused": "x"}).text == "static text"


def test_preseed_appends_after_rendered_text():
    template = parse_template("Operators: ", preseed=FAMILY_PRESEED["llama"])
    assert render_prompt(template, {}).text == 'Operators: "'


# pieces that often start or end with an ASCII alphanumeric, so joins merge runs;
# no "}", so no piece can close a placeholder of its own
PIECES = st.text(alphabet=st.sampled_from("aZ7_ .,\n\"é{"), max_size=6)
SLOT_NAMES = ("x", "y", "z")


@st.composite
def templates(draw):
    parts = draw(st.lists(st.one_of(PIECES, st.sampled_from(SLOT_NAMES)), max_size=8))
    text = "".join("{{%s}}" % p if p in SLOT_NAMES else p for p in parts)
    preseed = draw(st.none() | PIECES)
    values = {name: draw(PIECES) for name in SLOT_NAMES}  # empty values included
    expected = "".join(values[p] if p in SLOT_NAMES else p for p in parts) + (preseed or "")
    return parse_template(text, preseed=preseed), values, expected


@given(templates())
@example((parse_template("a{{x}}{{y}}b", preseed="c"), {"x": "1", "y": "", "z": ""}, "a1bc"))
@example((parse_template("{{x}}{{y}}"), {"x": "", "y": "", "z": ""}, ""))
def test_render_estimate_matches_count_of_rendered_text(case):
    template, values, expected = case
    rendered = render_prompt(template, values)
    assert rendered.text == expected
    assert rendered.token_estimate == count_tokens(expected)


@given(templates())
def test_render_takes_a_counted_value_as_its_string(case):
    template, values, _ = case
    assert render_prompt(template, {n: counted(v) for n, v in values.items()}) == render_prompt(
        template, values
    )


@given(templates(), st.sets(st.sampled_from(SLOT_NAMES)))
def test_bind_then_render_matches_render(case, first):
    template, values, expected = case
    partial = bind(template, {name: values[name] for name in first})
    rendered = render_prompt(partial, {n: v for n, v in values.items() if n not in first})
    assert rendered == render_prompt(template, values)
    assert rendered.token_estimate == count_tokens(expected)


# any value UTF-8 can encode, so most are non-ASCII
VALUES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def sha256_16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@given(
    templates(),
    st.lists(st.fixed_dictionaries({n: VALUES for n in SLOT_NAMES}), min_size=2, max_size=2),
    st.sets(st.sampled_from(SLOT_NAMES)),
)
@example((parse_template(""), {}, ""), [{"x": "", "y": "", "z": ""}] * 2, set())
@example((parse_template("{{x}} é"), {}, ""), [{"x": "\u0130", "y": "", "z": ""}] * 2, {"y"})
def test_prompt_digest_is_the_sha256_of_its_text(case, renders, first):
    template, _, _ = case
    # a second render of a template, or of a partial binding of it, reuses its hashed lead
    for values in renders:
        partial = bind(template, {name: values[name] for name in first})
        for rendered in (
            render_prompt(template, values),
            render_prompt(partial, {n: v for n, v in values.items() if n not in first}),
        ):
            assert rendered.sha256 == sha256_16(rendered.text)
            trace: list[dict] = []
            complete(MockProvider([MockScript("contains", "", "ok")]), rendered, trace, "decompose")
            assert trace[0]["prompt_sha256"] == rendered.sha256


def test_bind_leaves_other_slots_open():
    partial = bind(parse_template("{{x}} and {{y}}"), {"x": "1"})
    with pytest.raises(TemplateError, match="'y'"):
        render_prompt(partial, {})
    assert render_prompt(partial, {"y": "2"}).text == "1 and 2"


def test_load_template_drops_one_trailing_newline(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("line {{x}}\n")
    template = load_template(path)
    assert render_prompt(template, {"x": "1"}).text == "line 1"


# --- operator answers -----------------------------------------------------------------


def test_operator_list_strips_quotes_and_lowercases():
    assert parse_operator_list('"Teradata, Sort, Filter"') == ["teradata", "sort", "filter"]


def test_operator_list_handles_preseeded_answer_missing_open_quote():
    assert parse_operator_list('tail"') == ["tail"]


def test_operator_list_keeps_duplicates_in_order():
    assert parse_operator_list('"head, tail, head"') == ["head", "tail", "head"]


def test_operator_list_empty_answers():
    assert parse_operator_list('""') == []
    assert parse_operator_list("   ") == []


def test_operator_list_skips_empty_pieces():
    assert parse_operator_list('"a,, b,"') == ["a", "b"]


def test_operator_list_rejects_nonalnum_garbage():
    with pytest.raises(AnswerError, match="no alphanumeric content in operator answer '!!!'"):
        parse_operator_list("!!!")


# --- line answers ------------------------------------------------------------------


def old_segments(answer: str, known: set[str]) -> dict[str, str]:
    """The segmentation answer loop ``answer_pairs`` replaced; the oracle."""
    segments: dict[str, str] = {}
    for line in answer.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        name, _, span = line.partition(":")
        name, span = name.strip(), span.strip()
        if name in known:
            segments[name] = span
    return segments


def old_edges(answer: str) -> list[tuple[str, str]]:
    """The edge answer loop ``answer_pairs`` replaced; the oracle."""
    parsed: list[tuple[str, str]] = []
    for line in answer.splitlines():
        if "->" not in line:
            continue
        src, _, dst = line.partition("->")
        parsed.append((src.strip(), dst.strip()))
    return parsed


def old_properties(answer: str) -> list[tuple[str, str]]:
    """The property answer loop ``answer_pairs`` replaced, as ``(name, value)``; the oracle."""
    out: list[tuple[str, str]] = []
    for line in answer.splitlines():
        if "=" not in line:
            continue
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if name:
            out.append((name, value))
    return out


# every line boundary of str.splitlines, \n included
LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
answers = st.lists(
    st.sampled_from([":", "-", ">", "=", "->", "a", "b", "c", " ", "\t", *LINE_BREAKS])
).map("".join)


@settings(max_examples=500)
@given(answers, st.sets(st.sampled_from(["a", "b", "a b", "", "c"])))
@example("a: x\na: y\r\nb :\x85c", {"a", "b"})
def test_answer_pairs_reads_as_the_loops_it_replaced(answer, known):
    pairs = answer_pairs(answer, ":")
    assert {name: span for name, span in pairs if name in known} == old_segments(answer, known)
    assert answer_pairs(answer, "->") == old_edges(answer)
    assert [(n, v) for n, v in answer_pairs(answer, "=") if n] == old_properties(answer)


def test_answer_pairs_splits_at_the_first_separator():
    assert answer_pairs("a -> b -> c", "->") == [("a", "b -> c")]
    assert answer_pairs("Mode = x = y", "=") == [("Mode", "x = y")]


# --- mock provider ---------------------------------------------------------------------


def prompt_of(text: str) -> RenderedPrompt:
    return RenderedPrompt(text=text, token_estimate=count_tokens(text), sha256=sha256_16(text))


def test_first_matching_script_wins():
    provider = MockProvider(
        scripts=[
            MockScript("contains", "alpha", "first"),
            MockScript("contains", "alpha beta", "second"),
        ]
    )
    assert provider.complete(prompt_of("alpha beta"), PARAMS) == "first"


def test_exact_requires_full_equality():
    provider = MockProvider(scripts=[MockScript("exact", "alpha", "hit")])
    assert provider.complete(prompt_of("alpha"), PARAMS) == "hit"
    with pytest.raises(NoScriptMatchError):
        provider.complete(prompt_of("alpha beta"), PARAMS)


def test_default_token_accounting_uses_estimates():
    provider = MockProvider(scripts=[MockScript("contains", "x", "two words")])
    trace: list[dict] = []
    assert complete(provider, prompt_of("x y z"), trace, "decompose") == "two words"
    assert (trace[0]["prompt_tokens"], trace[0]["completion_tokens"]) == (3, 2)


def test_no_match_error_lists_the_scripts_tried():
    provider = MockProvider(scripts=[MockScript("contains", "needle", "r")])
    with pytest.raises(NoScriptMatchError, match="needle"):
        provider.complete(prompt_of("haystack"), PARAMS)


def test_load_mock_scripts_round_trip(tmp_path):
    path = tmp_path / "scripts.json"
    path.write_text(
        json.dumps(
            [
                {"match": {"exact": "p"}, "response": "r"},
                {"match": {"contains": "q"}, "response": "s"},
            ]
        )
    )
    provider = load_mock_scripts(path)
    assert provider.complete(prompt_of("p"), PARAMS) == "r"
    assert provider.complete(prompt_of("a q b"), PARAMS) == "s"


def test_load_mock_scripts_rejects_bad_shapes(tmp_path):
    path = tmp_path / "scripts.json"
    for doc, message in [
        ({"match": {}}, "array"),
        ([{"match": {"exact": "x", "contains": "y"}, "response": "r"}], "script 0"),
        ([{"match": {"regex": "x"}, "response": "r"}], "unknown matcher"),
        ([{"response": "r"}], "needs match"),
    ]:
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=message):
            load_mock_scripts(path)


# --- HTTP provider ------------------------------------------------------------------


def test_provider_from_env_requires_endpoint():
    with pytest.raises(ProviderError, match="LLM_ENDPOINT"):
        provider_from_env({})
    provider = provider_from_env(
        {"LLM_ENDPOINT": "http://llm.local", "LLM_MODEL": "m", "LLM_API_KEY": "k"}
    )
    assert provider.endpoint == "http://llm.local"
    assert provider.model == "m" and provider.api_key == "k"


def test_http_provider_parses_usage_and_choice_shapes(monkeypatch):
    class FakeResponse:
        status_code = 200

        def json(self):
            return {
                "choices": [{"text": "answer"}],
                "usage": {"prompt_tokens": 10, "completion_tokens": 2},
            }

    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["payload"], seen["headers"] = json, headers
        return FakeResponse()

    monkeypatch.setattr("requests.post", fake_post)
    provider = provider_from_env({"LLM_ENDPOINT": "http://llm.local", "LLM_API_KEY": "k"})
    trace: list[dict] = []
    assert complete(provider, prompt_of("ping"), trace, "decompose") == "answer"
    # the reported usage is not read: both counts are flowgen's estimates
    assert (trace[0]["prompt_tokens"], trace[0]["completion_tokens"]) == (1, 1)
    assert seen["payload"]["prompt"] == "ping"
    assert seen["headers"]["Authorization"] == "Bearer k"


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param([1, 2], "not a JSON object", id="body0"),
        pytest.param({"choices": [5]}, "carries no text", id="body1"),
        pytest.param({"choices": []}, "carries no text", id="body2"),
        pytest.param({"usage": {"prompt_tokens": 3}}, "carries no text", id="body3"),
        # chat-shaped: requests go out completions-style, so no reply is read from a message
        pytest.param({"choices": [{"message": {"content": "hi"}}]}, "carries no text", id="body6"),
    ],
)
def test_http_provider_wraps_malformed_bodies(monkeypatch, body, message):
    class FakeResponse:
        status_code = 200
        text = "body"

        def json(self):
            return body

    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
    provider = provider_from_env({"LLM_ENDPOINT": "http://llm.local"})
    with pytest.raises(ProviderError, match=message):
        provider.complete(prompt_of("ping"), PARAMS)


def test_http_provider_surfaces_client_errors_without_retry(monkeypatch):
    calls = {"n": 0}

    class FakeResponse:
        status_code = 400
        text = "bad request"

    def fake_post(*args, **kwargs):
        calls["n"] += 1
        return FakeResponse()

    monkeypatch.setattr("requests.post", fake_post)
    provider = provider_from_env({"LLM_ENDPOINT": "http://llm.local"})
    with pytest.raises(ProviderError, match="rejected"):
        provider.complete(prompt_of("ping"), PARAMS)
    assert calls["n"] == 1


def test_http_provider_retries_server_errors(monkeypatch):
    calls = {"n": 0}

    class Flaky:
        status_code = 500
        text = "boom"

    class Good:
        status_code = 200

        def json(self):
            return {"text": "ok"}

    def fake_post(*args, **kwargs):
        calls["n"] += 1
        return Flaky() if calls["n"] == 1 else Good()

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setattr("flowgen.llm.time.sleep", lambda s: None)
    provider = provider_from_env({"LLM_ENDPOINT": "http://llm.local"})
    assert provider.complete(prompt_of("ping"), PARAMS) == "ok"
    assert calls["n"] == 2


def test_post_json_retries_transport_errors_then_gives_up(monkeypatch):
    import requests

    timeouts, sleeps = [], []

    def down(url, json=None, headers=None, timeout=None):
        timeouts.append(timeout)
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr("requests.post", down)
    monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
    with pytest.raises(ProviderError, match="failed after 3 attempts: connection refused"):
        post_json("http://llm.local", {}, timeout=5.0)
    assert timeouts == [5.0] * 3 and sleeps == [0.2, 0.4]


def test_post_json_rejects_a_non_json_body_without_retry(monkeypatch):
    replies = [FakeResponse(200, "<html>bad gateway</html>")]
    monkeypatch.setattr("requests.post", lambda *a, **k: replies.pop(0))
    with pytest.raises(ProviderError, match="non-JSON response"):
        post_json("http://llm.local", {}, timeout=5.0)
    assert replies == []
