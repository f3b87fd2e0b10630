"""Prompt templates, token estimation, answer parsing, and providers."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import Endpoint, Reply, record_timeouts
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
    _TOKEN_RE,
    _merges,
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


ASCII_TEXT = st.text(alphabet=st.characters(max_codepoint=127), max_size=60)


def test_count_tokens_matches_the_regex_on_every_ascii_pair():
    # every class of a character and every join of two: start, run, mark, space
    pairs = [chr(a) + chr(b) for a in range(128) for b in range(128)]
    mismatched = [t for t in pairs
                  if not count_tokens(t) == len(_TOKEN_RE.findall(t)) == per_character_count(t)]
    assert len(pairs) == 16384 and mismatched == []


@given(ASCII_TEXT)
def test_count_tokens_matches_the_regex_on_ascii_text(text):
    assert count_tokens(text) == len(_TOKEN_RE.findall(text)) == per_character_count(text)


@given(st.one_of(ASCII_TEXT, MIXED_TEXT), st.one_of(ASCII_TEXT, MIXED_TEXT))
def test_count_tokens_join_rule(a, b):
    # what bind and render_prompt rely on, also where ASCII text meets text that is not
    joined = count_tokens(a) + count_tokens(b) - (bool(a and b) and _merges(a, b))
    assert count_tokens(a + b) == joined


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


def test_http_provider_parses_usage_and_choice_shapes(http_endpoint, monkeypatch):
    http_endpoint.replies.append(
        Reply(200, json.dumps({
            "choices": [{"text": "answer"}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 2},
        }))
    )
    provider = provider_from_env({"LLM_ENDPOINT": http_endpoint.url + "/v1", "LLM_API_KEY": "k"})
    timeouts = record_timeouts(monkeypatch)
    trace: list[dict] = []
    assert complete(provider, prompt_of("ping"), trace, "decompose") == "answer"
    assert timeouts == [60.0]
    # the reported usage is not read: both counts are flowgen's estimates
    assert (trace[0]["prompt_tokens"], trace[0]["completion_tokens"]) == (1, 1)
    (seen,) = http_endpoint.seen
    assert seen.path == "/v1" and seen.body["prompt"] == "ping"
    assert seen.headers["Authorization"] == "Bearer k"
    assert seen.headers["Content-Type"] == "application/json"


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
def test_http_provider_wraps_malformed_bodies(http_endpoint, body, message):
    http_endpoint.replies.append(Reply(200, json.dumps(body)))
    provider = provider_from_env({"LLM_ENDPOINT": http_endpoint.url})
    with pytest.raises(ProviderError, match=message):
        provider.complete(prompt_of("ping"), PARAMS)


def test_http_provider_surfaces_client_errors_without_retry(http_endpoint):
    http_endpoint.replies.append(Reply(400, "bad request"))
    provider = provider_from_env({"LLM_ENDPOINT": http_endpoint.url})
    with pytest.raises(ProviderError, match=r"rejected \(400\): bad request"):
        provider.complete(prompt_of("ping"), PARAMS)
    assert len(http_endpoint.seen) == 1


def test_http_provider_retries_server_errors(http_endpoint, monkeypatch):
    http_endpoint.replies += [Reply(500, "boom"), Reply(200, '{"text": "ok"}')]
    sleeps = []
    monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
    provider = provider_from_env({"LLM_ENDPOINT": http_endpoint.url})
    assert provider.complete(prompt_of("ping"), PARAMS) == "ok"
    assert len(http_endpoint.seen) == 2 and sleeps == [0.2]


@pytest.mark.parametrize(
    "reply, timeout, message",
    [
        pytest.param(Reply(503, "busy"), 5.0, "server error 503", id="server-error"),
        # the reply promises more bytes than it sends, then the connection closes
        pytest.param(Reply(200, '{"te', length=100), 5.0, r"IncompleteRead\(4 bytes read", id="truncated"),
        pytest.param(Reply(200, "{}", delay=5.0), 0.05, "timed out", id="timeout"),
    ],
)
def test_post_json_tries_three_times_then_gives_up(http_endpoint, monkeypatch, reply, timeout, message):
    http_endpoint.answer = lambda body: reply
    sleeps = []
    monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
    with pytest.raises(ProviderError, match=f"failed after 3 attempts: {message}"):
        post_json(http_endpoint.url, {"n": 1}, timeout=timeout)
    assert [seen.body for seen in http_endpoint.seen] == [{"n": 1}] * 3
    assert sleeps == [0.2, 0.4]


def test_post_json_retries_transport_errors_then_gives_up(http_endpoint, monkeypatch):
    http_endpoint.close()  # nothing listens on its port now
    timeouts, sleeps = record_timeouts(monkeypatch), []
    monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
    with pytest.raises(ProviderError, match=r"failed after 3 attempts: \[Errno \d+\] Connection refused"):
        post_json(http_endpoint.url, {}, timeout=5.0)
    assert timeouts == [5.0] * 3 and sleeps == [0.2, 0.4]


def test_post_json_rejects_a_non_json_body_without_retry(http_endpoint):
    http_endpoint.answer = lambda body: Reply(200, "<html>bad gateway</html>")
    with pytest.raises(ProviderError, match="non-JSON response .*'<html>bad gateway</html>'"):
        post_json(http_endpoint.url, {}, timeout=5.0)
    assert len(http_endpoint.seen) == 1


@pytest.mark.parametrize("url", ["file://{}", "{}", "ftp://llm.local/v1", "http:///v1"])
def test_post_json_sends_only_to_http_urls(monkeypatch, tmp_path, url):
    # urlopen would answer a file: URL with the file's bytes, as if it were a reply
    reply = tmp_path / "reply.json"
    reply.write_text('{"text": "read from disk"}', encoding="utf-8")
    url = url.format(reply)
    sleeps = []
    monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
    monkeypatch.setattr(
        "urllib.request.OpenerDirector.open", lambda *a, **k: pytest.fail("a request went out")
    )
    with pytest.raises(ProviderError, match="is not an http or https URL"):
        post_json(url, {}, timeout=5.0)
    assert sleeps == []


def test_post_json_rejects_a_header_it_cannot_send_without_retry(http_endpoint):
    with pytest.raises(ProviderError, match="cannot be sent: Invalid header value"):
        post_json(http_endpoint.url, {}, timeout=5.0, headers={"Authorization": "Bearer k\r\nX-Evil: 1"})
    assert http_endpoint.seen == []


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_post_json_follows_no_redirect(http_endpoint, monkeypatch, status):
    # a followed redirect would carry the Authorization header to the host it names
    elsewhere = Endpoint()
    try:
        http_endpoint.answer = lambda body: Reply(status, "moved", location=elsewhere.url + "/v1")
        sleeps = []
        monkeypatch.setattr("flowgen.llm.time.sleep", sleeps.append)
        with pytest.raises(ProviderError, match=rf"rejected \({status}\): moved"):
            post_json(http_endpoint.url, {}, timeout=5.0, headers={"Authorization": "Bearer k"})
        assert len(http_endpoint.seen) == 1 and elsewhere.seen == [] and sleeps == []
    finally:
        elsewhere.close()
