"""Prompt templates and completion providers.

Prompts differ per model family only in their fixed wrapper text: granite
prompts carry ``<|start_of_role|>...<|end_of_role|>`` delimiters and end on an
assistant cue, while llama prompts are bare text whose operator-list prompts
end with a preseeded opening quote (so the reply contains no opening quote of
its own). Both are plain data — template files with ``{{placeholder}}`` slots
— never family branches in code.

A token estimate (``count_tokens``) is defined by one regex. ASCII text is
counted through a table of class bytes derived from it, with no string per
token; other text runs the regex. A prompt's estimate and
SHA-256 are built from parts, each counted and hashed once where it is made;
``render_prompt`` joins them in one walk over the template. A template's fixed
text is counted when it is loaded, and its leading text hashed at its first
render. The stage prompt's pieces are counted when they are made: each
stage's context line when a runtime's ``stagepred.StagePrompts`` is built,
and each few-shot block when its ``stagepred.FewShotExample`` is. So a cag
stage prompt only joins counted pairs. ``count_once`` fills two caches,
each keyed by the text it counts. Pieces made from a node's stage
(segmentation lines, edge heads) are counted once per runtime, at first
use, in ``StagePrompts.tokens``, beside each stage's bound properties
template. A prompt made per call renders in one pass from a template built
once, as the cag stage prompt does from its family's template, whose
leading text is so hashed once per process; ``bind`` makes a template only
for a prompt that a runtime reuses, as the single strategy's full listing
(``StagePrompts.listing``). The utterance, each sub-utterance and each node
name are counted once per ``generate_with_runtime`` call, in that run's
cache, so no user text outlives its run. Counted text travels as a
``(text, tokens)`` pair: every step function takes its text that way, and
``bind`` and ``render_prompt`` put a pair in without counting it again. Only
``predict_stages``, ``bind``, ``render_prompt`` and ``counted`` also take a
plain string, and ``stagepred.predict_cag`` and
``stagepred.render_stage_prompt``, which can run outside a runtime.

Two providers speak the completion contract, and each returns only the
answer text: a deterministic scripted mock for offline runs and tests, and a
completions-style HTTP client for real endpoints. ``post_json`` is the one
HTTP transport, shared with the remote classifier. Every model call of the
pipeline goes through ``complete``, which appends one ``llm_call`` record to
the caller's trace, also for a call that raises; ``usage`` sums those
records, so the trace is the only token ledger.
"""

from __future__ import annotations

import json
import os
import re
import time
from functools import cached_property
from pathlib import Path
from typing import Mapping, Protocol

from . import InputError, Record, parse_json, read_json

# the builtin SHA-256, as random.py loads its hash: hashlib would load
# OpenSSL, which costs 3.5 MB of memory
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "PromptTemplate",
    "RenderedPrompt",
    "CompletionParams",
    "CompletionProvider",
    "TemplateError",
    "ProviderError",
    "NoScriptMatchError",
    "AnswerError",
    "FAMILY_PRESEED",
    "parse_template",
    "load_template",
    "bind",
    "render_prompt",
    "count_tokens",
    "counted",
    "count_once",
    "parse_operator_list",
    "answer_pairs",
    "MockScript",
    "MockProvider",
    "load_mock_scripts",
    "post_json",
    "HTTPProvider",
    "provider_from_env",
    "complete",
    "usage",
]

# the model families, each with what its operator-list prompts preseed:
# a single opening quote for llama models
FAMILY_PRESEED: dict[str, str | None] = {"granite": None, "llama": '"'}


class TemplateError(ValueError):
    pass


class ProviderError(Exception):
    pass


class NoScriptMatchError(ProviderError):
    pass


# --- templates -------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")


class PromptTemplate:
    """Fixed text and placeholder segments, each text counted once when built.

    ``segments`` holds ``("text", raw, tokens)`` and ``("slot", name, 0)``.
    No text segment is empty and no two are adjacent, so a render counts
    only its slot values.
    """

    # no __slots__: the cached ``lead`` lives in the instance __dict__
    def __init__(self, segments: tuple[tuple[str, str, int], ...]):
        self.segments = segments

    @cached_property
    def lead(self) -> tuple[int, object]:
        """The length of the leading text, which every render starts with, and its SHA-256 state.

        Hashed at the first render, so a render hashes only what follows it.
        """
        text = ""
        if self.segments and self.segments[0][0] == "text":
            text = self.segments[0][1]
        return len(text), _sha256(text.encode("utf-8"))


class RenderedPrompt(Record):
    """A prompt's text, its token estimate and ``sha256``, the first 16 hex digits of its SHA-256."""

    __slots__ = ("text", "token_estimate", "sha256")

    def __init__(self, text: str, token_estimate: int, sha256: str):
        self.text = text
        self.token_estimate = token_estimate
        self.sha256 = sha256


class CompletionParams:
    __slots__ = ("temperature", "max_tokens")

    def __init__(self, temperature: float = 0.0, max_tokens: int = 512):
        self.temperature = temperature
        self.max_tokens = max_tokens


class CompletionProvider(Protocol):
    def complete(self, prompt: RenderedPrompt, params: CompletionParams) -> str:
        """The answer text; what the provider may report about usage is not returned."""


def _merges(before: str, text: str) -> bool:
    """The join rule of ``_add_text``, which ``render_prompt`` applies too."""
    return before[-1] in _ALNUM and text[0] in _ALNUM


def _add_text(segments: list[tuple[str, str, int]], text: str, tokens: int) -> None:
    """Append counted text, merging it into a text segment that ends the list.

    The join rule: the estimate of ``a + b`` is the sum of theirs, less one
    exactly when ``a`` ends and ``b`` starts with an ASCII letter or digit,
    where two alphanumeric runs merge into one. Punctuation counts per
    character, so nothing else changes at a join. Empty text joins nothing.
    """
    if not text:
        return
    if segments and segments[-1][0] == "text":
        _, before, before_tokens = segments.pop()
        tokens += before_tokens - _merges(before, text)
        text = before + text
    segments.append(("text", text, tokens))


def parse_template(text: str, preseed: str | None = None) -> PromptTemplate:
    """Split ``{{name}}`` slots out of ``text``; ``preseed`` is appended after the end."""
    segments: list[tuple[str, str, int]] = []
    pos = 0
    for m in _PLACEHOLDER_RE.finditer(text):
        fixed = text[pos : m.start()]
        _add_text(segments, fixed, count_tokens(fixed))
        segments.append(("slot", m.group(1), 0))
        pos = m.end()
    tail = text[pos:] + (preseed or "")
    _add_text(segments, tail, count_tokens(tail))
    return PromptTemplate(segments=tuple(segments))


def load_template(path: str | Path, preseed: str | None = None) -> PromptTemplate:
    """Load a template file; one trailing newline is ignored so files can end normally."""
    text = Path(path).read_text(encoding="utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    return parse_template(text, preseed=preseed)


def bind(
    template: PromptTemplate, bindings: Mapping[str, str | tuple[str, int]]
) -> PromptTemplate:
    """Fill the slots named in ``bindings``, counting each value once; the rest stay open.

    A ``(text, tokens)`` value is already counted: its text goes in with
    ``tokens``.
    """
    segments: list[tuple[str, str, int]] = []
    for kind, value, tokens in template.segments:
        if kind == "text":
            _add_text(segments, value, tokens)
        elif value in bindings:
            part = bindings[value]
            if isinstance(part, tuple):
                _add_text(segments, *part)
            else:
                text = str(part)
                _add_text(segments, text, count_tokens(text))
        else:
            segments.append((kind, value, tokens))
    return PromptTemplate(segments=tuple(segments))


def render_prompt(
    template: PromptTemplate, bindings: Mapping[str, str | tuple[str, int]]
) -> RenderedPrompt:
    """Substitute every placeholder; unbound placeholders are an error.

    Values are taken and joined as ``bind`` does, in one walk over the
    segments. The digest continues ``template.lead``'s hash over the rest.
    """
    parts, tokens = [], 0
    for kind, value, n in template.segments:
        if kind == "slot":
            if value not in bindings:
                raise TemplateError(f"unbound placeholder {value!r}")
            value, n = counted(bindings[value])
            if not value:
                continue
        tokens += n - (bool(parts) and _merges(parts[-1], value))
        parts.append(value)
    text = "".join(parts)
    lead_length, lead_hash = template.lead
    digest = lead_hash.copy()
    digest.update(text[lead_length:].encode("utf-8"))
    return RenderedPrompt(text=text, token_estimate=tokens, sha256=digest.hexdigest()[:16])


# --- token estimation ------------------------------------------------------

_RUN_RE = re.compile(r"[A-Za-z0-9]+")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^\s\w]|_")


def _byte_class(ch: str) -> bytes:
    """The class byte of ``ch`` by ``_TOKEN_RE``: ``a`` in a run, ``p`` a mark, else a space."""
    n = len(_TOKEN_RE.findall(ch * 2))  # two run characters are one token, two marks two
    return b" ap"[n : n + 1]


# the class byte of each ASCII character; bytes past 127 never occur in ASCII text
_CLASS = b"".join(_byte_class(chr(i)) for i in range(128)).ljust(256)
_ALNUM = frozenset(chr(i) for i in range(128) if _CLASS[i] == ord("a"))


def count_tokens(text: str) -> int:
    """Cheap token estimate: ASCII alphanumeric runs plus non-space punctuation marks.

    A punctuation mark is a character that is neither whitespace nor
    alphanumeric, ``_`` included; a non-ASCII letter or digit is neither a
    run nor a mark. ``_TOKEN_RE`` is the definition, and text that is not
    ASCII runs its ``findall``. ASCII text is counted without a string per
    token: translated to class bytes derived from the regex (``a``, ``p``,
    space), in which each ``p`` is a mark and each ``a`` after a space, a
    ``p`` or the start begins a run.
    """
    if not text.isascii():
        return len(_TOKEN_RE.findall(text))
    k = text.encode("ascii").translate(_CLASS)
    return k.count(b"p") + k.count(b" a") + k.count(b"pa") + k.startswith(b"a")


def counted(text: str | tuple[str, int]) -> tuple[str, int]:
    """``text`` with its token estimate, for a caller that binds it more than once.

    A ``(text, tokens)`` pair is already counted and comes back as it is.
    """
    return text if isinstance(text, tuple) else (text, count_tokens(text))


def count_once(tokens: dict[str, int], text: str) -> int:
    """The count of ``text``, kept in ``tokens`` at its first use."""
    n = tokens.get(text)
    if n is None:
        n = tokens[text] = count_tokens(text)
    return n


# --- answers ---------------------------------------------------------------------


class AnswerError(Exception):
    """A model answer that flowgen cannot use."""


def parse_operator_list(text: str) -> list[str]:
    """Parse a model's operator answer into an ordered multiset.

    Strips one surrounding double quote on either side (granite answers carry
    both, preseeded llama answers only the closing one), splits on commas,
    trims and lowercases. Duplicates survive and keep their answer order —
    the n-th occurrence of a stage becomes the n-th node of that stage. An
    empty answer is an empty multiset; a non-empty answer with no
    alphanumeric content at all is unparseable.
    """
    s = text.strip()
    if s.startswith('"'):
        s = s[1:]
    if s.endswith('"'):
        s = s[:-1]
    s = s.strip()
    if not s:
        return []
    if not _RUN_RE.search(s):
        raise AnswerError(f"no alphanumeric content in operator answer {text!r}")
    names = [piece.strip().lower() for piece in s.split(",")]
    return [name for name in names if name]


def answer_pairs(answer: str, sep: str) -> list[tuple[str, str]]:
    """Each line of ``answer`` that holds ``sep``, split at its first ``sep``, both sides stripped."""
    pairs = []
    for line in answer.splitlines():
        left, found, right = line.partition(sep)
        if found:
            pairs.append((left.strip(), right.strip()))
    return pairs


# --- providers ---------------------------------------------------------------


class MockScript:
    __slots__ = ("kind", "pattern", "response")

    def __init__(self, kind: str, pattern: str, response: str):
        self.kind = kind  # "exact" | "contains"
        self.pattern = pattern
        self.response = response

    def matches(self, prompt_text: str) -> bool:
        if self.kind == "exact":
            return prompt_text == self.pattern
        return self.pattern in prompt_text


class MockProvider:
    """Scripted provider: first matching entry wins, in file order.

    Completion is a pure lookup — no state, no randomness — so concurrent
    pipelines stay deterministic.
    """

    __slots__ = ("scripts",)

    def __init__(self, scripts: list[MockScript] | None = None):
        self.scripts = [] if scripts is None else scripts

    def complete(self, prompt: RenderedPrompt, params: CompletionParams) -> str:
        for script in self.scripts:
            if script.matches(prompt.text):
                return script.response
        tried = "\n".join(
            f"  {i}: {s.kind} {s.pattern[:80]!r}" for i, s in enumerate(self.scripts)
        )
        raise NoScriptMatchError(
            f"no mock script matches prompt (first 200 chars): {prompt.text[:200]!r}\n"
            f"tried:\n{tried or '  (no scripts loaded)'}"
        )


def load_mock_scripts(path: str | Path) -> MockProvider:
    scripts: list[MockScript] = []
    for i, item in enumerate(read_json(path, list, "script", ("match", "response"))):
        match = item["match"]
        if not isinstance(match, dict) or len(match) != 1:
            raise InputError(f"{path}: script {i} match must be {{exact|contains: text}}")
        (kind, pattern), = match.items()
        if kind not in ("exact", "contains"):
            raise InputError(f"{path}: script {i} has unknown matcher {kind!r}")
        scripts.append(MockScript(kind=kind, pattern=str(pattern), response=str(item["response"])))
    return MockProvider(scripts=scripts)


def post_json(
    url: str, payload: dict, timeout: float, headers: Mapping[str, str] | None = None
) -> object:
    """POST ``payload`` as JSON and return the decoded reply: the one HTTP transport.

    Transport errors (``OSError``, which covers refused connections and
    timeouts, or an ``http.client`` protocol error such as a truncated body)
    and 5xx replies are tried three times in all, with sleeps of 0.2 s and
    0.4 s between. Redirects are not followed: a redirect would carry the
    ``Authorization`` header to the host it names, so a 3xx reply is
    rejected like a 4xx. Any other non-2xx reply, a body that is not UTF-8 JSON
    (or holds a lone surrogate, which no output could carry), a URL whose
    scheme is not http or https, or a request that cannot be built raises
    ``ProviderError`` at once.
    """
    # local: urllib.request adds 20-35 ms, half of flowgen.cli's import; only live clients send
    import http.client
    import urllib.request
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:  # urlopen reads file: URLs too
        raise ProviderError(f"{url!r} is not an http or https URL")

    class RefuseRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # the 3xx reply then raises HTTPError, as a 4xx does

    opener = urllib.request.build_opener(RefuseRedirect)
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data, {**(headers or {}), "Content-Type": "application/json"}, method="POST"
    )
    last_error: object = None
    for attempt in range(3):
        if attempt:
            time.sleep(0.2 * attempt)
        try:
            with opener.open(request, timeout=timeout) as resp:
                body = resp.read()
        except HTTPError as exc:
            if exc.code >= 500:
                last_error = f"server error {exc.code}"
                continue
            try:
                text = exc.read().decode("utf-8", "replace")
            except (OSError, http.client.HTTPException):  # the reason stays the status code
                text = ""
            raise ProviderError(f"request to {url} rejected ({exc.code}): {text[:200]}") from exc
        except ValueError as exc:  # a header or URL that cannot be sent
            raise ProviderError(f"request to {url} cannot be sent: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc.reason if isinstance(exc, URLError) else exc
            continue
        try:
            return parse_json(body.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, malformed, or holding a lone surrogate
            text = body.decode("utf-8", "replace")
            raise ProviderError(f"non-JSON response from {url}: {text[:200]!r}") from exc
    raise ProviderError(f"{url} failed after 3 attempts: {last_error}")


class HTTPProvider:
    """Completions-style HTTP client: the rendered prompt goes out as ``prompt``.

    The answer is the reply's ``text``, or else ``choices[0].text``; a
    ``usage`` the reply reports is not read.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, model: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key
        self.model = model

    def complete(self, prompt: RenderedPrompt, params: CompletionParams) -> str:
        payload: dict = {"temperature": params.temperature, "max_tokens": params.max_tokens}
        if self.model:
            payload["model"] = self.model
        payload["prompt"] = prompt.text
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else None
        doc = post_json(self.endpoint, payload, timeout=60.0, headers=headers)
        if not isinstance(doc, dict):
            raise ProviderError(f"completion response is not a JSON object: {doc!r}")
        text = doc.get("text")
        choices = doc.get("choices")
        choice = choices[0] if isinstance(choices, list) and choices else None
        if not isinstance(text, str) and isinstance(choice, dict):
            text = choice.get("text")
        if not isinstance(text, str):
            raise ProviderError(f"completion response carries no text: {doc!r}")
        return text


def provider_from_env(env: Mapping[str, str] | None = None) -> HTTPProvider:
    """Build an HTTP provider from LLM_ENDPOINT / LLM_API_KEY / LLM_MODEL."""
    env = os.environ if env is None else env
    endpoint = env.get("LLM_ENDPOINT")
    if not endpoint:
        raise ProviderError("LLM_ENDPOINT is not set and no mock scripts were given")
    return HTTPProvider(
        endpoint=endpoint,
        api_key=env.get("LLM_API_KEY"),
        model=env.get("LLM_MODEL"),
    )


# --- the completion path and its ledger --------------------------------------------


def complete(
    provider: CompletionProvider,
    prompt: RenderedPrompt,
    trace: list[dict],
    purpose: str,
    **fields: str,
) -> str:
    """Send one rendered prompt; append its ``llm_call`` record; return the answer.

    ``fields`` (such as ``node``) go into the record after ``purpose``. Both
    token counts are flowgen's estimates, of the rendered prompt and of the
    answer, so usage is counted by one rule on every provider. When the
    provider raises, the record is appended with ``completion_tokens`` 0,
    ``outcome: "error"`` and ``error``, the exception's type name, and the
    exception propagates: the prompt was sent, so its tokens count.
    """
    record = {
        "event": "llm_call",
        "purpose": purpose,
        **fields,
        "prompt_tokens": prompt.token_estimate,
        "completion_tokens": 0,
        "prompt_sha256": prompt.sha256,
    }
    try:
        answer = provider.complete(prompt, CompletionParams())
    except Exception as exc:
        record.update(outcome="error", error=type(exc).__name__)
        trace.append(record)
        raise
    record["completion_tokens"] = count_tokens(answer)
    trace.append(record)
    return answer


def usage(*traces: list[dict]) -> dict[str, int]:
    """Token usage summed over the ``llm_call`` records of the given traces."""
    total = {"prompt_tokens": 0, "completion_tokens": 0, "requests": 0}
    for trace in traces:
        for entry in trace:
            if entry.get("event") == "llm_call":
                total["prompt_tokens"] += entry["prompt_tokens"]
                total["completion_tokens"] += entry["completion_tokens"]
                total["requests"] += 1
    return total
