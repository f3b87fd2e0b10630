"""Prompt templates and completion providers.

Prompts differ per model family only in their fixed wrapper text: granite
prompts carry ``<|start_of_role|>...<|end_of_role|>`` delimiters and end on an
assistant cue, while llama prompts are bare text whose operator-list prompts
end with a preseeded opening quote (so the reply contains no opening quote of
its own). Both are plain data — template files with ``{{placeholder}}`` slots
— never family branches in code.

A prompt's token estimate and SHA-256 are built from parts, each counted
and hashed once where it is made. A template's fixed text is counted when
it is loaded, and its leading text hashed at its first render. Pieces that
are fixed for a runtime (the stage prompts' context lines and examples,
each stage's segmentation line, each stage's properties template with its
name and property list bound) are counted once per runtime; the
``stagepred.StagePrompts`` of a runtime keeps them. Text that is fixed for
one run, the utterance and each sub-utterance, is counted once per
``generate_with_runtime`` call and handed on as ``(text, tokens)``, which
``bind`` and ``render_prompt`` take without counting again.

Two providers speak the completion contract, and each returns only the
answer text: a deterministic scripted mock for offline runs and tests, and a
completions-style HTTP client for real endpoints. ``post_json`` is the one
HTTP transport, shared with the remote classifier. Every model call of the
pipeline goes through ``complete``, which appends one ``llm_call`` record to
the caller's trace; ``usage`` sums those records, so the trace is the only
token ledger.
"""

from __future__ import annotations

import os
import re
import string
import time
from functools import cached_property
from pathlib import Path
from typing import Mapping, Protocol

from . import InputError, Record, read_json

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
    "OperatorParseError",
    "FAMILY_PRESEED",
    "parse_template",
    "load_template",
    "bind",
    "render_prompt",
    "count_tokens",
    "counted",
    "parse_operator_list",
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


class OperatorParseError(ValueError):
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
    """A prompt's text, its token estimate and ``sha256``, the first 16 hex digits of its SHA-256.

    ``render_prompt`` supplies the digest; a prompt built without one
    hashes its text here.
    """

    __slots__ = ("text", "token_estimate", "sha256")

    def __init__(self, text: str, token_estimate: int, sha256: str = ""):
        self.text = text
        self.token_estimate = token_estimate
        self.sha256 = sha256 or _sha256(text.encode("utf-8")).hexdigest()[:16]


class CompletionParams:
    __slots__ = ("temperature", "max_tokens")

    def __init__(self, temperature: float = 0.0, max_tokens: int = 512):
        self.temperature = temperature
        self.max_tokens = max_tokens


class CompletionProvider(Protocol):
    def complete(self, prompt: RenderedPrompt, params: CompletionParams) -> str:
        """The answer text; what the provider may report about usage is not returned."""


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
        tokens += before_tokens - (before[-1] in _ALNUM and text[0] in _ALNUM)
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

    Values are taken as ``bind`` takes them, so a ``(text, tokens)`` value is
    not counted again. The digest continues ``template.lead``'s hash over the
    rest of the text.
    """
    bound = bind(template, bindings).segments
    open_slots = [value for kind, value, _ in bound if kind == "slot"]
    if open_slots:
        raise TemplateError(f"unbound placeholder {open_slots[0]!r}")
    ((_, text, tokens),) = bound or (("text", "", 0),)
    lead_length, lead_hash = template.lead
    digest = lead_hash.copy()
    digest.update(text[lead_length:].encode("utf-8"))
    return RenderedPrompt(text=text, token_estimate=tokens, sha256=digest.hexdigest()[:16])


# --- token estimation ------------------------------------------------------

_RUN_RE = re.compile(r"[A-Za-z0-9]+")
_SPACE_OR_WORD_RE = re.compile(r"[\s\w]+")
_ALNUM = frozenset(string.ascii_letters + string.digits)


def count_tokens(text: str) -> int:
    """Cheap token estimate: ASCII alphanumeric runs plus non-space punctuation marks.

    A punctuation mark is a character that is neither whitespace nor
    alphanumeric, ``_`` included; a non-ASCII letter or digit is neither a
    run nor a mark. ``\\w`` matches the alphanumerics and ``_``, so the
    underscores it removes are added back.
    """
    return len(_RUN_RE.findall(text)) + len(_SPACE_OR_WORD_RE.sub("", text)) + text.count("_")


def counted(text: str | tuple[str, int]) -> tuple[str, int]:
    """``text`` with its token estimate, for a caller that binds it more than once.

    A ``(text, tokens)`` pair is already counted and comes back as it is.
    """
    return text if isinstance(text, tuple) else (text, count_tokens(text))


# --- operator-list answers ---------------------------------------------------


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
        raise OperatorParseError(f"no alphanumeric content in operator answer {text!r}")
    names = [piece.strip().lower() for piece in s.split(",")]
    return [name for name in names if name]


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

    Transport errors and 5xx replies are tried three times in all, with
    sleeps of 0.2 s and 0.4 s between; a 4xx reply or a body that is not
    JSON raises ``ProviderError`` at once.
    """
    import requests  # local: half of flowgen.cli's import time; only live clients use it

    last_error: Exception | None = None
    for attempt in range(3):
        if attempt:
            time.sleep(0.2 * attempt)
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code >= 500:
            last_error = ProviderError(f"server error {resp.status_code}")
            continue
        if resp.status_code >= 400:
            raise ProviderError(f"request to {url} rejected ({resp.status_code}): {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:  # both json's and requests' decode errors subclass it
            raise ProviderError(f"non-JSON response from {url}: {resp.text[:200]!r}") from exc
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
    answer, so usage is counted by one rule on every provider.
    """
    answer = provider.complete(prompt, CompletionParams())
    trace.append(
        {
            "event": "llm_call",
            "purpose": purpose,
            **fields,
            "prompt_tokens": prompt.token_estimate,
            "completion_tokens": count_tokens(answer),
            "prompt_sha256": prompt.sha256,
        }
    )
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
