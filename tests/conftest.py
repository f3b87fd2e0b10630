"""Shared fixtures: demo corpus paths, scenario texts, small catalog builders, a live HTTP endpoint."""

from __future__ import annotations

import json
import threading
import urllib.request
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple

import pytest

from flowgen import fixture_path
from flowgen.catalog import Catalog, CardinalityBound, PropertyDef, StageDef, STRING
from flowgen.classify import Classification
from flowgen.llm import MockProvider, MockScript, ProviderError
from flowgen.pipeline import PipelineConfig, Runtime
from flowgen.stagepred import stage_prompts

# canonical walkthrough texts; cleaned of source-PDF line-wrap artifacts
LINEAR_FLOW = (
    "I want to use teradata where my connection name is teradata-00, schema name is "
    "TM_DS_DB_1 and table name is EMPLOYEE2. then sort on the age column. then filter "
    "out pizza column. then postgres where my connection name is tristan_postconn , "
    "schema name is public and table name is demoautotest, Also do the following, "
    "Decimal rounding mode is ceiling, Generate Unicode Columns, Row limit should be 50."
)
BRANCHING_FLOW = (
    "Extract data from MySQL and sample it using percent mode to send some data to a "
    "switch operator and the other data to a join operator. The switch stage writes some "
    "data to a fileset and outputs the rest to a sort stage that finally writes data into "
    "another fileset. The join operator merges the sampled MySQL data with data from a "
    "SQL Server source. Finally, the first few rows are selected using a head operator."
)
FULL_NAME_FLOW = (
    "Split the full_name field of the employee_data dataset into separate columns "
    "for first_name and last_name, then capitalize the first letter of each name "
    "for consistency."
)
MERGE_FLOW = (
    "Combine the employee_info master dataset with the employee_updates and "
    "department_changes datasets on employee_id. Once done, update the employee_records "
    "and employee_department information accordingly."
)


def make_stage(
    name: str,
    description: str = "",
    synonyms: tuple[str, ...] = (),
    is_connector: bool = False,
    inputs: tuple[int, int | None] = (1, 1),
    outputs: tuple[int, int | None] = (1, 1),
    properties: tuple[PropertyDef, ...] = (),
) -> StageDef:
    return StageDef(
        name=name,
        description=description or f"{name} stage",
        synonyms=synonyms,
        is_connector=is_connector,
        inputs=CardinalityBound(*inputs),
        outputs=CardinalityBound(*outputs),
        properties=properties,
    )


def make_catalog(*stages: StageDef) -> Catalog:
    return Catalog(stages={s.name: s for s in stages})


def scripted(*pairs: tuple[str, str]) -> MockProvider:
    """Provider answering contains-matched prompts, first match wins."""
    return MockProvider(
        scripts=[MockScript(kind="contains", pattern=p, response=r) for p, r in pairs]
    )


class RecordingProvider:
    """Keeps every prompt sent through it, then asks ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, params)


class FailingOn:
    """Answers from ``inner``, but raises ``ProviderError`` on a prompt containing ``cue``."""

    def __init__(self, inner, cue: str):
        self.inner, self.cue = inner, cue

    def complete(self, prompt, params):
        if self.cue in prompt.text:
            raise ProviderError("endpoint down")
        return self.inner.complete(prompt, params)


class NeverClassify:
    def classify(self, text: str) -> Classification:
        return Classification(ranked=(), matched=False)


def make_runtime(catalog: Catalog, provider: MockProvider, **cfg_overrides) -> Runtime:
    """In-memory runtime for tests that need no fixture files."""
    cfg = PipelineConfig(**cfg_overrides)
    prompts = stage_prompts(catalog, family=cfg.family)
    return Runtime(
        catalog=catalog,
        classifier=NeverClassify(),
        bank=[],
        split_examples=[],
        registry=None,
        provider=provider,
        cfg=cfg,
        prompts=prompts,
        listing=prompts.listing(),
    )


@pytest.fixture()
def demo_config():
    def build(**overrides) -> PipelineConfig:
        defaults = dict(
            catalog_path=fixture_path("demo_catalog.json"),
            examples_path=fixture_path("demo_bank.json"),
            split_examples_path=fixture_path("split_examples.json"),
            classifier_path=fixture_path("demo_training_pairs.json"),
            registry_path=fixture_path("demo_registry.json"),
            mock_scripts_path=fixture_path("mock_scripts_demo.json"),
        )
        defaults.update(overrides)
        return PipelineConfig(**defaults)

    return build


@pytest.fixture()
def tiny_catalog() -> Catalog:
    return make_catalog(
        make_stage("head", "Select rows from the start of the data."),
        make_stage(
            "sql_server",
            "Read from or write to a SQL Server database.",
            synonyms=("sqlserver",),
            is_connector=True,
            inputs=(0, 1),
            outputs=(0, 1),
            properties=(PropertyDef("Connection Name", "Registered connection.", STRING),),
        ),
        make_stage("join", "Combine two inputs on a key.", inputs=(2, 2)),
        make_stage("switch", "Route records to branches.", outputs=(1, None)),
    )


# --- a live HTTP endpoint ------------------------------------------------------------


class Reply(NamedTuple):
    """One scripted HTTP answer."""

    status: int
    body: str
    length: int | None = None  # the Content-Length sent; above the body's, the body is cut short
    delay: float = 0.0  # seconds to wait before answering, to let a client time out
    location: str | None = None  # a Location header, for a redirect


class Seen(NamedTuple):
    """One request the endpoint received: its path, its headers (read in any case) and its JSON body."""

    path: str
    headers: Message
    body: object


class Endpoint:
    """An HTTP server on 127.0.0.1 that records each POST and answers it from a script.

    Each request takes the next of ``replies``; once they run out, ``answer``
    is called with the request's JSON body. ``url`` is the server's root.
    """

    def __init__(self):
        self.replies: list[Reply] = []
        self.answer: Callable[[object], Reply] = lambda body: Reply(404, "unscripted")
        self.seen: list[Seen] = []
        self.closing = threading.Event()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.endpoint = self
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        # a short poll lets close() return within 20 ms rather than the default 0.5 s
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.02,), daemon=True)
        self.thread.start()

    def close(self) -> None:
        """Stop serving and close the socket, so a new connection is refused."""
        self.closing.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        endpoint = self.server.endpoint
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        endpoint.seen.append(Seen(self.path, self.headers, body))
        reply = endpoint.replies.pop(0) if endpoint.replies else endpoint.answer(body)
        if endpoint.closing.wait(reply.delay):
            return
        data = reply.body.encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) if reply.length is None else reply.length))
        if reply.location is not None:
            self.send_header("Location", reply.location)
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # a client that follows a 301-303 redirect sends a GET
        self.server.endpoint.seen.append(Seen(self.path, self.headers, None))
        self.send_error(405)

    def log_message(self, format, *args):
        pass


def record_timeouts(monkeypatch) -> list[float]:
    """The timeout of each request ``post_json`` opens from now on; the requests still go out."""
    real, timeouts = urllib.request.OpenerDirector.open, []

    def open(self, request, timeout):
        timeouts.append(timeout)
        return real(self, request, timeout=timeout)

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open)
    return timeouts


@pytest.fixture()
def http_endpoint(monkeypatch):
    # a proxy from the environment would otherwise get the requests meant for 127.0.0.1
    for name in ("NO_PROXY", "no_proxy"):
        monkeypatch.setenv(name, "*")
    endpoint = Endpoint()
    yield endpoint
    endpoint.close()
