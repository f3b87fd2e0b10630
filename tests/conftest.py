"""Shared fixtures: demo corpus paths, scenario texts, small catalog builders."""

from __future__ import annotations

import json

import pytest

from flowgen import fixture_path
from flowgen.catalog import Catalog, CardinalityBound, PropertyDef, StageDef, STRING
from flowgen.classify import Classification
from flowgen.llm import MockProvider, MockScript
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


class FakeResponse:
    """Stands in for ``requests.Response``: a status code and a body, decoded on demand."""

    def __init__(self, status_code: int, text: str):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


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
        listing=prompts.listing(None, []),
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
