"""Synthetic corpus generator: drift pins and structural invariants.

The checked-in synthetic fixtures must be exactly reproducible from the
default seed; if the generator changes, regenerating the files (and
re-reviewing the diffs) is part of the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from flowgen import fixture_path
from flowgen.catalog import dump_catalog, parse_catalog
from flowgen.classify import keyword_scan, train
from flowgen.synthdata import (
    DEFAULT_SEED,
    connector_names,
    generate_bank,
    generate_catalog,
    generate_training_pairs,
    generate_utterances,
    render_all,
    transform_names,
)

FILES = (
    "synthetic_catalog.json",
    "synthetic_bank.json",
    "synthetic_training_pairs.json",
    "synthetic_utterances.json",
    "mock_scripts_synthetic.json",
)


REPO = Path(__file__).resolve().parent.parent


def test_make_fixtures_check_passes():
    # byte-compares the fixtures and proves their invariants, the scoped/single
    # prompt ratio <= 0.45 among them; --check writes nothing. The token line
    # is the README's: a scoped prompt without its few-shot examples is smaller
    done = subprocess.run(
        [sys.executable, "-B", "scripts/make_fixtures.py", "--check"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 0, done.stderr
    checked, tokens = done.stdout.splitlines()
    assert checked.startswith("checked 5 files")
    assert tokens == (
        "prompt tokens: single mean 14628.9, scoped mean 553.7, worst scoped/single ratio 0.053"
    )
    assert tokens in (REPO / "README.md").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("filename", FILES)
def test_checked_in_fixtures_match_generator(filename):
    rendered = render_all(DEFAULT_SEED)
    on_disk = fixture_path(filename).read_text(encoding="utf-8")
    assert rendered[filename] == on_disk


def test_generator_is_seed_deterministic():
    assert render_all(DEFAULT_SEED) == render_all(DEFAULT_SEED)
    assert render_all(DEFAULT_SEED) != render_all(DEFAULT_SEED + 1)


def test_catalog_composition():
    catalog = generate_catalog(DEFAULT_SEED)
    assert len(catalog.stages) == len(connector_names()) + len(transform_names()) == 142
    connectors = [s for s in catalog.stages.values() if s.is_connector]
    assert len(connectors) == 90
    # parse_catalog raises on any violation
    assert parse_catalog(dump_catalog(catalog)).stages == catalog.stages
    # the rendered file parses back into the same catalog
    parsed = parse_catalog(render_all(DEFAULT_SEED)["synthetic_catalog.json"])
    assert parsed.stages.keys() == catalog.stages.keys()


def test_bank_mentions_every_stage_exactly_twice():
    catalog = generate_catalog(DEFAULT_SEED)
    bank = generate_bank(catalog, DEFAULT_SEED)
    mentions = Counter(op for ex in bank for op in ex["operators"])
    assert set(mentions) == set(catalog.stages)
    assert set(mentions.values()) == {2}
    sizes = Counter(len(ex["operators"]) for ex in bank)
    assert set(sizes) <= {1, 2, 3}


def test_training_pairs_cover_catalog_and_self_classify():
    catalog = generate_catalog(DEFAULT_SEED)
    raw = generate_training_pairs(catalog, DEFAULT_SEED)
    assert {p["label"] for p in raw} == set(catalog.stages)
    pairs = [(p["utterance"], p["label"]) for p in raw]
    model = train(pairs, set(catalog.stages))
    for utterance, label in pairs[::7]:  # sampled; the full sweep runs in the classifier suite
        result = model.classify(utterance)
        assert result.matched and result.top == label


def test_utterances_make_gold_stages_keyword_visible():
    catalog = generate_catalog(DEFAULT_SEED)
    records = generate_utterances(catalog, DEFAULT_SEED)
    assert len(records) == 20
    assert [len(r.gold_stages) for r in records] == [1, 2, 3, 2] * 5
    for record in records:
        assert len(record.subs) == len(record.gold_stages)
        hits = keyword_scan(catalog, record.utterance)
        assert set(record.gold_stages) <= hits
        for sub in record.subs:
            assert sub.lower() in record.utterance.lower()


def test_mock_scripts_cover_every_record():
    scripts = json.loads(fixture_path("mock_scripts_synthetic.json").read_text(encoding="utf-8"))
    records = json.loads(fixture_path("synthetic_utterances.json").read_text(encoding="utf-8"))
    assert len(scripts) == 2 * len(records)
    for record in records:
        cues = [s["match"]["contains"] for s in scripts]
        assert f"Utterance: {record['utterance']}\nSub-utterances:" in cues
