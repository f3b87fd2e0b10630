#!/usr/bin/env python3
"""Regenerate the synthetic corpus fixtures and verify their invariants.

Writes (or with --check, byte-compares) the five synthetic fixture files,
then proves the properties the test suite and docs rely on: catalog shape
and validity, exact two mentions per stage in the bank, classifier recall
on its own pairs, candidate coverage of every gold stage, the scoped-prompt
token budget, and gold reproduction through both prompt strategies against
the generated provider scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import mean

from flowgen import fixture_path
from flowgen.catalog import load_catalog, validate_catalog
from flowgen.classify import load_training_pairs, train
from flowgen.llm import load_mock_scripts
from flowgen.stagepred import (
    build_candidates,
    load_examples,
    load_split_examples,
    predict_cag,
    predict_single,
    render_stage_prompt,
    select_examples,
    stage_prompts,
)
from flowgen.synthdata import DEFAULT_SEED, render_all

MAX_RATIO = 0.45


def write_or_check(texts: dict[str, str], out_dir: Path, check: bool) -> list[str]:
    drifted = []
    for name, text in texts.items():
        target = out_dir / name
        if check:
            if not target.is_file() or target.read_text(encoding="utf-8") != text:
                drifted.append(name)
        else:
            target.write_text(text, encoding="utf-8")
    return drifted


def verify(out_dir: Path) -> dict[str, float]:
    catalog = load_catalog(out_dir / "synthetic_catalog.json")
    assert len(catalog.stages) == 142, len(catalog.stages)
    connectors = sum(1 for s in catalog.stages.values() if s.is_connector)
    assert connectors == 90, connectors
    problems = validate_catalog(catalog)
    assert not problems, problems[:3]

    bank = load_examples(out_dir / "synthetic_bank.json", catalog)
    assert len(bank) == 142, len(bank)
    mentions: dict[str, int] = {}
    for ex in bank:
        for op in ex.operators:
            mentions[op] = mentions.get(op, 0) + 1
    assert set(mentions) == set(catalog.stages)
    assert all(count == 2 for count in mentions.values())

    pairs = load_training_pairs(out_dir / "synthetic_training_pairs.json")
    model = train(pairs, catalog.stages)
    for utterance, label in pairs:
        top = model.classify(utterance).top
        assert top == label, (utterance, top)

    records = json.loads((out_dir / "synthetic_utterances.json").read_text("utf-8"))
    assert len(records) == 20, len(records)
    provider = load_mock_scripts(out_dir / "mock_scripts_synthetic.json")
    split_examples = load_split_examples(fixture_path("split_examples.json"))

    prompts = stage_prompts(catalog, split_examples, bank=bank)
    listing = prompts.listing()
    singles, scopeds = [], []
    for rec in records:
        utterance, gold = rec["utterance"], rec["gold_stages"]
        candidates = build_candidates(rec["subs"], model, catalog, utterance, [])
        missing = set(gold) - set(candidates.stages)
        assert not missing, (utterance, missing)

        full = render_stage_prompt(catalog, None, bank, utterance, prompts=prompts)
        scoped = render_stage_prompt(
            catalog,
            candidates.stages,
            select_examples(candidates, prompts),
            utterance,
            prompts=prompts,
        )
        ratio = scoped.token_estimate / full.token_estimate
        assert ratio <= MAX_RATIO, (utterance, ratio)
        singles.append(full.token_estimate)
        scopeds.append(scoped.token_estimate)

        # the scripts must drive both strategies to the labeled answer
        assert predict_single(utterance, catalog, listing, provider, []).stages == gold
        prediction = predict_cag(utterance, catalog, model, bank, provider, prompts=prompts)
        assert prediction.stages == gold, (utterance, prediction.stages)

    return {
        "single_mean": mean(singles),
        "scoped_mean": mean(scopeds),
        "worst_ratio": max(s / f for s, f in zip(scopeds, singles)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=fixture_path())
    parser.add_argument(
        "--check", action="store_true", help="compare against existing files; write nothing"
    )
    args = parser.parse_args()

    texts = render_all(args.seed)
    drifted = write_or_check(texts, args.out, args.check)
    if drifted:
        print("fixture drift:", ", ".join(sorted(drifted)), file=sys.stderr)
        return 1

    stats = verify(args.out)
    mode = "checked" if args.check else "wrote"
    print(f"{mode} {len(texts)} files in {args.out}")
    print(
        "prompt tokens: single mean {single_mean:.1f}, scoped mean {scoped_mean:.1f}, "
        "worst scoped/single ratio {worst_ratio:.3f}".format(**stats)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
