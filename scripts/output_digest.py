#!/usr/bin/env python3
"""Print SHA-256 digests of flowgen's pinned outputs, to compare across Python versions.

    PYTHONPATH=src python3 scripts/output_digest.py

Two sections, each digested on its own:

* ``demo``: ``flowgen generate --trace`` on each demo flow with each
  strategy: the exit code, stdout (the document with full provenance) and
  stderr (a failing pair's error envelope). The repair flow runs on
  ``perfbench/mock_scripts_repair.json``, the other flows on the demo scripts.
* ``classify``: one query whose score shows how a vector norm was summed,
  then 10,000 random queries drawn from the words of both bundled training
  sets, plus one word neither holds, each ranked by both bundled models:
  every label's score, best first, and ``matched``.

Equal digests on two interpreters or two checkouts mean byte-identical
outputs. It needs only the standard library and ``flowgen``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Iterator

from flowgen import cli, fixture_path
from flowgen.catalog import keyword_parts
from flowgen.classify import load_training_pairs, train

ROOT = Path(__file__).resolve().parent.parent
FLOWS = ROOT / "perfbench" / "reference" / "flows.json"
REPAIR_SCRIPTS = ROOT / "perfbench" / "mock_scripts_repair.json"
STRATEGIES = ("cag", "single", "agentic")
UNTRAINED_WORD = "zzyzx"
QUERIES = 10_000
SEED = 0
# its synthetic score reads ...211 when a norm is summed left to right and
# ...212 when it is compensated, as sum() of floats is from Python 3.12 on
NORM_QUERY = "stage warehouse the use pivot run to the cycle emberly stage batch"


def demo_outputs() -> Iterator[str]:
    flows = json.loads(FLOWS.read_text(encoding="utf-8"))
    for name, text in flows.items():
        scripts = REPAIR_SCRIPTS if name == "repair" else fixture_path("mock_scripts_demo.json")
        for strategy in STRATEGIES:
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = ["generate", "--utterance", text, "--strategy", strategy, "--trace"]
            argv += ["--mock-scripts", str(scripts)]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            yield f"== {strategy} {name} exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"


def classify_outputs() -> Iterator[str]:
    pair_sets = [
        load_training_pairs(fixture_path(f"{corpus}_training_pairs.json"))
        for corpus in ("demo", "synthetic")
    ]
    models = [train(pairs, {label for _, label in pairs}) for pairs in pair_sets]
    vocabulary = sorted({w for pairs in pair_sets for u, _ in pairs for w in keyword_parts(u)})
    vocabulary.append(UNTRAINED_WORD)
    rng = random.Random(SEED)
    queries = [NORM_QUERY]
    for _ in range(QUERIES):
        queries.append(" ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12))))
    for query in queries:
        for model in models:
            result = model.classify(query)
            yield f"{query}\t{result.matched}\t{result.ranked!r}\n"


def main() -> None:
    for section, texts in (("demo", demo_outputs()), ("classify", classify_outputs())):
        digest, chars = hashlib.sha256(), 0
        for text in texts:
            digest.update(text.encode("utf-8"))
            chars += len(text)
        print(f"{section:9s} {digest.hexdigest()}  {chars} chars")


if __name__ == "__main__":
    main()
