"""Pinned digests of flowgen's byte-compared outputs.

``scripts/output_digest.py`` digests the ``flowgen generate --trace`` output
of every demo flow under every strategy, and 10,001 classifier rankings on
both bundled models. Any change to a prompt, a token count, a prompt hash, a
score's last digit or a document moves a digest, so this pins byte-identity
on every Python version that runs tier-1.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

DEMO_DIGEST = "9ba82950d11cb7abc4a7143cdbb812be10bf5b9029e39edc5e9115892f691a6e"
CLASSIFY_DIGEST = "47c36efadc318a4c9b75eee67a3880aedc6d82ac2545762361bbdb2f83d49c08"


def test_output_digests_are_pinned(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SCRIPTS))
    output_digest = importlib.import_module("output_digest")
    digests = output_digest.digests()
    assert digests["demo"][0] == DEMO_DIGEST
    assert digests["classify"][0] == CLASSIFY_DIGEST
