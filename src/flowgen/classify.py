"""Sub-utterance -> stage classification.

The built-in model is a deliberately simple lexical nearest neighbour: each
training utterance becomes a unit-normalized tf-idf vector, a query is scored
against every exemplar by cosine similarity, and per-stage scores aggregate by
max. It is fully deterministic, trains in microseconds, and memorizes its
training set (an exact training utterance always comes back with score 1.0),
which is exactly what the offline harness needs. A remote classifier speaking
the same contract over HTTP can be swapped in without the pipeline noticing.

Texts are cut into words by ``catalog.keyword_parts``, the word rule the
keyword scan uses too, so ``İzmir`` is the word ``izmir`` to both. A score
is summed left to right over the shorter of the two vectors, in that
vector's token order (the exemplar's when they are as long), then rounded.
``train`` indexes the exemplars by token position, so ``classify`` adds
each exemplar's terms in its own order without visiting every exemplar's
tokens; only the exemplars longer than the query are summed again, in the
query's order.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Protocol

from . import InputError, read_json
from .catalog import Catalog, keyword_parts
from .llm import ProviderError, post_json

__all__ = [
    "TrainingPair",
    "ClassifierModel",
    "Classification",
    "StageClassifier",
    "DEFAULT_THRESHOLD",
    "train",
    "load_training_pairs",
    "keyword_scan",
    "RemoteClassifier",
]

DEFAULT_THRESHOLD = 0.25

# scores are rounded so that identical vectors compare as exactly 1.0 and
# floating-point fuzz cannot flip a tie-break
_SCORE_DIGITS = 12


@dataclass(frozen=True)
class TrainingPair:
    utterance: str
    label: str  # must name a catalog stage


@dataclass(frozen=True)
class Classification:
    """Ranked (label, score) pairs, best first; ``matched`` applies the threshold."""

    ranked: tuple[tuple[str, float], ...]
    matched: bool

    @property
    def top(self) -> str | None:
        return self.ranked[0][0] if self.ranked else None


class StageClassifier(Protocol):
    def classify(self, text: str) -> Classification: ...


@dataclass
class ClassifierModel:
    """A trained lexical model, indexed for scoring by ``train``.

    ``at[p]`` maps each token to the ``(exemplar, weight)`` pairs whose
    vector holds it at position ``p``, its first occurrence in that
    exemplar. ``labels`` is sorted, and ``label_of`` gives each exemplar's
    index into it.
    """

    idf: dict[str, float]
    default_idf: float  # weight for query tokens unseen in training
    vectors: list[dict[str, float]]  # one unit tf-idf vector per exemplar
    labels: list[str]
    label_of: list[int]
    at: list[dict[str, list[tuple[int, float]]]]
    longest_first: list[int]  # exemplar indices by vector length, longest first
    threshold: float = DEFAULT_THRESHOLD

    def classify(self, text: str) -> Classification:
        """Score ``text`` against every label; deterministic for identical inputs.

        An exemplar's score is its cosine with the query, summed in the
        order that the module docstring gives and rounded to 12 digits.
        Ties rank lexicographically by label. Empty or fully-unknown text
        scores 0.0 everywhere and cannot match.
        """
        query = _unit(_vectorize(keyword_parts(text), self.idf, self.default_idf))
        sums = [0.0] * len(self.vectors)
        # position by position, so each exemplar's terms add in its own order
        for postings in self.at:
            for t, q in query.items():
                for e, w in postings.get(t, ()):
                    sums[e] += w * q
        # an exemplar longer than the query sums in the query's order instead
        for e in self.longest_first:
            vec = self.vectors[e]
            if len(vec) <= len(query):
                break
            score = 0.0
            for t, q in query.items():
                if t in vec:
                    score += q * vec[t]
            sums[e] = score
        rounded = {s: round(s, _SCORE_DIGITS) for s in set(sums)}
        best = [0.0] * len(self.labels)
        for s, label in zip(sums, self.label_of):
            if rounded[s] > best[label]:
                best[label] = rounded[s]
        # a stable sort keeps equal scores in label order
        ranked = tuple(sorted(zip(self.labels, best), key=itemgetter(1), reverse=True))
        matched = bool(ranked) and ranked[0][1] >= self.threshold
        return Classification(ranked=ranked, matched=matched)


def _unit(vec: dict[str, float]) -> dict[str, float]:
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in vec.items()}


def _vectorize(tokens: list[str], idf: dict[str, float], default_idf: float) -> dict[str, float]:
    counts = Counter(tokens)
    return {t: n * idf.get(t, default_idf) for t, n in counts.items()}


def train(
    pairs: Iterable[TrainingPair],
    labels: Iterable[str],
    threshold: float = DEFAULT_THRESHOLD,
) -> ClassifierModel:
    """Fit the lexical model.

    ``labels`` is the set of admissible stage names (normally the catalog's);
    a pair with a label outside it is an authoring error. Duplicate pairs are
    harmless — per-label max aggregation makes them no-ops.
    """
    pairs = list(pairs)
    if not pairs:
        raise InputError("empty training set")
    known = set(labels)
    for pair in pairs:
        if pair.label not in known:
            raise InputError(f"unknown label {pair.label!r} for {pair.utterance!r}")

    docs = [keyword_parts(p.utterance) for p in pairs]
    n_docs = len(docs)
    df = Counter(t for doc in docs for t in set(doc))
    # smoothed idf keeps every weight positive so exact matches score 1.0
    idf = {t: math.log((1 + n_docs) / (1 + n)) + 1.0 for t, n in df.items()}
    default_idf = math.log(1 + n_docs) + 1.0

    vectors = []
    for pair, doc in zip(pairs, docs):
        vec = _unit(_vectorize(doc, idf, default_idf))
        if not vec:
            raise InputError(f"training utterance has no tokens: {pair.utterance!r}")
        vectors.append(vec)
    at: list[dict[str, list[tuple[int, float]]]] = [{} for _ in range(max(map(len, vectors)))]
    for e, vec in enumerate(vectors):
        for postings, (t, w) in zip(at, vec.items()):
            postings.setdefault(t, []).append((e, w))
    names = sorted({p.label for p in pairs})
    index = {label: i for i, label in enumerate(names)}
    return ClassifierModel(
        idf=idf,
        default_idf=default_idf,
        vectors=vectors,
        labels=names,
        label_of=[index[p.label] for p in pairs],
        at=at,
        longest_first=sorted(range(len(vectors)), key=lambda e: -len(vectors[e])),
        threshold=threshold,
    )


def load_training_pairs(path: str | Path) -> list[TrainingPair]:
    raw = read_json(path, list, "pair", ("utterance", "label"))
    return [TrainingPair(str(item["utterance"]), str(item["label"])) for item in raw]


# --- keyword scan ----------------------------------------------------------


def keyword_scan(catalog: Catalog, text: str) -> set[str]:
    """Stages whose name or synonym occurs in ``text`` as a whole word.

    Matching is case-insensitive and an underscore in a stage name matches
    either an underscore or a space, so ``sql_server`` is found in
    "load from SQL Server". Substring hits do not count: "the filtered view"
    does not surface ``filter``.

    Keywords are found through a part index: the text is cut into its
    ``keyword_parts``, and a keyword's exact pattern runs only when all of
    the keyword's parts are among them (a keyword with no part always runs).
    The parts fold the four non-ASCII code points that ``re.IGNORECASE``
    matches to ASCII: U+0130 and U+0131 to ``i``, U+017F to ``s`` and
    U+212A (the Kelvin sign) to ``k``. So the index never drops a match.
    """
    parts = set(keyword_parts(text))
    index = catalog.keyword_index
    found: set[str] = set()
    for first in ("", *parts):
        for keyword in index.get(first, ()):
            if keyword.parts <= parts and keyword.pattern.search(text):
                found.update(keyword.stages)
    return found


# --- remote client ---------------------------------------------------------


class RemoteClassifier:
    """HTTP client for an external classifier with the same contract.

    POSTs ``{"text": ...}`` to ``<endpoint>/classify`` and expects
    ``{"ranked": [[label, score], ...], "matched": bool}``; any other reply
    raises ``ProviderError``.
    """

    def __init__(self, endpoint: str):
        self.endpoint = endpoint.rstrip("/")

    def classify(self, text: str) -> Classification:
        doc = post_json(f"{self.endpoint}/classify", {"text": text}, timeout=30.0)
        ranked = doc.get("ranked") if isinstance(doc, dict) else None
        if not (_is_ranking(ranked) and isinstance(doc.get("matched"), bool)):
            raise ProviderError(f"malformed classifier response: {doc!r}")
        ranked = tuple((label, float(score)) for label, score in ranked)
        return Classification(ranked=ranked, matched=doc["matched"])


def _is_ranking(value: object) -> bool:
    """A list of ``[label, score]`` pairs: a string, then a finite number (not a boolean)."""
    return isinstance(value, list) and all(
        isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
        and type(item[1]) in (int, float)  # bool is an int subclass, so isinstance won't do
        and abs(item[1]) <= sys.float_info.max  # false for NaN, infinities and huge ints
        for item in value
    )
