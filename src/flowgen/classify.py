"""Sub-utterance -> stage classification.

The built-in model is a deliberately simple lexical nearest neighbour: each
training utterance becomes a unit-normalized tf-idf vector, a query is scored
against every exemplar by cosine similarity, and per-stage scores aggregate by
max; a query is ``matched`` when its top score reaches ``THRESHOLD``, one
constant for every model. It is fully deterministic, trains in milliseconds,
and memorizes its training set (an exact training utterance always comes back
with score 1.0), which is exactly what the offline harness needs. A remote
classifier speaking the same contract over HTTP can be swapped in without the
pipeline noticing.

Texts are cut into words by ``catalog.keyword_parts``, the word rule the
keyword scan uses too, so ``İzmir`` is the word ``izmir`` to both. A score
is summed in the query's order, then rounded: ``train`` builds one index
from each training token to its idf and its exemplars' weights, and
``classify`` counts the query's words in a plain dict, looks each one up
once, and adds its terms left to right, token by token in the order the
query first uses them.

``train`` orders the exemplars by label, so ``classify`` finds what the
pipeline reads, the top label, its score and ``matched``, from the exemplar
sums alone. Each label's maximum is taken, and the full ranking built, only
at the ranking's first read.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Protocol

from . import InputError, read_json
from .catalog import Catalog, keyword_parts
from .llm import ProviderError, post_json

__all__ = [
    "ClassifierModel",
    "Classification",
    "StageClassifier",
    "THRESHOLD",
    "train",
    "load_training_pairs",
    "keyword_scan",
    "RemoteClassifier",
]

THRESHOLD = 0.25

# scores are rounded so that identical vectors compare as exactly 1.0 and
# floating-point fuzz cannot flip a tie-break
_SCORE_DIGITS = 12


class Classification:
    """Ranked ``(label, score)`` pairs, best first; ``matched`` applies the threshold.

    ``top`` and ``score`` are the first pair's label and score (None and 0.0
    when nothing is ranked). A trained model fills in ``top``, ``score`` and
    ``matched`` at once and keeps each exemplar's raw score. The first read
    of ``ranked`` takes each label's maximum, rounds it and sorts every
    label; later reads return the same tuple.
    """

    __slots__ = ("top", "score", "matched", "_ranked", "_labels", "_label_of", "_sums")

    def __init__(self, ranked: tuple[tuple[str, float], ...], matched: bool):
        self.top, self.score = ranked[0] if ranked else (None, 0.0)
        self.matched = matched
        self._ranked = ranked

    @classmethod
    def _of_sums(
        cls, labels: list[str], label_of: list[int], sums: list[float],
        head: int, score: float, matched: bool,
    ) -> Classification:
        """``labels[head]`` first, with ``score``; ``ranked`` comes from the raw exemplar ``sums``."""
        result = cls.__new__(cls)
        result.top, result.score, result.matched = labels[head], score, matched
        result._ranked, result._labels, result._label_of, result._sums = None, labels, label_of, sums
        return result

    @property
    def ranked(self) -> tuple[tuple[str, float], ...]:
        if self._ranked is None:
            best = [0.0] * len(self._labels)
            for s, label in zip(self._sums, self._label_of):
                if s > best[label]:
                    best[label] = s
            rounded = {b: round(b, _SCORE_DIGITS) for b in set(best)}
            scores = map(rounded.get, best)
            # a stable sort keeps equal scores in label order
            self._ranked = tuple(sorted(zip(self._labels, scores), key=itemgetter(1), reverse=True))
        return self._ranked

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self.ranked, self.matched) == (other.ranked, other.matched)


class StageClassifier(Protocol):
    def classify(self, text: str) -> Classification: ...


class ClassifierModel:
    """A trained lexical model, indexed for scoring by ``train``.

    ``index`` maps each training token to its idf and its postings, the
    ``(exemplar, weight)`` pairs of the exemplars whose unit vector holds
    it. ``labels`` is sorted, and ``label_of`` gives each exemplar's index
    into it. Exemplars are ordered by label, each label's in the training
    file's order, so ``label_of`` never decreases.
    """

    __slots__ = ("index", "default_idf", "labels", "label_of")

    def __init__(
        self, index: dict[str, tuple[float, tuple[tuple[int, float], ...]]], default_idf: float,
        labels: list[str], label_of: list[int],
    ):
        self.index = index
        self.default_idf = default_idf  # weight for query tokens unseen in training
        self.labels = labels
        self.label_of = label_of

    def classify(self, text: str) -> Classification:
        """Score ``text`` against every label; deterministic for identical inputs.

        An exemplar's score is its cosine with the query, summed in the
        query's order and rounded to 12 digits; a label scores its best
        exemplar's. Ties rank lexicographically by label. Empty or
        fully-unknown text scores 0.0 everywhere and cannot match. Only the
        head is computed here, from the exemplar sums alone.
        """
        index, default_idf = self.index, self.default_idf
        # the query's weights, each word looked up once; the norm covers unseen
        # words too, summed left to right as ``train`` sums an exemplar's
        terms, squares = [], 0.0
        for t, n in _counts(keyword_parts(text)).items():
            entry = index.get(t)
            if entry is None:
                w = n * default_idf
            else:
                w = n * entry[0]
                terms.append((w, entry[1]))
            squares += w * w
        norm = math.sqrt(squares)
        sums = [0.0] * len(self.label_of)
        for w, postings in terms:
            q = w / norm
            for e, pw in postings:
                sums[e] += q * pw
        # round is monotone, so the top score is the rounded peak. Exemplars are
        # in label order, so the top label is the first exemplar's whose sum
        # rounds to it, which only a sum within 1e-12 of the peak can (the
        # margin is doubled for float error); the scan runs only when one of
        # them comes before the peak's first exemplar
        peak = max(sums)
        j = sums.index(peak)
        score, near = round(peak, _SCORE_DIGITS), peak - 2 * 10.0**-_SCORE_DIGITS
        if j and max(sums[:j]) >= near:
            j = next(i for i, s in enumerate(sums) if s >= near and round(s, _SCORE_DIGITS) == score)
        return Classification._of_sums(
            self.labels, self.label_of, sums, self.label_of[j], score, score >= THRESHOLD
        )


def _counts(tokens: list[str]) -> dict[str, int]:
    """How often each token occurs, in the order of first use."""
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    return counts


def train(pairs: Iterable[tuple[str, str]], labels: Iterable[str]) -> ClassifierModel:
    """Fit the lexical model to ``(utterance, label)`` pairs.

    ``labels`` is the set of admissible stage names (normally the catalog's);
    a pair with a label outside it is an authoring error. Duplicate pairs are
    harmless — per-label max aggregation makes them no-ops. The order of the
    pairs changes no score and no ranking.
    """
    pairs = list(pairs)
    if not pairs:
        raise InputError("empty training set")
    known = set(labels)
    for utterance, label in pairs:
        if label not in known:
            raise InputError(f"unknown label {label!r} for {utterance!r}")
    # a stable sort puts each label's exemplars together, in the file's order
    pairs.sort(key=itemgetter(1))

    docs = [_counts(keyword_parts(utterance)) for utterance, _ in pairs]
    n_docs = len(docs)
    df = _counts([t for doc in docs for t in doc])
    # smoothed idf keeps every weight positive so exact matches score 1.0
    idf = {t: math.log((1 + n_docs) / (1 + n)) + 1.0 for t, n in df.items()}
    default_idf = math.log(1 + n_docs) + 1.0

    postings: dict[str, list[tuple[int, float]]] = {t: [] for t in idf}
    for e, ((utterance, _), doc) in enumerate(zip(pairs, docs)):
        if not doc:
            raise InputError(f"training utterance has no tokens: {utterance!r}")
        weights = [(t, n * idf[t]) for t, n in doc.items()]
        # left to right: sum() of floats is compensated from Python 3.12 on
        squares = 0.0
        for _, w in weights:
            squares += w * w
        norm = math.sqrt(squares)
        for t, w in weights:
            postings[t].append((e, w / norm))
    names = sorted({label for _, label in pairs})
    positions = {label: i for i, label in enumerate(names)}
    return ClassifierModel(
        index={t: (idf[t], tuple(found)) for t, found in postings.items()},
        default_idf=default_idf,
        labels=names,
        label_of=[positions[label] for _, label in pairs],
    )


def load_training_pairs(path: str | Path) -> list[tuple[str, str]]:
    """The ``(utterance, label)`` pairs of a training file; each label must name a catalog stage."""
    raw = read_json(path, [{"utterance": str, "label": str}])
    return [(item["utterance"], item["label"]) for item in raw]


# --- keyword scan ----------------------------------------------------------


def keyword_scan(catalog: Catalog, text: str) -> set[str]:
    """Stages whose name or synonym occurs in ``text`` as a whole word.

    Matching is case-insensitive and an underscore in a stage name matches
    either an underscore or a space, so ``sql_server`` is found in
    "load from SQL Server". Substring hits do not count: "the filtered view"
    does not surface ``filter``.

    Keywords are found through a part index: the text is cut into its
    ``keyword_parts``, one intersection with the index's keys finds the
    parts that keywords are filed under, and a keyword's exact pattern runs
    only when all of the keyword's parts are among the text's (a keyword
    with no part, filed under ``""``, always runs).
    The parts fold the four non-ASCII code points that ``re.IGNORECASE``
    matches to ASCII: U+0130 and U+0131 to ``i``, U+017F to ``s`` and
    U+212A (the Kelvin sign) to ``k``. So the index never drops a match.
    """
    parts = {"", *keyword_parts(text)}
    index = catalog.keyword_index
    found: set[str] = set()
    for first in index.keys() & parts:
        for keyword in index[first]:
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
