"""Lexical stage classifier and catalog keyword scan.

The scoring oracle reimplements the documented formula from scratch —
smoothed idf, unit tf-idf vectors, cosine, per-label max — and must agree
with the model to the last rounded digit on randomized corpora. A second
oracle, ``score_every_exemplar``, is the model's scoring loop from before
its positional index; the indexed model must equal it bit for bit. The
scan oracle runs every keyword's pattern on every text, which the indexed
scan must agree with.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FakeResponse, make_catalog, make_stage
from flowgen import InputError, fixture_path
from flowgen.catalog import keyword_parts as tokenize
from flowgen.llm import ProviderError
from flowgen.classify import (
    Classification,
    RemoteClassifier,
    _unit,
    _vectorize,
    keyword_scan,
    load_training_pairs,
    train,
)


def fit(pairs: list[tuple[str, str]], threshold: float = 0.25):
    labels = {label for _, label in pairs}
    return train(pairs, labels, threshold=threshold)


# --- tokenizer ---------------------------------------------------------------------


def test_tokenize_lowercases_and_keeps_digits():
    assert tokenize("Row limit should be 50!") == ["row", "limit", "should", "be", "50"]
    assert tokenize("full_name") == ["full", "name"]
    assert tokenize("...") == []


# --- behaviour examples ---------------------------------------------------------------


def test_exact_training_text_scores_one():
    model = fit([("sort on the age column", "sort"), ("filter out pizza", "filter")])
    result = model.classify("sort on the age column")
    assert result.top == "sort"
    assert result.ranked[0][1] == 1.0
    assert result.matched


def test_zero_overlap_cannot_match():
    model = fit([("sort on the age column", "sort")])
    result = model.classify("quarterly revenue forecast")
    assert result.ranked[0][1] == 0.0
    assert not result.matched


def test_below_threshold_is_reported_but_unmatched():
    model = fit(
        [("alpha beta gamma delta epsilon zeta", "a"), ("omega psi chi phi", "b")],
        threshold=0.9,
    )
    result = model.classify("alpha beta")
    assert 0.0 < result.ranked[0][1] < 0.9
    # the best label is still visible; matched is what gates downstream use
    assert not result.matched and result.top == "a"


def test_ties_rank_lexicographically():
    model = fit([("alpha beta", "zz"), ("alpha beta", "aa")])
    result = model.classify("alpha beta")
    assert result.ranked[0] == ("aa", 1.0)
    assert result.ranked[1] == ("zz", 1.0)


def test_per_label_aggregation_takes_the_best_exemplar():
    model = fit([("one two three four", "x"), ("unrelated words entirely here", "x")])
    exact = model.classify("one two three four").ranked[0][1]
    assert exact == 1.0


def test_unknown_label_and_empty_training_rejected():
    with pytest.raises(InputError, match="unknown label"):
        train([("text", "ghost")], {"real"})
    with pytest.raises(InputError, match="empty training set"):
        train([], {"real"})
    with pytest.raises(InputError, match="no tokens"):
        train([("...", "real")], {"real"})


def test_row_limit_probe_finds_nothing_in_demo_pairs():
    pairs = load_training_pairs(fixture_path("demo_training_pairs.json"))
    model = train(pairs, {label for _, label in pairs})
    assert not model.classify("Row limit should be 50").matched


def test_classifier_folds_dotted_capital_i_like_the_keyword_scan():
    # str.lower() alone tokenizes "İzmir" as "i" + "zmir"
    model = fit([("load izmir data", "city"), ("sort the rows", "sort")])
    for spelling in ("\u0130zmir", "IZMIR", "\u0131zmir"):
        assert model.classify(f"load {spelling} data").ranked[0] == ("city", 1.0)


def test_demo_pairs_recall_their_own_labels():
    pairs = load_training_pairs(fixture_path("demo_training_pairs.json"))
    model = train(pairs, {label for _, label in pairs})
    for utterance, label in pairs:
        result = model.classify(utterance)
        assert result.matched and result.top == label, utterance


def test_load_training_pairs_rejects_malformed(tmp_path):
    bad = tmp_path / "pairs.json"
    bad.write_text(json.dumps([{"utterance": "x"}]))
    with pytest.raises(InputError, match="pair 0"):
        load_training_pairs(bad)
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(InputError, match="array"):
        load_training_pairs(bad)
    bad.write_text('[{"utterance": ')
    with pytest.raises(InputError, match="pairs.json: malformed JSON"):
        load_training_pairs(bad)


# --- oracle agreement -----------------------------------------------------------------


def oracle_scores(pairs: list[tuple[str, str]], query: str) -> dict[str, float]:
    docs = [tokenize(u) for u, _ in pairs]
    n = len(docs)
    df = Counter(t for doc in docs for t in set(doc))
    idf = lambda t: math.log((1 + n) / (1 + df.get(t, 0))) + 1.0

    def unit_vec(tokens):
        weights = {t: c * idf(t) for t, c in Counter(tokens).items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return {t: w / norm for t, w in weights.items()} if norm else {}

    q = unit_vec(tokenize(query))
    best: dict[str, float] = {label: 0.0 for _, label in pairs}
    for (utterance, label), doc in zip(pairs, docs):
        e = unit_vec(doc)
        score = round(sum(w * e.get(t, 0.0) for t, w in q.items()), 12)
        best[label] = max(best[label], score)
    return best


words = st.sampled_from(
    "sort filter join head tail sample rows columns data the from into limit 50".split()
)
utterances = st.lists(words, min_size=1, max_size=6).map(" ".join)
labels = st.sampled_from(["sort", "filter", "join", "head"])


@given(
    pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8),
    query=utterances,
)
def test_scores_match_brute_force_oracle(pairs, query):
    model = fit(pairs)
    expected = oracle_scores(pairs, query)
    result = model.classify(query)
    assert dict(result.ranked) == pytest.approx(expected, abs=1e-12)
    ranked_labels = [label for label, _ in result.ranked]
    assert ranked_labels == sorted(expected, key=lambda l: (-expected[l], l))


@given(pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8))
def test_memorization_holds_for_any_training_set(pairs):
    model = fit(pairs)
    for utterance, _ in pairs:
        assert model.classify(utterance).ranked[0][1] == 1.0


@given(
    pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8),
    query=utterances,
    threshold=st.floats(0.0, 1.0),
)
def test_matched_iff_top_score_reaches_threshold(pairs, query, threshold):
    model = fit(pairs, threshold=threshold)
    result = model.classify(query)
    assert result.matched == (result.ranked[0][1] >= threshold)


def score_every_exemplar(model, text: str) -> Classification:
    """The model's scoring loop from before its index: every exemplar, one at a time.

    Kept as it was, except that its ``sum`` is spelled out as the left-to-right
    additions that ``sum`` makes before Python 3.12 (3.12 compensates).
    """
    query = _unit(_vectorize(tokenize(text), model.idf, model.default_idf))
    exemplars = [(vec, model.labels[i]) for vec, i in zip(model.vectors, model.label_of)]
    best: dict[str, float] = {label: 0.0 for _, label in exemplars}
    for vec, label in exemplars:
        if len(query) < len(vec):
            small, big = query, vec
        else:
            small, big = vec, query
        score = 0.0
        for t, w in small.items():
            score += w * big.get(t, 0.0)
        score = round(score, 12)
        if score > best[label]:
            best[label] = score
    ranked = tuple(sorted(best.items(), key=lambda kv: (-kv[1], kv[0])))
    matched = bool(ranked) and ranked[0][1] >= model.threshold
    return Classification(ranked=ranked, matched=matched)


# few letters, so exemplars repeat tokens and share them with queries; "zz" is
# never trained
letters = st.sampled_from("abcdefghijklmnop")
letter_texts = st.lists(letters, min_size=1, max_size=12).map(" ".join)
letter_labels = st.sampled_from(["l0", "l1", "l2"])  # fewer labels than exemplars
letter_queries = st.lists(st.sampled_from([*"abcdefghijklmnop", "zz"]), max_size=14).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(letter_texts, letter_labels), min_size=1, max_size=8),
    queries=st.lists(letter_queries, min_size=1, max_size=4),
)
def test_indexed_scores_equal_every_exemplar_bit_for_bit(pairs, queries):
    model = fit(pairs)
    for query in queries:
        assert model.classify(query) == score_every_exemplar(model, query)


# found by search: the last digit of ``l5``'s score depends on summing each
# exemplar's terms in the order of the shorter vector
@pytest.mark.parametrize(
    ("utterances", "query", "score"),
    [
        # the query is shorter than l5's exemplar: query order; exemplar order gives ...284
        (
            "e o d i e h n j/f i b c k j i o l p o/m h e o p g/k f m e b p k p g d/h g k b p b a/"
            "d e h i h d j p l o p b",
            "l o p",
            0.513951897283,
        ),
        # the query is longer: exemplar order; query order gives ...666
        (
            "k d a p l m c i h b/o f b e o a/b l n o k c/b l c e i i o f/i a b j l n j e/"
            "a m o k j b",
            "h a l j p g c n e e k f o",
            0.361688983667,
        ),
        # as long as it: exemplar order; query order gives ...667
        (
            "l p j i p c g g n n/i d o l i k d e o o c e/b m g g e n l e d/f k k d k/"
            "f i a c c e e g i/m a o o e n g o g g k b",
            "m e g b o o j c o d",
            0.783698244668,
        ),
    ],
    ids=["query-shorter", "query-longer", "same-length"],
)
def test_each_exemplar_sums_in_the_order_of_the_shorter_vector(utterances, query, score):
    model = fit([(u, f"l{i}") for i, u in enumerate(utterances.split("/"))])
    result = model.classify(query)
    assert dict(result.ranked)["l5"] == score
    assert result == score_every_exemplar(model, query)


# --- keyword scan ----------------------------------------------------------------------


@pytest.fixture()
def scan_catalog():
    return make_catalog(
        make_stage("sql_server", synonyms=("sqlserver",), is_connector=True),
        make_stage("filter"),
        make_stage("head"),
    )


def test_underscore_matches_space_and_case_is_ignored(scan_catalog):
    assert keyword_scan(scan_catalog, "load from SQL Server tables") == {"sql_server"}
    assert keyword_scan(scan_catalog, "use sql_server now") == {"sql_server"}


def test_synonyms_surface_their_stage(scan_catalog):
    assert keyword_scan(scan_catalog, "push to SQLSERVER") == {"sql_server"}


def test_whole_word_only(scan_catalog):
    assert keyword_scan(scan_catalog, "the filtered view moves ahead") == set()
    assert keyword_scan(scan_catalog, "apply filter, then head.") == {"filter", "head"}


def test_scan_finds_nothing_in_unrelated_text(scan_catalog):
    assert keyword_scan(scan_catalog, "completely unrelated words") == set()


def test_scan_folds_what_ignorecase_matches_to_ascii():
    catalog = make_catalog(make_stage("kiss"), make_stage("sik"))
    # Kelvin sign, dotted capital I and long s; then dotless i
    assert keyword_scan(catalog, "\u212a\u0130\u017fs") == {"kiss"}
    assert keyword_scan(catalog, "s\u0131k") == {"sik"}
    # "í" and "ß" are no spellings of i and ss
    assert keyword_scan(catalog, "k\u00ed\u00df, s\u00edk") == set()


def test_scan_finds_a_synonym_spelled_with_dotted_capital_i():
    # str.lower() alone files "İzmir" as "i" + U+0307 + "zmir", which none of these holds
    catalog = make_catalog(make_stage("city", synonyms=("\u0130zmir",)))
    for spelling in ("\u0130zmir", "izmir", "IZMIR", "\u0131zmir"):
        assert keyword_scan(catalog, f"load {spelling} data") == {"city"}


def scan_every_pattern(catalog, text: str) -> set[str]:
    """The scan without its part index: every keyword's pattern, searched in ``text``."""
    found: set[str] = set()
    for keyword, stages in catalog.synonym_index.items():
        pattern = r"\b" + re.escape(keyword).replace("_", "[_ ]") + r"\b"
        if re.search(pattern, text, re.IGNORECASE):
            found.update(stages)
    return found


# i, s and k have non-ASCII spellings that re.IGNORECASE matches, so keywords
# are heavy in them; "é" is a letter it matches to no ASCII one
_KEYWORD_CHARS = [*"iiisskkab1", "\u0130", "\u0131", "\u017f", "\u212a", "\u00e9"]
# the spellings of a keyword character that re.IGNORECASE matches, the
# non-ASCII ones weighted up
_SPELLINGS = {
    "i": ["i", "I", "\u0130", "\u0130", "\u0131", "\u0131"],
    "s": ["s", "S", "\u017f", "\u017f"],
    "k": ["k", "K", "\u212a", "\u212a"],
}

keyword_words = st.lists(st.sampled_from(_KEYWORD_CHARS), min_size=1, max_size=5).map("".join)
keywords = st.builds(
    lambda words, sep: sep.join(words),
    st.lists(keyword_words, min_size=1, max_size=3),
    st.sampled_from([" ", "-", "_"]),
)
partless_keywords = st.text(alphabet="\u00e9-_ ", min_size=1, max_size=3)


@st.composite
def scan_cases(draw):
    synonyms = draw(st.lists(keywords, min_size=1, max_size=6))
    synonyms.append(draw(partless_keywords))
    stages = [
        make_stage(f"st{i}", synonyms=tuple(synonyms[i::3])) for i in range(min(3, len(synonyms)))
    ]
    catalog = make_catalog(*stages)
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            keyword = draw(st.sampled_from(list(catalog.synonym_index)))
            pieces.append(
                "".join(draw(st.sampled_from(_SPELLINGS.get(c, [c, c.upper()]))) for c in keyword)
            )
        else:
            pieces.append(draw(st.text(alphabet=[*_KEYWORD_CHARS, *"AB9_- "], max_size=6)))
    seps = st.sampled_from(["", " ", "-", "_", "\u00e9", ", "])
    text = "".join(piece + draw(seps) for piece in pieces)
    return catalog, text


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example((make_catalog(make_stage("kiss"), make_stage("sik")), "say \u212a\u0130\u017fs, s\u0131k!"))
def test_indexed_scan_agrees_with_every_pattern(case):
    catalog, text = case
    assert keyword_scan(catalog, text) == scan_every_pattern(catalog, text)


def test_indexed_scan_agrees_with_every_pattern_on_the_synthetic_corpus():
    from flowgen.catalog import load_catalog

    catalog = load_catalog(fixture_path("synthetic_catalog.json"))
    records = json.loads(fixture_path("synthetic_utterances.json").read_text(encoding="utf-8"))
    hits = 0
    for record in records:
        found = keyword_scan(catalog, record["utterance"])
        assert found == scan_every_pattern(catalog, record["utterance"])
        hits += len(found)
    assert hits > 0


# --- remote contract --------------------------------------------------------------------


def test_remote_classifier_parses_contract(monkeypatch):
    class FakeResponse:
        status_code = 200

        def raise_for_status(self):
            pass

        def json(self):
            return {"ranked": [["sort", 0.9], ["filter", 0.1]], "matched": True}

    calls = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        calls["url"], calls["payload"] = url, json
        return FakeResponse()

    monkeypatch.setattr("requests.post", fake_post)
    result = RemoteClassifier("http://cls.local/").classify("sort it")
    assert calls["url"] == "http://cls.local/classify"
    assert calls["payload"] == {"text": "sort it"}
    assert result.top == "sort" and result.matched


def test_remote_classifier_wraps_malformed_payloads(monkeypatch):
    for body in [
        {"oops": True},
        {"ranked": [["sort", 0.1]], "matched": "false"},  # bool("false") is True
        {"ranked": {"a1": 0}, "matched": 0},  # unpacks as (("a", 1.0),)
        {"ranked": [["sort", True]], "matched": True},  # a boolean is not a score
        {"ranked": [["sort", 10**400]], "matched": True},  # float() overflows
        {"ranked": [["sort", float("nan")]], "matched": True},
    ]:
        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, json.dumps(body)))
        with pytest.raises(ProviderError, match="malformed"):
            RemoteClassifier("http://cls.local").classify("x")


def test_remote_classifier_retries_server_errors(monkeypatch):
    replies = [FakeResponse(503, "busy"), FakeResponse(200, '{"ranked": [], "matched": false}')]
    monkeypatch.setattr("requests.post", lambda *a, **k: replies.pop(0))
    monkeypatch.setattr("flowgen.llm.time.sleep", lambda s: None)
    result = RemoteClassifier("http://cls.local").classify("x")
    assert replies == [] and result == Classification(ranked=(), matched=False)
