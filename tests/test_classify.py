"""Lexical stage classifier and catalog keyword scan.

The scoring oracle reimplements the documented formula from scratch —
smoothed idf, unit tf-idf vectors, cosine summed in the query's order,
then rounded, per-label max — visiting every exemplar, and the indexed
model must equal it exactly on randomized corpora. The scan oracle runs
every keyword's pattern on every text, which the indexed scan must agree
with.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import Reply, make_catalog, make_stage, record_timeouts
from flowgen import InputError, fixture_path
from flowgen.catalog import keyword_parts as tokenize
from flowgen.llm import ProviderError
from flowgen.classify import (
    THRESHOLD,
    Classification,
    RemoteClassifier,
    keyword_scan,
    load_training_pairs,
    train,
)


def fit(pairs: list[tuple[str, str]]):
    return train(pairs, {label for _, label in pairs})


# --- tokenizer ---------------------------------------------------------------------


def test_tokenize_lowercases_and_keeps_digits():
    assert tokenize("Row limit should be 50!") == ["row", "limit", "should", "be", "50"]
    assert tokenize("full_name") == ["full", "name"]
    assert tokenize("...") == []


# the four code points that keyword_parts folds to ASCII, then other non-ASCII letters
_FOLDS = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})
_FOLD_ALPHABET = st.sampled_from(
    [*"aIkS9_ -", "\u0130", "\u0131", "\u017f", "\u212a", "\u00e9", "\u00df", "\u03a3", "\u212b"]
)


@given(st.text(alphabet=st.characters(max_codepoint=127)) | st.text(alphabet=_FOLD_ALPHABET))
@example("\u212a\u0130\u017fs s\u0131k")
def test_tokenize_gives_the_parts_of_the_folded_text(text):
    # an ASCII text skips the fold; every text must split as if folded
    assert tokenize(text) == re.findall(r"[a-z0-9]+", text.translate(_FOLDS).lower())


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
    model = fit([("alpha beta gamma delta epsilon zeta", "a"), ("omega psi chi phi", "b")])
    result = model.classify("alpha quarterly revenue")
    assert 0.0 < result.ranked[0][1] < THRESHOLD
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


def oracle(pairs: list[tuple[str, str]], query: str) -> Classification:
    """The documented formula over every exemplar, each sum spelled out left to right."""
    docs = [tokenize(u) for u, _ in pairs]
    n = len(docs)
    df = Counter(t for doc in docs for t in set(doc))
    idf = lambda t: math.log((1 + n) / (1 + df.get(t, 0))) + 1.0

    def unit_vec(tokens):
        weights = {t: c * idf(t) for t, c in Counter(tokens).items()}
        squares = 0.0
        for w in weights.values():
            squares += w * w
        norm = math.sqrt(squares)
        return {t: w / norm for t, w in weights.items()} if norm else {}

    q = unit_vec(tokenize(query))
    best: dict[str, float] = {label: 0.0 for _, label in pairs}
    for (_, label), doc in zip(pairs, docs):
        e = unit_vec(doc)
        score = 0.0
        for t, w in q.items():  # the query's order
            if t in e:
                score += w * e[t]
        best[label] = max(best[label], round(score, 12))
    ranked = tuple(sorted(best.items(), key=lambda kv: (-kv[1], kv[0])))
    return Classification(ranked=ranked, matched=ranked[0][1] >= 0.25)


words = st.sampled_from(
    "sort filter join head tail sample rows columns data the from into limit 50".split()
)
utterances = st.lists(words, min_size=1, max_size=6).map(" ".join)
labels = st.sampled_from(["sort", "filter", "join", "head"])

# few letters, so exemplars repeat tokens and share them with queries; "zz" is
# never trained
letters = st.sampled_from("abcdefghijklmnop")
letter_texts = st.lists(letters, min_size=1, max_size=12).map(" ".join)
letter_labels = st.sampled_from(["l0", "l1", "l2"])  # fewer labels than exemplars
letter_queries = st.lists(st.sampled_from([*"abcdefghijklmnop", "zz"]), max_size=14).map(" ".join)


@given(
    pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8),
    query=utterances,
)
def test_scores_match_brute_force_oracle(pairs, query):
    assert fit(pairs).classify(query) == oracle(pairs, query)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(letter_texts, letter_labels), min_size=1, max_size=8),
    queries=st.lists(letter_queries, min_size=1, max_size=4),
)
def test_indexed_scores_equal_every_exemplar_bit_for_bit(pairs, queries):
    model = fit(pairs)
    for query in queries:
        assert model.classify(query) == oracle(pairs, query)


@given(pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8))
def test_memorization_holds_for_any_training_set(pairs):
    model = fit(pairs)
    for utterance, _ in pairs:
        assert model.classify(utterance).ranked[0][1] == 1.0


@given(
    pairs=st.lists(st.tuples(utterances, labels), min_size=1, max_size=8),
    query=utterances,
)
def test_matched_iff_top_score_reaches_threshold(pairs, query):
    result = fit(pairs).classify(query)
    assert result.matched == (result.ranked[0][1] >= THRESHOLD)


# found by search: the last digit of ``l5``'s score depends on the order in
# which its terms are added
@pytest.mark.parametrize(
    ("utterances", "query", "score"),
    [
        # the query is shorter than l5's exemplar; the exemplar's order gives ...284
        (
            "e o d i e h n j/f i b c k j i o l p o/m h e o p g/k f m e b p k p g d/h g k b p b a/"
            "d e h i h d j p l o p b",
            "l o p",
            0.513951897283,
        ),
        # the query is longer; the exemplar's order gives ...667
        (
            "k d a p l m c i h b/o f b e o a/b l n o k c/b l c e i i o f/i a b j l n j e/"
            "a m o k j b",
            "h a l j p g c n e e k f o",
            0.361688983666,
        ),
        # as long as it; the exemplar's order gives ...668
        (
            "l p j i p c g g n n/i d o l i k d e o o c e/b m g g e n l e d/f k k d k/"
            "f i a c c e e g i/m a o o e n g o g g k b",
            "m e g b o o j c o d",
            0.783698244667,
        ),
    ],
    ids=["query-shorter", "query-longer", "same-length"],
)
def test_each_exemplar_sums_in_the_query_order(utterances, query, score):
    pairs = [(u, f"l{i}") for i, u in enumerate(utterances.split("/"))]
    result = fit(pairs).classify(query)
    assert dict(result.ranked)["l5"] == score
    assert result == oracle(pairs, query)


def test_scores_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    # sum() of floats is compensated from Python 3.12 on; math.fsum stands in
    # for it, and the norm's left-to-right sum gives ...211 on every version
    pairs = load_training_pairs(fixture_path("synthetic_training_pairs.json"))
    query = "stage warehouse the use pivot run to the cycle emberly stage batch"
    monkeypatch.setattr("flowgen.classify.sum", math.fsum, raising=False)
    model = train(pairs, {label for _, label in pairs})
    assert dict(model.classify(query).ranked)["emberly_archive"] == 0.546471710211


# each text is trained under one to three labels, so equal scores are common
tied_labels = st.lists(st.sampled_from(["l0", "l1", "l2", "l3", "l4"]), min_size=1, max_size=3)
tied_pairs = st.lists(st.tuples(letter_texts, tied_labels), min_size=1, max_size=6).map(
    lambda groups: [(text, label) for text, names in groups for label in names]
)


# two raw maxima that differ only below the rounding, in the wrong order
ROUNDING_TIE = [("e a f a c", "zz"), ("a e f b b", "aa"), ("b c g b d d", "aa")]


@settings(max_examples=300, deadline=None)
@given(pairs=tied_pairs, queries=st.lists(letter_queries, min_size=1, max_size=4))
@example(pairs=ROUNDING_TIE, queries=["f"])
def test_head_read_before_the_ranking_is_the_oracles_head(pairs, queries):
    model = fit(pairs)
    for query in queries:
        expected = oracle(pairs, query)
        result = model.classify(query)
        # the head first: nothing has built the ranking yet
        assert (result.top, result.score, result.matched) == (*expected.ranked[0], expected.matched)
        assert result.ranked == expected.ranked
        assert result.ranked[0] == (result.top, result.score)
        assert result == expected


def test_a_tie_made_by_rounding_goes_to_the_first_label():
    # zz's raw maximum (0.37796447300922725) exceeds aa's (0.3779644730092272),
    # but both round to 0.377964473009, so the tie goes to aa
    result = fit(ROUNDING_TIE).classify("f")
    assert (result.top, result.score, result.matched) == ("aa", 0.377964473009, True)
    assert result.ranked == (("aa", 0.377964473009), ("zz", 0.377964473009))
    assert result == oracle(ROUNDING_TIE, "f")


# pairs, then the same pairs in another order
shuffled_pairs = tied_pairs.flatmap(lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs)))


@settings(max_examples=200, deadline=None)
@given(case=shuffled_pairs, queries=st.lists(letter_queries, min_size=1, max_size=4))
# aa's exemplars come first once ordered by label, and one of them is within
# the rounding of zz's larger peak, so the head comes from the scan
@example(case=(ROUNDING_TIE, ROUNDING_TIE[::-1]), queries=["f"])
def test_the_order_of_the_training_pairs_changes_nothing(case, queries):
    pairs, shuffled = case
    model = fit(shuffled)
    for query in queries:
        expected = oracle(pairs, query)
        result = model.classify(query)
        assert (result.top, result.score, result.matched) == (*expected.ranked[0], expected.matched)
        assert result.ranked == expected.ranked
        assert result == expected


def test_train_orders_exemplars_by_label_keeping_the_file_order():
    model = fit([("c c", "y"), ("b b", "x"), ("a a", "y"), ("d d", "x")])
    assert (model.labels, model.label_of) == (["x", "y"], [0, 0, 1, 1])
    # each exemplar holds one token, so a token's posting names its exemplar
    assert {t: [e for e, _ in postings] for t, (_, postings) in model.index.items()} == {
        "b": [0], "d": [1], "c": [2], "a": [3]
    }


def test_an_explicit_ranking_gives_its_first_pair_as_the_head():
    result = Classification(ranked=(("sort", 0.75), ("head", 0.5)), matched=True)
    assert (result.top, result.score) == ("sort", 0.75)
    empty = Classification(ranked=(), matched=False)
    assert (empty.top, empty.score) == (None, 0.0)


def test_recall_on_the_synthetic_corpus_is_pinned():
    """Each gold sub-utterance of 1000 synthetic utterances, classified by the bundled model.

    Pinned so that a change to the classifier shows as a change of accuracy.
    The keyword scan finds every gold stage in its utterance; the classifier
    matches the gold label a quarter of the time, yet always ranks it in its top 5.
    """
    from flowgen.catalog import load_catalog
    from flowgen.synthdata import generate_utterances

    catalog = load_catalog(fixture_path("synthetic_catalog.json"))
    model = train(load_training_pairs(fixture_path("synthetic_training_pairs.json")), catalog.stages)
    pairs, scanned = [], 0
    for k in range(50):
        for record in generate_utterances(catalog, seed=f"4242:{k}", count=20):
            hits = keyword_scan(catalog, record.utterance)
            scanned += sum(gold in hits for gold in record.gold_stages)
            pairs += zip(record.subs, record.gold_stages)
    outcomes = Counter()
    within = Counter()
    for sub, gold in pairs:
        result = model.classify(sub)
        outcomes["below" if not result.matched else "right" if result.top == gold else "wrong"] += 1
        labels = [label for label, _ in result.ranked]
        for n in (1, 3, 5):
            within[n] += gold in labels[:n]
    assert len(pairs) == 2000
    assert outcomes == {"right": 511, "wrong": 41, "below": 1448}
    assert within == {1: 1694, 3: 1974, 5: 2000}
    assert scanned == 2000


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


def folded_keywords(catalog) -> dict[str, set[str]]:
    """Each stage name and synonym, folded and lowercased, with the stages it names."""
    stages_of: dict[str, set[str]] = {}
    for stage in catalog.stages.values():
        for keyword in (stage.name, *stage.synonyms):
            stages_of.setdefault(keyword.translate(_FOLDS).lower(), set()).add(stage.name)
    return stages_of


def scan_every_pattern(catalog, text: str) -> set[str]:
    """The scan without its part index: every keyword's pattern, searched in ``text``."""
    found: set[str] = set()
    for keyword, stages in folded_keywords(catalog).items():
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
            keyword = draw(st.sampled_from(list(folded_keywords(catalog))))
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


def test_remote_classifier_parses_contract(http_endpoint, monkeypatch):
    http_endpoint.replies.append(Reply(200, '{"ranked": [["sort", 0.9], ["filter", 0.1]], "matched": true}'))
    timeouts = record_timeouts(monkeypatch)
    result = RemoteClassifier(http_endpoint.url + "/").classify("sort it")
    assert timeouts == [30.0]
    (seen,) = http_endpoint.seen
    assert (seen.path, seen.body) == ("/classify", {"text": "sort it"})
    assert result.top == "sort" and result.matched


def test_remote_classifier_wraps_malformed_payloads(http_endpoint):
    for body in [
        {"oops": True},
        {"ranked": [["sort", 0.1]], "matched": "false"},  # bool("false") is True
        {"ranked": {"a1": 0}, "matched": 0},  # unpacks as (("a", 1.0),)
        {"ranked": [["sort", True]], "matched": True},  # a boolean is not a score
        {"ranked": [["sort", 10**400]], "matched": True},  # float() overflows
        {"ranked": [["sort", float("nan")]], "matched": True},
    ]:
        http_endpoint.replies.append(Reply(200, json.dumps(body)))
        with pytest.raises(ProviderError, match="malformed"):
            RemoteClassifier(http_endpoint.url).classify("x")
    assert len(http_endpoint.seen) == 6


def test_remote_classifier_retries_server_errors(http_endpoint, monkeypatch):
    http_endpoint.replies += [Reply(503, "busy"), Reply(200, '{"ranked": [], "matched": false}')]
    monkeypatch.setattr("flowgen.llm.time.sleep", lambda s: None)
    result = RemoteClassifier(http_endpoint.url).classify("x")
    assert len(http_endpoint.seen) == 2 and result == Classification(ranked=(), matched=False)