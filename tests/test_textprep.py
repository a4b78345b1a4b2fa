"""Tokenization, n-grams, sparse DFM construction and trimming."""

import itertools
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from polilean import textprep
from polilean.pipeline import align_network, join_features
from polilean.resources import smart_stopwords
from polilean.textprep import (
    Grams,
    SparseDFM,
    build_dfm,
    build_network_matrix,
    gram_keys,
    gram_names,
    load_dfm,
    ngram_counts,
    porter_stem,
    save_dfm,
    stem_codes,
    tokenize,
    tokenize_matching,
    trim_sparse,
)

# ----------------------------------------------------------------------
# the per-tweet string path that the keyed counts replaced, kept as the
# oracle


def oracle_stems(text: str, stopwords: frozenset[str]) -> list[str]:
    """One tweet's tokens, stopwords dropped, then stemmed."""
    return [porter_stem(t) for t in tokenize(text) if t not in stopwords]


def oracle_ngrams(stems: list[str]) -> Counter:
    """One tweet's 1-3-grams joined with "_"."""
    grams = Counter()
    for n in (1, 2, 3):
        for i in range(len(stems) - n + 1):
            grams["_".join(stems[i : i + n])] += 1
    return grams


def oracle_counts(tweets, stopwords: frozenset[str]) -> Counter:
    """A user document's n-gram counts, merged tweet by tweet."""
    counts = Counter()
    for text in tweets:
        counts.update(oracle_ngrams(oracle_stems(text, stopwords)))
    return counts


def decoded(grams: Grams) -> Counter:
    """Keyed counts as a name -> count Counter."""
    return Counter(dict(zip(gram_names(grams.keys), grams.counts.tolist())))


def grams_of(*tweets: str, stopwords: frozenset[str] = frozenset()) -> Grams:
    return ngram_counts(stem_codes(tweets, stopwords))


def _stems(text: str, stopwords: frozenset[str]) -> list[str]:
    """The stems of one tweet: a unigram's key is its stem id."""
    return gram_names(stem_codes([text], stopwords))


_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_urls_removed(self):
        assert tokenize("read https://example.com/a?b=1 now") == ["read", "now"]
        assert tokenize("see www.example.com too") == ["see", "too"]
        assert tokenize("HTTP://CAPS.example.org stays gone") == ["stays", "gone"]

    def test_digits_and_punctuation_separate(self):
        assert tokenize("don't 2-0 win") == ["don", "t", "win"]
        assert tokenize("123") == []

    def test_hashtags_lose_their_marker(self):
        assert tokenize("#Politics @user") == ["politics", "user"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n ") == []

    def test_pinned_on_adversarial_text(self):
        # the skip-gram and the language filter read these tokens, so
        # they must equal the split form whatever else tokenizes
        cases = {
            "Run\u212aing \u0130stanbul \u03a3\u039f\u03a6\u039f\u03a3 ok\u03a3": [
                "runking", "i", "stanbul", "ok"],
            "GOAL!!! 2-0 #Spurs @BBCSport http://t.co/x": ["goal", "spurs", "bbcsport"],
            "read www.x.com/a\nnow HTTPS://Y.Z/": ["read", "now"],
            "ab1cd _x_ caf\u00e9\tend": ["ab", "cd", "x", "caf", "end"],
        }
        for text, want in cases.items():
            split = [t for t in re.split(r"[^a-z]+", _URL.sub(" ", text).lower()) if t]
            assert tokenize(text) == split == want, text


class TestTokenizeMatching:
    def test_hashtags_and_mentions_survive(self):
        assert tokenize_matching("#GE2015 is near @BBCNews") == [
            "#ge2015", "is", "near", "@bbcnews",
        ]

    def test_underscores_and_digits_kept(self):
        assert tokenize_matching("vote_2015 now") == ["vote_2015", "now"]

    def test_bare_markers_dropped(self):
        assert tokenize_matching("# @ _ #@_ ok") == ["ok"]

    def test_urls_removed_before_matching(self):
        assert tokenize_matching("https://x.com/#anchor #tag") == ["#tag"]


class TestStopwordsAndPreprocess:
    STOPS = frozenset({"the", "and", "do"})

    def test_remove_stopwords(self):
        assert _stems("the cat and dog", self.STOPS) == ["cat", "dog"]
        assert decoded(grams_of("the cat and dog", stopwords=self.STOPS)) == Counter(
            {"cat": 1, "dog": 1, "cat_dog": 1})

    def test_stopwords_removed_before_stemming(self):
        # "doing" stems to the stopword "do" but survives: the stopword
        # check is on raw tokens, then the survivors are stemmed
        assert _stems("doing the dance", self.STOPS) == ["do", "danc"]

    def test_full_chain(self):
        stops = frozenset({"a", "the"})
        assert _stems("The runners a running", stops) == ["runner", "run"]


class TestNgrams:
    def test_hand_counts(self):
        assert decoded(grams_of("a b c")) == Counter(
            {"a": 1, "b": 1, "c": 1, "a_b": 1, "b_c": 1, "a_b_c": 1}
        )

    def test_repeated_tokens_accumulate(self):
        assert decoded(grams_of("x x x")) == Counter({"x": 3, "x_x": 2, "x_x_x": 1})

    def test_orders_subset(self):
        # a two-stem tweet has grams of orders 1 and 2 only
        assert decoded(grams_of("a b")) == Counter({"a": 1, "b": 1, "a_b": 1})

    def test_short_input(self):
        assert decoded(grams_of()) == Counter()
        assert decoded(grams_of("solo")) == Counter({"solo": 1})

    def test_grams_never_cross_tweets(self):
        # two tweets share no bigram, even when one ends in a URL or
        # holds a newline of its own
        assert decoded(grams_of("end", "start")) == Counter({"end": 1, "start": 1})
        assert "end_start" not in decoded(grams_of("x end https://t.co/a", "start"))
        assert decoded(grams_of("end\nstart")) == Counter(
            {"end": 1, "start": 1, "end_start": 1})


class TestKeyedCountsMatchOracle:
    """The keyed counts of a document, decoded, are the string oracle's
    counts; keys are strictly increasing and counts positive."""

    DOCUMENTS = {
        "url at a tweet's end": ["vote now https://t.co/abc", "www.x.com/y then more"],
        "newline inside tweets": ["red\ncard", "again\n\nred card", "\n"],
        "case": ["The RED Card", "red CARD again", "KING kIng"],
        "kelvin, dotted I and final sigma": [
            "\u212aing size \u212a", "\u0130stanbul \u0130I", "\u039f\u03a3 ok\u03a3 \u03c3ok"],
        "digits and hashtags": ["2-0 to #Spurs @BBCSport", "vote_2015 #GE2015 ge2015"],
        "stopword-only and empty tweets": ["", "the and of", "  ", "goal", "the", "goal"],
        "empty document": [],
    }

    def test_adversarial_documents(self):
        stopwords = smart_stopwords()
        for name, tweets in self.DOCUMENTS.items():
            grams = grams_of(*tweets, stopwords=stopwords)
            assert decoded(grams) == oracle_counts(tweets, stopwords), name
            assert grams.keys.dtype == grams.counts.dtype == np.int64
            assert (np.diff(grams.keys) > 0).all() and (grams.counts > 0).all(), name
            assert sum(grams.values()) == sum(oracle_counts(tweets, stopwords).values())

    def test_names_and_keys_round_trip(self):
        grams = grams_of("alpha beta gamma", "beta alpha")
        names = gram_names(grams.keys)
        assert np.array_equal(gram_keys(names), grams.keys)
        # unknown stems, more than three parts and empty parts match nothing
        assert gram_keys(["zzqx", "alpha_beta_gamma_alpha", "", "alpha__beta"]).tolist() == [
            -1, -1, -1, -1]

    def test_each_distinct_token_is_stemmed_once(self, monkeypatch):
        calls = Counter()

        def counting(token):
            calls[token] += 1
            return porter_stem(token)

        monkeypatch.setattr(textprep, "_TABLE", textprep._StemTable())
        monkeypatch.setattr(textprep, "porter_stem", counting)
        stops = frozenset({"the"})
        first = grams_of("the runner running", "runs the run", stopwords=stops)
        assert calls == Counter({"runner": 1, "running": 1, "runs": 1, "run": 1})
        assert grams_of("running the run", stopwords=stops).keys.size
        assert sum(calls.values()) == 4
        # another stopword list decides stopwords anew and keeps the ids
        again = grams_of("the runner running", stopwords=frozenset())
        assert decoded(again) - decoded(first) == Counter(
            {"the": 1, "the_runner": 1, "the_runner_run": 1})
        assert calls["the"] == 1

    def test_too_many_stems_is_an_error(self, monkeypatch):
        monkeypatch.setattr(textprep, "_TABLE", textprep._StemTable())
        monkeypatch.setattr(textprep, "MAX_STEMS", 3)
        assert decoded(grams_of("alpha beta gamma"))["alpha_beta_gamma"] == 1
        with pytest.raises(ValueError, match="more than 3 distinct stems"):
            grams_of("alpha delta")
        assert decoded(grams_of("gamma alpha")) == Counter(
            {"gamma": 1, "alpha": 1, "gamma_alpha": 1})


class TestBuildDfm:
    def test_rows_follow_mapping_order_columns_sorted(self):
        docs = {"u2": grams_of("b", "b", "a"), "u0": grams_of(), "u1": grams_of("c", "c", "c")}
        dfm = build_dfm(docs, sparsity=1.0)
        assert dfm.row_ids == ("u2", "u0", "u1")
        assert dfm.col_ids == ("a", "b", "c")
        assert np.array_equal(
            np.asarray(dfm.matrix.todense()), [[1, 2, 0], [0, 0, 0], [0, 0, 3]]
        )
        assert dfm.empty_rows() == ["u0"]

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            build_dfm({}, sparsity=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseDFM(sp.csr_matrix((2, 2)), ("a",), ("x", "y"))
        with pytest.raises(ValueError):  # one feature mapping per row id
            SparseDFM.from_rows(("a", "b"), [{"x": 1}], ("x", "y"))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            SparseDFM(sp.csr_matrix((2, 1)), ("a", "a"), ("x",))
        with pytest.raises(ValueError, match="duplicate row ids"):
            SparseDFM.from_rows(("a", "a"), [{"x": 1}, {"x": 2}], ("x",))

    def test_duplicate_columns_rejected(self):
        # a repeated column would take every count of its name, leaving
        # the earlier copy zero and the rows misaligned to the model
        with pytest.raises(ValueError, match="duplicate column ids"):
            SparseDFM(sp.csr_matrix((1, 2)), ("a",), ("x", "x"))
        with pytest.raises(ValueError, match="duplicate column ids"):
            SparseDFM.from_rows(("a",), [{"x": 1, "y": 2}], ("x", "y", "x"))
        with pytest.raises(ValueError, match="duplicate column ids"):
            align_network({"u1": ["x", "y"]}, ["u1"], ["x", "y", "x"])

    def test_sparsity_trims_before_the_matrix_is_built(self):
        docs = {"u1": grams_of("common", "rare"), "u2": grams_of("common", "common")}
        assert build_dfm(docs, sparsity=0.5).col_ids == ("common",)
        assert build_dfm(docs, sparsity=0.51).col_ids == ("common", "rare")
        with pytest.raises(ValueError, match="sparsity must be in"):
            build_dfm(docs, sparsity=0.0)


def _parent_untrimmed_dfm(docs, kind="text"):
    """The untrimmed build_dfm and the per-item from_rows loop over
    string Counters, kept as the oracle."""
    row_ids = tuple(docs)
    vocab = sorted(set().union(*(docs[u].keys() for u in row_ids)))
    col_index = {f: j for j, f in enumerate(vocab)}
    data, ii, jj = [], [], []
    for i, (_, row) in enumerate(zip(row_ids, (docs[u] for u in row_ids), strict=True)):
        for feat, value in row.items():
            j = col_index.get(feat)
            if j is not None:
                ii.append(i)
                jj.append(j)
                data.append(value)
    matrix = sp.csr_matrix(
        (data, (ii, jj)), shape=(len(row_ids), len(vocab)), dtype=np.float64
    )
    return SparseDFM(matrix, row_ids, tuple(vocab), kind)


def random_documents(rng, n_users=40, n_words=14):
    """User documents over a small vocabulary, word i drawn with a weight
    that grows with i, so every sparsity keeps some features; plus an
    empty and a stopword-only document."""
    words = ["vote", "voting", "match", "goal", "goals", "red", "card", "runner",
             "running", "king", "\u212aing", "news", "Tory", "labour"][:n_words]
    weights = np.linspace(0.02, 0.98, len(words))
    weights /= weights.sum()
    docs = {}
    for i in rng.permutation(n_users):
        tweets = []
        for _ in range(int(rng.integers(1, 8))):
            tokens = list(rng.choice(words, size=int(rng.integers(0, 7)), p=weights))
            if rng.random() < 0.3:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), "the")
            if rng.random() < 0.2:
                tokens.append("https://t.co/x")
            tweets.append(" ".join(tokens))
        docs[f"u{i:03d}"] = tweets
    docs["u_empty"] = []
    docs["u_stop"] = ["the", "and of the"]
    return docs


class TestBuildDfmMatchesTrimOracle:
    """build_dfm over keyed counts is the untrimmed string-Counter DFM
    followed by trim_sparse(·, s), bit for bit."""

    @pytest.mark.parametrize("sparsity", [0.5, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal(self, sparsity, seed):
        stopwords = smart_stopwords()
        texts = random_documents(np.random.default_rng(seed))
        docs = {u: grams_of(*t, stopwords=stopwords) for u, t in texts.items()}
        oracle = {u: oracle_counts(t, stopwords) for u, t in texts.items()}
        want = trim_sparse(_parent_untrimmed_dfm(oracle), sparsity)
        got = build_dfm(docs, sparsity)
        assert got.row_ids == want.row_ids
        assert got.col_ids == want.col_ids
        assert got.kind == want.kind
        assert got.matrix.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_everything_trimmed_is_the_same_error(self):
        words = ["".join(w) for w in itertools.product("bcdfg", repeat=3)][:100]
        docs = {f"u{i}": grams_of(w) for i, w in enumerate(words)}
        oracle = {f"u{i}": Counter({porter_stem(w): 1}) for i, w in enumerate(words)}
        with pytest.raises(ValueError, match="removed every feature") as new:
            build_dfm(docs, 0.5)
        with pytest.raises(ValueError, match="removed every feature") as old:
            trim_sparse(_parent_untrimmed_dfm(oracle), 0.5)
        assert str(new.value) == str(old.value)


class TestTrimSparse:
    def _dfm(self):
        docs = {
            "u1": grams_of("common", "rare"),
            "u2": grams_of("common"),
            "u3": grams_of("common", "common"),
            "u4": grams_of("common"),
        }
        return build_dfm(docs, sparsity=1.0)

    def test_boundary_is_strict(self):
        # "rare" sits in 1 of 4 docs = 0.25; kept only when 1 - sparsity
        # is strictly below that
        dfm = self._dfm()
        assert trim_sparse(dfm, 0.76).col_ids == ("common", "rare")
        assert trim_sparse(dfm, 0.75).col_ids == ("common",)

    def test_monotone_in_sparsity(self):
        dfm = self._dfm()
        loose = set(trim_sparse(dfm, 0.99).col_ids)
        tight = set(trim_sparse(dfm, 0.30).col_ids)
        assert tight <= loose

    def test_all_features_dropped_is_an_error(self):
        words = ["".join(w) for w in itertools.product("bcdfg", repeat=3)][:100]
        docs = {f"u{i}": grams_of(w) for i, w in enumerate(words)}
        with pytest.raises(ValueError, match="removed every feature"):
            trim_sparse(build_dfm(docs, sparsity=1.0), 0.5)

    def test_sparsity_validation(self):
        dfm = self._dfm()
        with pytest.raises(ValueError):
            trim_sparse(dfm, 0.0)
        with pytest.raises(ValueError):
            trim_sparse(dfm, 1.5)

    def test_sparsity_one_keeps_everything(self):
        dfm = self._dfm()
        assert trim_sparse(dfm, 1.0).col_ids == dfm.col_ids


class TestNetworkMatrix:
    def test_min_two_followers_and_binary_values(self):
        friends = {
            "u1": ["a", "b", "b"],  # duplicate follow collapses
            "u2": ["a"],
            "u3": ["a", "b", "c"],
            "u4": ["d"],
        }
        net = build_network_matrix(friends, sparsity=1.0)
        assert net.col_ids == ("a", "b")  # c and d followed once -> dropped
        assert net.kind == "network"
        dense = np.asarray(net.matrix.todense())
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert dense.tolist() == [[1, 1], [1, 0], [1, 1], [0, 0]]
        assert net.empty_rows() == ["u4"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_network_matrix({})

    def test_sparsity_applies_after_floor(self):
        friends = {f"u{i}": ["popular"] + (["niche"] if i < 2 else []) for i in range(10)}
        net = build_network_matrix(friends, sparsity=0.75)
        # niche: 2/10 docs = 0.2 <= 1 - 0.75 -> dropped
        assert net.col_ids == ("popular",)


class TestJoinFeatures:
    """The one join of topic proportions and network columns."""

    def test_concatenation_on_shared_users(self):
        theta = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        net = align_network(
            {"u1": ["a", "b"], "u2": ["a"], "u9": ["a", "b"]}, ["u1", "u2", "u3"], ("a", "b")
        )
        joined, unknown = join_features(["u1", "u2", "u3"], (theta, ["u2", "u3"]), net)
        np.testing.assert_allclose(
            joined, [[0.7, 0.3, 1, 1], [0.2, 0.8, 1, 0], [0.5, 0.5, 0, 0]]
        )
        assert unknown == ["u3"]  # no text feature and no follow hit

    def test_unknown_rule_per_block(self):
        users = ["u1", "u2"]
        net = align_network({"u1": ["a"]}, users, ("a",))
        assert join_features(users, net=net)[1] == ["u2"]
        assert join_features(users, (np.eye(2), ["u1"]))[1] == ["u1"]

    def test_rows_not_aligned_to_users_rejected(self):
        net = align_network({"x": ["a"]}, ["x", "y"], ("a",))
        with pytest.raises(ValueError, match="network rows"):
            join_features(["y", "x"], net=net)
        with pytest.raises(ValueError, match="topic rows"):
            join_features(["x", "y"], (np.array([[1.0]]), ()), net)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        dfm = build_dfm({"u1": grams_of("a", "a", "b"), "u2": grams_of("b", "b", "b", "b")},
                        sparsity=1.0)
        triplet, header = tmp_path / "m.csv", tmp_path / "m.json"
        save_dfm(dfm, triplet, header)
        back = load_dfm(triplet, header)
        assert back.row_ids == dfm.row_ids
        assert back.col_ids == dfm.col_ids
        assert back.kind == dfm.kind
        assert (back.matrix != dfm.matrix).nnz == 0

    def test_save_is_deterministic(self, tmp_path):
        dfm = SparseDFM(sp.csr_matrix([[2.5, 1.0], [0.0, 4.0]]), ("u1", "u2"), ("a", "b"))
        save_dfm(dfm, tmp_path / "1.csv", tmp_path / "1.json")
        save_dfm(dfm, tmp_path / "2.csv", tmp_path / "2.json")
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()

    def test_integer_counts_written_without_decimal(self, tmp_path):
        dfm = build_dfm({"u": grams_of("a", "a", "a")}, sparsity=1.0)
        save_dfm(dfm, tmp_path / "m.csv", tmp_path / "m.json")
        assert "u,a,3\n" in (tmp_path / "m.csv").read_text()
