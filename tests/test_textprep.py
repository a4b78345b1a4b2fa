"""Tokenization, n-grams, sparse DFM construction and trimming."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from polilean.pipeline import align_network, join_features
from polilean.textprep import (
    SparseDFM,
    build_dfm,
    build_network_matrix,
    load_dfm,
    ngram_strings,
    preprocess_tweet,
    remove_stopwords,
    save_dfm,
    tokenize,
    tokenize_matching,
    trim_sparse,
)


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
        assert remove_stopwords(["the", "cat", "and", "dog"], self.STOPS) == ["cat", "dog"]

    def test_stopwords_removed_before_stemming(self):
        # "doing" stems to the stopword "do" but survives under the
        # default order (stopword check on raw tokens, then stem)
        assert preprocess_tweet("doing the dance", self.STOPS) == ["do", "danc"]

    def test_full_chain(self):
        stops = frozenset({"a", "the"})
        assert preprocess_tweet("The runners a running", stops) == ["runner", "run"]


class TestNgrams:
    def test_hand_counts(self):
        grams = Counter(ngram_strings(["a", "b", "c"]))
        assert grams == Counter(
            {"a": 1, "b": 1, "c": 1, "a_b": 1, "b_c": 1, "a_b_c": 1}
        )

    def test_repeated_tokens_accumulate(self):
        grams = Counter(ngram_strings(["x", "x", "x"], orders=(1, 2)))
        assert grams == Counter({"x": 3, "x_x": 2})

    def test_orders_subset(self):
        assert Counter(ngram_strings(["a", "b"], orders=(2,))) == Counter({"a_b": 1})

    def test_short_input(self):
        assert Counter(ngram_strings([], orders=(1, 2, 3))) == Counter()
        assert Counter(ngram_strings(["solo"], orders=(1, 2, 3))) == Counter({"solo": 1})

    def test_grams_never_cross_tweets(self):
        # two tweets processed separately share no bigram
        a = Counter(ngram_strings(["end"], orders=(1, 2)))
        b = Counter(ngram_strings(["start"], orders=(1, 2)))
        assert "end_start" not in (a + b)


class TestBuildDfm:
    def test_rows_follow_mapping_order_columns_sorted(self):
        docs = {"u2": Counter({"b": 2, "a": 1}), "u0": Counter(), "u1": Counter({"c": 3})}
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
        docs = {"u1": Counter({"common": 1, "rare": 1}), "u2": Counter({"common": 2})}
        assert build_dfm(docs, sparsity=0.5).col_ids == ("common",)
        assert build_dfm(docs, sparsity=0.51).col_ids == ("common", "rare")
        with pytest.raises(ValueError, match="sparsity must be in"):
            build_dfm(docs, sparsity=0.0)


def _parent_untrimmed_dfm(docs, kind="text"):
    """The untrimmed build_dfm and the per-item from_rows loop before
    the trim moved ahead of the matrix build, kept as the oracle."""
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


class TestBuildDfmMatchesTrimOracle:
    """build_dfm(docs, s) is the parent's untrimmed build_dfm followed by
    trim_sparse(·, s), bit for bit."""

    @staticmethod
    def _docs(rng, n_users=40, n_feats=80):
        feats = [f"f{j:02d}" + ("_x" * (j % 3)) for j in range(n_feats)]
        # a few features almost everyone has, so every sparsity keeps some
        weights = np.linspace(0.02, 0.98, n_feats)
        docs = {}
        for i in rng.permutation(n_users):
            has = rng.random(n_feats) < weights
            chosen = [feats[j] for j in rng.permutation(np.flatnonzero(has))]
            docs[f"u{i:03d}"] = Counter(
                {f: int(rng.integers(1, 6)) for f in chosen}
            )
        docs["u_empty"] = Counter()
        # explicit zero counts: they add a column to the untrimmed matrix
        # but no document frequency
        docs["u_zero"] = Counter({feats[0]: 0, feats[-1]: 0, feats[-2]: 3})
        docs["u_float"] = Counter({feats[-1]: 2.5, feats[-3]: 1})
        return docs

    @pytest.mark.parametrize("sparsity", [0.5, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal(self, sparsity, seed):
        docs = self._docs(np.random.default_rng(seed))
        want = trim_sparse(_parent_untrimmed_dfm(docs), sparsity)
        got = build_dfm(docs, sparsity)
        assert got.row_ids == want.row_ids
        assert got.col_ids == want.col_ids
        assert got.kind == want.kind
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_zero_count_is_no_document(self):
        docs = {"u1": Counter({"a": 0, "b": 1}), "u2": Counter({"b": 1})}
        got = build_dfm(docs, 1.0)
        assert got.col_ids == trim_sparse(_parent_untrimmed_dfm(docs), 1.0).col_ids == ("b",)

    def test_everything_trimmed_is_the_same_error(self):
        docs = {f"u{i}": Counter({f"w{i}": 1, "zero": 0}) for i in range(100)}
        with pytest.raises(ValueError, match="removed every feature") as new:
            build_dfm(docs, 0.5)
        with pytest.raises(ValueError, match="removed every feature") as old:
            trim_sparse(_parent_untrimmed_dfm(docs), 0.5)
        assert str(new.value) == str(old.value)


class TestTrimSparse:
    def _dfm(self):
        docs = {
            "u1": Counter({"common": 1, "rare": 1}),
            "u2": Counter({"common": 1}),
            "u3": Counter({"common": 2}),
            "u4": Counter({"common": 1}),
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
        docs = {f"u{i}": Counter({f"w{i}": 1}) for i in range(100)}
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
        docs = {"u1": Counter({"a": 2, "b": 1}), "u2": Counter({"b": 4})}
        dfm = build_dfm(docs, sparsity=1.0)
        triplet, header = tmp_path / "m.csv", tmp_path / "m.json"
        save_dfm(dfm, triplet, header)
        back = load_dfm(triplet, header)
        assert back.row_ids == dfm.row_ids
        assert back.col_ids == dfm.col_ids
        assert back.kind == dfm.kind
        assert (back.matrix != dfm.matrix).nnz == 0

    def test_save_is_deterministic(self, tmp_path):
        docs = {"u1": Counter({"a": 2.5, "b": 1}), "u2": Counter({"b": 4})}
        dfm = build_dfm(docs, sparsity=1.0)
        save_dfm(dfm, tmp_path / "1.csv", tmp_path / "1.json")
        save_dfm(dfm, tmp_path / "2.csv", tmp_path / "2.json")
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()

    def test_integer_counts_written_without_decimal(self, tmp_path):
        dfm = build_dfm({"u": Counter({"a": 3})}, sparsity=1.0)
        save_dfm(dfm, tmp_path / "m.csv", tmp_path / "m.json")
        assert "u,a,3\n" in (tmp_path / "m.csv").read_text()
