"""End-to-end orchestration: ingestion to evaluation report.

Stages are plain functions so the CLI, tests and notebooks can run any
prefix of the pipeline. Defaults mirror the documented methodology;
everything is seeded.
"""

import logging
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import classify, evaluation, resources
from .corpus import (
    LeaningRecord,
    Tweet,
    UserDocument,
    UserRecord,
    assemble_documents,
    filter_users,
    ground_truth_labels,
    group_tweets,
    load_friends,
    load_tweets,
    load_vaa_results,
)
from .newsstudy import classify_sharers, project_features
from .polex import Lexicon, expand_lexicon, induce_lexicon
from .textprep import (
    Grams,
    SparseDFM,
    build_dfm,
    build_network_matrix,
    ngram_counts,
    stem_codes,
    tokenize,
)
from .topics import TopicModel, fit_topic_model, fold_in

logger = logging.getLogger(__name__)


class Blocks(NamedTuple):
    """The feature blocks of one dataset: the text side whose topic
    proportions it uses ("pol", "nonpol" or None) and whether it adds
    the follow block."""

    text: str | None
    net: bool


DATASETS = {
    "pol": Blocks("pol", False),
    "pol+net": Blocks("pol", True),
    "non-pol": Blocks("nonpol", False),
    "non-pol+net": Blocks("nonpol", True),
    "net": Blocks(None, True),
}


@dataclass
class PipelineConfig:
    k_topics: int = 150
    sparsity_pol: float = 0.9
    sparsity_nonpol: float = 0.85
    sparsity_net: float = 0.88
    lexicon_min_tweets: int = 250
    lexicon_threshold: float = 0.25
    expand_with_embedding: bool = False
    embedding_window: int = 5
    embedding_min_freq: int = 100
    embedding_epochs: int = 5
    min_english: float = 0.75
    min_tweets: int = 100
    datasets: tuple[str, ...] = tuple(DATASETS)
    families: tuple[str, ...] = classify.FAMILIES
    tau: float = 0.5
    n_samples: int = 1
    calibration_folds: int = 10
    nn_epochs: int = 200
    seed: int = 0


@dataclass
class CorpusBundle:
    users: dict[str, UserRecord]
    labels: dict[str, str]
    scores: dict[str, float]
    friends: dict[str, list[str]]
    lexicon: Lexicon
    documents: dict = field(default_factory=dict)
    # side -> user -> that user's n-gram counts on the side, filled on
    # first use so each document is counted once per corpus
    counts: dict = field(default_factory=dict, repr=False)

    def feature_counts(self, users: Sequence[str], which: str) -> dict[str, Grams]:
        """The users' n-gram counts on one side (see side_counts), in
        order.  The arrays are shared with later calls: read only."""
        cache = self.counts.setdefault(which, {})
        missing = [uid for uid in users if uid not in cache]
        if missing:
            cache.update(side_counts(self.documents, missing, which))
        return {uid: cache[uid] for uid in users}


def build_lexicon(tweets: Sequence[Tweet], cfg: PipelineConfig) -> Lexicon:
    """Election-window lexicon, expanded with skip-gram neighbours when
    cfg.expand_with_embedding is set."""
    lexicon = induce_lexicon(
        tweets,
        resources.election_periods(),
        min_tweets=cfg.lexicon_min_tweets,
        threshold=cfg.lexicon_threshold,
        denylist=resources.ambiguous_words(),
        manual_add=resources.manual_additions(),
    )
    if cfg.expand_with_embedding:
        from .skipgram import train_skipgram

        emb = train_skipgram(
            [tokenize(t.text) for t in tweets],
            window=cfg.embedding_window,
            min_freq=cfg.embedding_min_freq,
            epochs=cfg.embedding_epochs,
            seed=cfg.seed,
        )
        lexicon = expand_lexicon(emb, lexicon, denylist=resources.ambiguous_words())
    return lexicon


def ingest(
    tweets_path, vaa_path, cfg: PipelineConfig
) -> tuple[list[Tweet], int, dict[str, UserRecord], dict[str, LeaningRecord]]:
    """Load tweets and score VAA ground truth. Returns the tweets, the
    number of users who posted them, the users who pass the
    language/volume filter and every respondent's leaning record."""
    tweets = load_tweets(tweets_path)
    grouped = group_tweets(tweets)
    kept = filter_users(grouped.values(), cfg.min_english, cfg.min_tweets)
    users = {u.user_id: u for u in kept}
    logger.info("%d users after language/volume filtering", len(users))
    records = ground_truth_labels(load_vaa_results(vaa_path))
    return tweets, len(grouped), users, records


def load_corpus(tweets_path, vaa_path, friends_path, cfg: PipelineConfig) -> CorpusBundle:
    """Ingest, filter, score ground truth and induce the lexicon."""
    tweets, _, users, records = ingest(tweets_path, vaa_path, cfg)
    labels = {u: r.label for u, r in records.items() if u in users}
    scores = {u: r.normalized_score for u, r in records.items() if u in users}
    logger.info("%d users with ground-truth labels", len(labels))

    lexicon = build_lexicon(tweets, cfg)

    friends = load_friends(friends_path) if friends_path else {}
    friends = {u: f for u, f in friends.items() if u in users}

    bundle = CorpusBundle(users, labels, scores, friends, lexicon)
    for uid, user in users.items():
        bundle.documents[uid] = assemble_documents(user, lexicon)
    return bundle


def user_feature_counts(tweet_texts: Iterable[str], stopwords: frozenset[str]) -> Grams:
    """1-3-gram counts of one user document: every tweet's grams,
    summed; no gram spans two tweets."""
    return ngram_counts(stem_codes(tweet_texts, stopwords))


def side_counts(
    documents: Mapping[str, UserDocument], users: Sequence[str], which: str
) -> dict[str, Grams]:
    """Each user's 1-3-gram counts over their political ("pol") or
    non-political document; a user's counts depend on that document
    alone."""
    stopwords = resources.smart_stopwords()
    side = "political_tweets" if which == "pol" else "nonpolitical_tweets"
    return {uid: user_feature_counts(getattr(documents[uid], side), stopwords) for uid in users}


def build_text_dfm(
    bundle: CorpusBundle, users: Sequence[str], which: str, cfg: PipelineConfig
) -> SparseDFM:
    """DFM over the chosen users' political or non-political documents,
    trimmed at that side's sparsity; its columns become a topic model's
    vocabulary."""
    sparsity = cfg.sparsity_pol if which == "pol" else cfg.sparsity_nonpol
    return build_dfm(bundle.feature_counts(users, which), sparsity)


def fold_in_users(
    counts: Mapping[str, Grams], model: TopicModel
) -> tuple[np.ndarray, list[str]]:
    """Topic proportions of users the model was not fitted on, one row
    per user of `counts` (see side_counts) in order, each computed from
    that user's counts and the model alone. Also returns the users with
    no in-vocabulary feature."""
    dfm = project_features(counts, model.vocab)
    return fold_in(dfm, model), dfm.empty_rows()


def network_features(
    friends: Mapping[str, Sequence[str]],
    train_users: Sequence[str],
    other_users: Sequence[str],
    sparsity: float,
) -> tuple[SparseDFM, SparseDFM]:
    """Network DFM fitted on train users; other users aligned to its
    columns (accounts discovered on train only, no leakage)."""
    train_net = build_network_matrix(
        {u: friends.get(u, []) for u in train_users}, sparsity
    )
    return train_net, align_network(friends, other_users, train_net.col_ids)


def align_network(
    friends: Mapping[str, Sequence[str]],
    users: Sequence[str],
    columns: Sequence[str],
) -> SparseDFM:
    """0/1 follow matrix of users over fixed account columns; accounts
    outside the columns are ignored."""
    rows = (dict.fromkeys(set(friends.get(uid, ())), 1.0) for uid in users)
    return SparseDFM.from_rows(users, rows, columns, "network")


def join_features(
    users: Sequence[str],
    text: tuple[np.ndarray, Collection[str]] | None = None,
    net: SparseDFM | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Topic proportions, then follow columns, for whichever blocks the
    dataset has; each block's rows must already be in `users` order.
    `text` is (theta, users with no text feature). Returns the rows and
    the users to label Unknown: no text feature (given a text block)
    and no follow hit (given a network block)."""
    blocks = []
    unknown = set(users)
    if text is not None:
        theta, no_text = text
        if theta.shape[0] != len(users):
            raise ValueError("topic rows are not aligned to the users")
        blocks.append(theta)
        unknown &= set(no_text)
    if net is not None:
        if tuple(net.row_ids) != tuple(users):
            raise ValueError("network rows are not aligned to the users")
        blocks.append(net.matrix.toarray())
        unknown &= set(net.empty_rows())
    return np.hstack(blocks), [u for u in users if u in unknown]


@dataclass
class SampleEvaluation:
    sample_seed: int
    metrics: dict  # dataset -> family -> {precision, recall, f1, unknown}
    models: dict = field(default_factory=dict, repr=False)
    features: dict = field(default_factory=dict, repr=False)
    topic_models: dict = field(default_factory=dict, repr=False)  # text side -> TopicModel
    split: tuple = ()
    network_columns: tuple[str, ...] = ()  # accounts learned on the train split
    unknown: dict = field(default_factory=dict, repr=False)  # dataset -> forced-Unknown test users


def evaluate_sample(
    bundle: CorpusBundle, cfg: PipelineConfig, sample_seed: int
) -> SampleEvaluation:
    """One balanced sample: split, fit topic models on train, fold in
    test, train every family on every requested dataset, score at tau."""
    users = sorted(bundle.labels)
    sample = evaluation.balanced_sample(users, bundle.labels, sample_seed)
    train, test = evaluation.split(sample, bundle.labels, seed=sample_seed)

    needs = {d: DATASETS[d] for d in cfg.datasets}
    features: dict[str, tuple[np.ndarray, list[str], np.ndarray, list[str]]] = {}
    unknown: dict[str, list[str]] = {}
    topic_models: dict[str, TopicModel] = {}

    net_train = net_test = None
    if any(blocks.net for blocks in needs.values()):
        net_train, net_test = network_features(
            bundle.friends, train, test, cfg.sparsity_net
        )

    def join(side, text_train=None, text_test=None):
        """Rows of every requested dataset whose text block is `side`."""
        for dataset, blocks in DATASETS.items():
            if dataset not in needs or blocks.text != side:
                continue
            x_train, _ = join_features(train, text_train, net_train if blocks.net else None)
            x_test, unknown[dataset] = join_features(
                test, text_test, net_test if blocks.net else None
            )
            features[dataset] = (x_train, list(train), x_test, list(test))

    join(None)
    for side in ("pol", "nonpol"):
        if not any(blocks.text == side for blocks in needs.values()):
            continue
        train_dfm = build_text_dfm(bundle, train, side, cfg)
        model = fit_topic_model(train_dfm, cfg.k_topics)
        topic_models[side] = model
        join(
            side,
            (fold_in(train_dfm, model), ()),
            fold_in_users(bundle.feature_counts(test, side), model),
        )

    metrics: dict[str, dict[str, dict[str, float]]] = {}
    models: dict[tuple[str, str], classify.ClassifierModel] = {}
    for dataset, (x_tr, users_tr, x_te, users_te) in features.items():
        blocks = needs[dataset]
        k = topic_models[blocks.text].k if blocks.text else 0
        y_tr = classify.encode_labels([bundle.labels[u] for u in users_tr])
        true_te = [bundle.labels[u] for u in users_te]
        metrics[dataset] = {}
        for family in cfg.families:
            hyper = {}
            if family.startswith("SVM"):
                hyper["calibration_folds"] = cfg.calibration_folds
            if family == "NN":
                hyper["epochs"] = cfg.nn_epochs
            if family == "NB":  # Gaussian on topic columns, Bernoulli on follow columns
                hyper["binary_mask"] = np.arange(x_tr.shape[1]) >= k
            model = classify.train_model(family, x_tr, y_tr, seed=sample_seed, **hyper)
            preds = classify_sharers(x_te, users_te, model, cfg.tau, unknown[dataset])
            pred = [p.label for p in preds]
            precision, recall, f1 = evaluation.prf(pred, true_te)
            metrics[dataset][family] = {
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "unknown": evaluation.unknown_fraction(pred),
            }
            models[(dataset, family)] = model
            logger.info(
                "sample %d %s/%s: F1=%.3f P=%.3f R=%.3f",
                sample_seed, dataset, family, f1, precision, recall,
            )
    return SampleEvaluation(
        sample_seed, metrics, models, features, topic_models, (train, test),
        net_train.col_ids if net_train is not None else (), unknown,
    )


def evaluate(bundle: CorpusBundle, cfg: PipelineConfig) -> tuple[dict, list[SampleEvaluation]]:
    """Every balanced sample of a loaded corpus; returns the report dict,
    with per-sample and mean metrics, and the samples."""
    samples = [evaluate_sample(bundle, cfg, cfg.seed + s) for s in range(cfg.n_samples)]
    mean: dict[str, dict[str, dict[str, float]]] = {}
    for dataset in cfg.datasets:
        mean[dataset] = {}
        for family in cfg.families:
            vals = [s.metrics[dataset][family] for s in samples]
            mean[dataset][family] = {
                key: float(np.mean([v[key] for v in vals]))
                for key in ("precision", "recall", "f1", "unknown")
            }
    return {
        "config": {"seed": cfg.seed, "k_topics": cfg.k_topics, "tau": cfg.tau,
                   "n_samples": cfg.n_samples, "datasets": list(cfg.datasets),
                   "families": list(cfg.families)},
        "samples": [
            {"seed": s.sample_seed, "metrics": s.metrics} for s in samples
        ],
        "mean": mean,
        "lexicon_size": len(bundle.lexicon),
        "n_labeled_users": len(bundle.labels),
    }, samples


def run_pipeline(tweets_path, vaa_path, friends_path, cfg: PipelineConfig) -> dict:
    """Full run; returns the report dict of `evaluate`."""
    return evaluate(load_corpus(tweets_path, vaa_path, friends_path, cfg), cfg)[0]
