"""Which polilean functions the traced run wraps, and the per-layer
metrics computed from its spans and counters.

Span names are ``<module>.<function>``; ``cli.main`` is named ``cli`` and
``classify.train_model`` is split by family.  A metric ``<span>.s`` is
the span's total seconds and ``<span>.self_s`` its self time.
"""

import importlib
import inspect
from collections import Counter

from tracer import Tracer, aggregate, install, self_times

MODULES = ("corpus", "polex", "skipgram", "textprep", "porter", "pipeline", "topics",
           "svm", "nn", "classify", "evaluation", "newsstudy", "synthgen", "cli")

FAMILIES = ("NB", "SVM_lin", "SVM_poly", "SVM_rad", "NN")

# Functions that get a span, by module.  Beyond the layers the metrics
# name, the list covers the loaders and writers each entry point calls,
# so that spans account for the run and the entry point's self time is
# only its own glue.
SPANS = {
    "corpus": ("load_tweets", "group_tweets", "filter_users", "load_vaa_results",
               "ground_truth_labels", "load_friends", "assemble_documents"),
    "polex": ("induce_lexicon", "expand_lexicon"),
    "skipgram": ("train_skipgram",),
    "textprep": ("build_dfm", "trim_sparse", "build_network_matrix"),
    "pipeline": ("run_pipeline", "load_corpus", "evaluate_sample", "build_text_dfm",
                 "user_feature_counts", "network_features"),
    "topics": ("fit_topic_model", "cooccurrence", "find_anchors", "recover_beta",
               "infer_theta", "fold_in", "load_topic_model"),
    "svm": ("smo_train", "platt_calibrate"),
    "nn": ("train_nn",),
    "classify": ("train_model", "predict", "load_model", "write_predictions_csv"),
    "newsstudy": ("project_features", "classify_sharers"),
    "cli": ("main", "_write_manifest", "_prediction_features"),
}


def span_name(module: str, func: str) -> str:
    return "cli" if (module, func) == ("cli", "main") else f"{module}.{func}"


def span_names() -> list[str]:
    names = [span_name(m, f) for m, funcs in SPANS.items() for f in funcs
             if (m, f) != ("classify", "train_model")]
    names += [f"classify.train_model.{fam}" for fam in FAMILIES]
    names += ["svm.kernel_matrix", "polex.Lexicon.load"]
    return names


# ---------------------------------------------------------------------------
# counters, recorded when the wrapped call returns


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _skipgram_pairs(corpus, window: int, min_freq: int, epochs: int) -> int:
    """(centre, context) pairs train_skipgram visits, from its inputs."""
    freq = Counter(t for sent in corpus for t in sent)
    pairs = 0
    for sent in corpus:
        n = sum(1 for t in sent if freq[t] >= min_freq)
        if n < 2:
            continue
        pairs += sum(min(n, pos + window + 1) - max(0, pos - window) - 1 for pos in range(n))
    return pairs * epochs


def _counter_hooks(mods) -> dict:
    def dfm(tr, res, args, kwargs):
        tr.counters["textprep.dfm_cols"] += res.matrix.shape[1]
        tr.counters["textprep.dfm_nnz"] += res.matrix.nnz

    def trim(tr, res, args, kwargs):
        tr.counters["textprep.cols_kept"] += res.matrix.shape[1]

    def feature_counts(tr, res, args, kwargs):
        texts = args[0] if args else kwargs["tweet_texts"]
        tr.counters["pipeline.user_feature_counts.calls"] += 1
        # A document's tweet tuple lives as long as the run's documents,
        # so its identity names one (user, side) pair.  (Empty documents
        # share the empty tuple; no workload builds a DFM from them.)
        tr.distinct("user_feature_counts", id(texts))
        tr.keep_alive.append(texts)

    def recover(tr, res, args, kwargs):
        _, residuals = res
        tr.counters["topics.recover_beta.words"] += len(residuals)
        worst = float(residuals.max(initial=0.0))
        tr.counters["topics.recover_beta.max_residual"] = max(
            tr.counters["topics.recover_beta.max_residual"], worst)

    def cooc(tr, res, args, kwargs):
        v = res.shape[0]
        tr.counters["topics.cooccurrence.bytes"] += v * v * 8

    def theta(tr, res, args, kwargs):
        tr.counters["topics.infer_theta.docs"] += 1 if res.ndim == 1 else res.shape[0]

    def smo(tr, res, args, kwargs):
        n = len(args[0]) if args else len(kwargs["x"])
        tr.counters["svm.smo_train.calls"] += 1
        tr.counters["svm.smo_train.unconverged"] += 0 if res.converged else 1
        tr.counters["svm.support_vectors.total"] += len(res.support_vectors)
        tr.counters["svm.gram_bytes"] += n * n * 8

    def project(tr, res, args, kwargs):
        docs = args[0] if args else kwargs["docs"]
        tr.counters["newsstudy.project_features.in_total"] += sum(
            sum(c.values()) for c in docs.values())
        tr.counters["newsstudy.project_features.out_total"] += float(res.matrix.sum())

    def tweets(tr, res, args, kwargs):
        tr.counters["corpus.tweets"] += len(res)

    def lexicon(tr, res, args, kwargs):
        tr.counters["polex.lexicon_terms"] += len(res)

    def expanded(tr, res, args, kwargs):
        tr.counters["polex.expanded_terms"] += sum(
            1 for p in res.provenance.values() if p == "Expanded")

    train_skipgram = mods["skipgram"].train_skipgram

    def skipgram(tr, res, args, kwargs):
        a = _bound(train_skipgram, args, kwargs)
        tr.counters["skipgram.pairs"] += _skipgram_pairs(
            a["corpus"], a["window"], a["min_freq"], a["epochs"])

    return {
        ("textprep", "build_dfm"): dfm,
        ("textprep", "trim_sparse"): trim,
        ("pipeline", "user_feature_counts"): feature_counts,
        ("topics", "recover_beta"): recover,
        ("topics", "cooccurrence"): cooc,
        ("topics", "infer_theta"): theta,
        ("svm", "smo_train"): smo,
        ("newsstudy", "project_features"): project,
        ("corpus", "load_tweets"): tweets,
        ("polex", "induce_lexicon"): lexicon,
        ("polex", "expand_lexicon"): expanded,
        ("skipgram", "train_skipgram"): skipgram,
    }


def instrument(tracer: Tracer) -> None:
    """Import polilean's modules and rebind the traced functions in all of
    them."""
    mods = {m: importlib.import_module(f"polilean.{m}") for m in MODULES}
    hooks = _counter_hooks(mods)
    replacements = {}
    for module, funcs in SPANS.items():
        for func in funcs:
            original = getattr(mods[module], func)
            if (module, func) == ("classify", "train_model"):
                name = lambda args: f"classify.train_model.{args[0]}"  # noqa: E731
            else:
                name = span_name(module, func)
            replacements[original] = tracer.span(name, original, hooks.get((module, func)))

    def stem_calls(tr, args):
        tr.counters["porter.stem.calls"] += 1
        tr.distinct("porter.stem", args[0])

    stem = mods["porter"].stem
    replacements[stem] = tracer.count(stem, stem_calls)
    install(mods.values(), replacements)

    kernel = mods["svm"].Kernel
    kernel.matrix = tracer.span("svm.kernel_matrix", kernel.matrix)
    lexicon = mods["polex"].Lexicon
    lexicon.load = classmethod(tracer.span("polex.Lexicon.load", lexicon.load.__func__))


def metrics(spans: list[dict], counters: dict, distinct: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced operation, as (timings, counts).
    Counts depend only on the inputs, so they must repeat exactly."""
    agg = aggregate(spans)
    timings = {}
    for name in span_names():
        total, own = agg.get(name, (0.0, 0.0))
        timings[f"{name}.s"] = total
        timings[f"{name}.self_s"] = own
    c = Counter(counters)
    counts = {key: c[key] for key in (
        "porter.stem.calls", "pipeline.user_feature_counts.calls", "textprep.dfm_cols",
        "textprep.dfm_nnz", "textprep.cols_kept", "topics.recover_beta.words",
        "topics.recover_beta.max_residual", "topics.cooccurrence.bytes",
        "topics.infer_theta.docs", "svm.smo_train.calls", "svm.smo_train.unconverged",
        "svm.gram_bytes", "corpus.tweets", "polex.lexicon_terms", "polex.expanded_terms",
        "skipgram.pairs")}
    stems = distinct.get("porter.stem", 0)
    counts["porter.stem.distinct"] = stems
    counts["porter.stem.distinct_share"] = _share(stems, c["porter.stem.calls"])
    counts["pipeline.user_feature_counts.distinct_share"] = _share(
        distinct.get("user_feature_counts", 0), c["pipeline.user_feature_counts.calls"])
    counts["svm.support_vectors"] = _share(c["svm.support_vectors.total"],
                                           c["svm.smo_train.calls"])
    counts["newsstudy.project_features.dropped_share"] = (
        1.0 - _share(c["newsstudy.project_features.out_total"],
                     c["newsstudy.project_features.in_total"])
        if c["newsstudy.project_features.in_total"] else 0.0)
    timings["skipgram.pairs_per_s"] = _share(c["skipgram.pairs"],
                                             timings["skipgram.train_skipgram.s"])
    # Share of the run spent inside the traced layers below the entry
    # point (the spans without a parent).
    selfs = self_times(spans)
    entry_self = sum(own for s, own in zip(spans, selfs) if s["parent"] is None)
    entry_total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    timings["trace.attributed_s"] = entry_total - entry_self
    return timings, counts


def _share(num, den) -> float:
    return num / den if den else 0.0
