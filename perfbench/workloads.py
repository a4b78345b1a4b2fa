"""The benchmark workloads: inputs, the timed call and its check.

Every workload goes through polilean's public entry points.  ``setup``
runs in the benchmark process and writes the generated files; ``op``
runs in a fresh interpreter per operation and receives only those
files; ``check`` validates the program's outputs and returns the
problems found and the quality figures reported as ``f1_min`` and
``coverage``.

Corpus sizes are smaller than the 800-user acceptance corpus so that
every run fits the benchmark's time budget; ``README.md`` gives the
sizing and the reasons.
"""

import csv
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

K_TOPICS = 10

# Corpus shapes.  Keys are SynthSpec fields.  Timelines are shorter than
# the generator's default 120-200 tweets, so the pipelines' per-user
# tweet floor (``min_tweets``, default 100) is lowered to match.
NULL = dict(n_users=120, vocab_size=100, tweets_per_user=(30, 40), class_topic_shift=0.0,
            network_homophily=0.5)
NULL_MIN_TWEETS = 20
PREDICT_TRAIN = dict(n_users=240, vocab_size=200, tweets_per_user=(40, 60),
                     class_topic_shift=0.3, network_homophily=0.8)
PREDICT_NEW = dict(PREDICT_TRAIN, n_users=120)
PREDICT_MIN_TWEETS = 30
LEXICON = dict(n_users=100, vocab_size=2000, tweets_per_user=(40, 60), class_topic_shift=0.3,
               network_homophily=0.8)
LEXICON_MIN_TWEETS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (work_dir, seed) -> inputs: dict of file paths
    op: Callable  # (inputs, out_dir) -> outputs: JSON-serialisable dict
    check: Callable  # (inputs, outputs) -> (problems, quality dict or None)


def _generate(shape: dict, seed: int, out_dir: str) -> dict:
    from polilean import synthgen

    spec = synthgen.SynthSpec(k_topics=K_TOPICS, seed=seed, **shape)
    result = synthgen.generate(spec, out_dir)
    return {"tweets": result.tweets_path, "vaa": result.vaa_path,
            "friends": result.friends_path, "truth": result.truth_path}


def _setup_corpus(shape: dict):
    def setup(work_dir, seed):
        return _generate(shape, seed, os.path.join(work_dir, "corpus"))

    return setup


def _load_truth(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# eval_null: the evaluation grid on signal-free data through run_pipeline

NULL_DATASETS = ("non-pol", "non-pol+net")
NULL_FAMILIES = ("NB", "SVM_lin", "SVM_poly", "SVM_rad", "NN")

# F1 must sit at chance.  A classifier that predicts Right for every
# user of a balanced split scores F1 = 2/3 without any leakage, so the
# per-cell ceiling must lie above 2/3; 0.75 is about three standard
# errors above chance for a cell averaged over two samples of 32 test
# users.
NULL_MEAN_BAND = (0.40, 0.60)
NULL_CELL_CEILING = 0.75


def _null_op(inputs, out_dir):
    from polilean import pipeline

    cfg = pipeline.PipelineConfig(k_topics=K_TOPICS, datasets=NULL_DATASETS,
                                  families=NULL_FAMILIES, n_samples=2, seed=0,
                                  min_tweets=NULL_MIN_TWEETS)
    report = pipeline.run_pipeline(inputs["tweets"], inputs["vaa"], inputs["friends"], cfg)
    return {"mean": report["mean"]}


def _check_null(inputs, outputs):
    cells = {f"{d}/{f}": m for d, fams in outputs["mean"].items() for f, m in fams.items()}
    want = {f"{d}/{f}" for d in NULL_DATASETS for f in NULL_FAMILIES}
    problems = [f"missing cell {c}" for c in sorted(want - set(cells))]
    problems += [f"non-finite F1 in {c}" for c, m in sorted(cells.items())
                 if not math.isfinite(m["f1"])]
    if problems:
        return problems, None
    mean = sum(m["f1"] for m in cells.values()) / len(cells)
    lo, hi = NULL_MEAN_BAND
    if not lo <= mean <= hi:
        problems.append(f"grid-mean F1 {mean:.3f} outside [{lo}, {hi}]")
    problems += [f"{c} F1 {m['f1']:.3f} above the leakage ceiling {NULL_CELL_CEILING}"
                 for c, m in sorted(cells.items()) if m["f1"] > NULL_CELL_CEILING]
    # At chance the lowest cell is whichever classifier leaned Left on
    # this seed, so the quality figure is the grid mean the band bounds.
    coverage = 1.0 - max(m["unknown"] for m in cells.values())
    return problems, {"f1_min": mean, "coverage": coverage}


# ---------------------------------------------------------------------------
# predict_new: a saved bundle applied to a second corpus through the CLI

PREDICT_TAU = 0.7


def _setup_predict(work_dir, seed):
    from polilean import cli

    train = _generate(PREDICT_TRAIN, seed, os.path.join(work_dir, "train"))
    new = _generate(PREDICT_NEW, seed + 1, os.path.join(work_dir, "new"))
    model_dir = os.path.join(work_dir, "model")
    config = os.path.join(work_dir, "config.json")
    with open(config, "w") as fh:
        json.dump({"min_tweets": PREDICT_MIN_TWEETS}, fh)
    status = cli.main(["train", "--config", config, "--tweets", train["tweets"],
                       "--vaa", train["vaa"], "--friends", train["friends"],
                       "--dataset", "non-pol+net", "--family", "SVM_poly", "--k", str(K_TOPICS),
                       "--out", model_dir])
    if status != 0:
        raise RuntimeError(f"polilean train exited with status {status}")
    return {"tweets": new["tweets"], "friends": new["friends"], "truth": new["truth"],
            "model_dir": model_dir, "config": config}


def _predict_op(inputs, out_dir):
    from polilean import cli

    status = cli.main(["predict", "--config", inputs["config"], "--tweets", inputs["tweets"],
                       "--friends", inputs["friends"],
                       "--model-dir", inputs["model_dir"], "--tau", str(PREDICT_TAU),
                       "--out", out_dir])
    return {"status": status, "predictions": os.path.join(out_dir, "predictions.csv")}


def _check_predict(inputs, outputs):
    from polilean import evaluation

    if outputs["status"] != 0:
        return [f"polilean predict exited with status {outputs['status']}"], None
    with open(outputs["predictions"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    truth = _load_truth(inputs["truth"])["labels"]
    problems = []
    if len(rows) != len(truth):
        problems.append(f"{len(rows)} prediction rows for {len(truth)} users")
    bad = {r["label"] for r in rows} - {"Left", "Right", "Unknown"}
    if bad:
        problems.append(f"unexpected labels {sorted(bad)}")
    if problems:
        return problems, None
    pred = [r["label"] for r in rows]
    _, _, f1 = evaluation.prf(pred, [truth[r["user_id"]] for r in rows])
    coverage = 1.0 - evaluation.unknown_fraction(pred)
    if f1 < 0.90:
        problems.append(f"F1 {f1:.3f} < 0.90")
    if coverage < 0.90:
        problems.append(f"coverage {coverage:.3f} < 0.90 at tau={PREDICT_TAU}")
    return problems, {"f1_min": f1, "coverage": coverage}


# ---------------------------------------------------------------------------
# lexicon_expand: lexicon induction plus skip-gram expansion

# Scaled with the shorter timelines: a term must occur in this many
# tweets to enter the lexicon (default 250).  The embedding's frequency
# floor lies below the bulk of the token frequencies, so its vocabulary
# (about 1,200 tokens) and its number of training pairs barely change
# between seeds; a floor inside the bulk (40) made the pair count, and
# the operation's time, vary by a third between seeds.  A window of one
# token and one epoch keep the operation at a few seconds.
LEXICON_TERM_TWEETS = 8
EMBEDDING_MIN_FREQ = 20
EMBEDDING_WINDOW = 1


def _lexicon_op(inputs, out_dir):
    from polilean import pipeline

    cfg = pipeline.PipelineConfig(expand_with_embedding=True, embedding_epochs=1,
                                  embedding_window=EMBEDDING_WINDOW,
                                  embedding_min_freq=EMBEDDING_MIN_FREQ,
                                  lexicon_min_tweets=LEXICON_TERM_TWEETS,
                                  min_tweets=LEXICON_MIN_TWEETS)
    bundle = pipeline.load_corpus(inputs["tweets"], inputs["vaa"], inputs["friends"], cfg)
    lex = bundle.lexicon
    return {"provenance": {t: lex.provenance.get(t, "Manual") for t in sorted(lex.terms)}}


def _check_lexicon(inputs, outputs):
    planted = _load_truth(inputs["truth"])["political_tokens"]
    prov = outputs["provenance"]
    seeds = {t for t, p in prov.items() if p == "Seed"}
    expanded = [t for t, p in prov.items() if p == "Expanded"]
    problems = [f"planted token {t!r} is not a Seed term" for t in planted if t not in seeds]
    if len(expanded) > 3 * len(seeds):
        problems.append(f"{len(expanded)} expansions for {len(seeds)} seeds (at most 3 each)")
    # Quality: the induced seed set scored against the planted tokens.
    hits = len(seeds & set(planted))
    precision = hits / len(seeds) if seeds else 0.0
    recall = hits / len(planted)
    f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
    return problems, {"f1_min": f1, "coverage": recall}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval_null", _setup_corpus(NULL), _null_op, _check_null),
        Workload("predict_new", _setup_predict, _predict_op, _check_predict),
        Workload("lexicon_expand", _setup_corpus(LEXICON), _lexicon_op, _check_lexicon),
    )
}
