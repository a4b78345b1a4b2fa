"""Command-line front end.

One binary with subcommands covering the pipeline stages. Every run
reads an optional JSON config (flags override config keys), writes its
artifacts under --out, and drops a manifest.json with input/output
hashes, seeds and the package version so reruns are verifiable.

Each subcommand is a `cmd_*(config, out)` function listed in COMMANDS;
it returns its (inputs, outputs) and main() does the shared glue.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import typing
from collections import Counter

import numpy as np

from . import __version__, classify, evaluation, newsstudy, pipeline, resources
from .corpus import assemble_documents, group_tweets, load_friends, load_tweets
from .polex import Lexicon
from .synthgen import SynthSpec, generate
from .textprep import build_network_matrix, save_dfm
from .topics import (
    fit_topic_model,
    fold_in,
    load_topic_model,
    prevalence_regression,
    save_topic_model,
    word_scores,
    write_theta_csv,
    write_top_words_csv,
)

logger = logging.getLogger("polilean")

EXIT_OK = 0
EXIT_STAGE_ERROR = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    """Invalid or missing configuration; exits with status 2."""


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, subcommand, config, inputs, outputs) -> None:
    resources.write_json(os.path.join(out_dir, "manifest.json"), {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    })


def _load_config(args, required_paths=()) -> dict:
    config = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"field 'config': file not found: {args.config}")
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"field 'config': invalid JSON ({exc})") from None
        if not isinstance(config, dict):
            raise ConfigError(f"field 'config': must be a JSON object, not {type(config).__name__}")
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        config[key] = value
    if "out" not in config:
        raise ConfigError("field 'out': required but missing")
    tau = config.get("tau", 0.5)
    if not (type(tau) in (int, float) and 0.5 <= tau <= 1.0):
        raise ConfigError(f"field 'tau': must be a number in [0.5, 1], got {tau!r}")
    for key in required_paths:
        if key not in config:
            raise ConfigError(f"field '{key}': required but missing")
        if not os.path.exists(config[key]):
            raise ConfigError(f"field '{key}': file not found: {config[key]}")
    return config


# config key -> PipelineConfig field; a later key wins over an earlier
# one that names the same field
CONFIG_FIELDS = {
    "k": "k_topics", "k_topics": "k_topics",
    "sparsity_pol": "sparsity_pol", "sparsity_nonpol": "sparsity_nonpol",
    "sparsity_net": "sparsity_net",
    "threshold": "lexicon_threshold", "min_lexicon_tweets": "lexicon_min_tweets",
    "expand": "expand_with_embedding",
    "window": "embedding_window", "min_freq": "embedding_min_freq",
    "min_english": "min_english", "min_tweets": "min_tweets",
    "tau": "tau", "n_samples": "n_samples", "seed": "seed",
    "calibration_folds": "calibration_folds", "nn_epochs": "nn_epochs",
    "datasets": "datasets", "families": "families",
}


# config key -> SynthSpec field, as CONFIG_FIELDS
SYNTH_FIELDS = {
    "n_users": "n_users", "class_ratio": "class_ratio", "k": "k_topics",
    "vocab_size": "vocab_size", "delta": "class_topic_shift",
    "political_fraction": "political_lexicon_fraction", "homophily": "network_homophily",
    "tweets_per_user": "tweets_per_user", "seed": "seed",
}


def _fields(config, keys, cls) -> dict:
    """The fields of dataclass cls that config sets through the key ->
    field map keys, each checked against its field's type; a field whose
    key is absent keeps its default."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    return {field: _typed(key, config[key], kinds[field])
            for key, field in keys.items() if key in config}


def _typed(key, value, kind):
    """value as a field of type kind: an integer serves a float field and a
    list a tuple field, made a tuple; true and false serve only a bool field."""
    items = typing.get_args(kind)  # () unless kind is tuple[...]
    if items:
        if isinstance(value, list) and (items[-1] is ... or len(value) == len(items)):
            return tuple(_typed(key, v, items[0]) for v in value)
    elif isinstance(value, (int, float) if kind is float else kind) and (
            isinstance(value, bool) == (kind is bool)):
        return value
    raise ConfigError(f"field '{key}': must be {kind if items else kind.__name__}, got {value!r}")


def _pipeline_config(config) -> pipeline.PipelineConfig:
    cfg = pipeline.PipelineConfig(**_fields(config, CONFIG_FIELDS, pipeline.PipelineConfig))
    for d in cfg.datasets:
        if d not in pipeline.DATASETS:
            raise ConfigError(f"field 'datasets': unknown dataset {d!r}")
    for fam in cfg.families:
        if fam not in classify.FAMILIES:
            raise ConfigError(f"field 'families': unknown family {fam!r}")
    if cfg.n_samples < 1:
        raise ConfigError(f"field 'n_samples': must be at least 1, got {cfg.n_samples!r}")
    return cfg


def _inputs(config, *keys) -> list[str]:
    """Manifest inputs of a stage that may read follows: the named input
    files, then the friends file when one is given."""
    inputs = [config[key] for key in keys]
    if config.get("friends"):
        inputs.append(config["friends"])
    return inputs


def cmd_synth(config, out):
    spec = SynthSpec(**_fields(config, SYNTH_FIELDS, SynthSpec))
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"field 'synth': {exc}") from None
    result = generate(spec, out)
    print(f"wrote synthetic corpus for {spec.n_users} users to {out}")
    return [], [result.tweets_path, result.friends_path, result.vaa_path, result.truth_path]


def cmd_ingest(config, out):
    tweets, n_users_raw, kept, records = pipeline.ingest(
        config["tweets"], config["vaa"], _pipeline_config(config)
    )
    labels_path = os.path.join(out, "labels.csv")
    resources.write_csv(labels_path, [["user_id", "normalized_score", "label"]] + [
        [uid, repr(records[uid].normalized_score), records[uid].label]
        for uid in sorted(records) if uid in kept
    ])
    summary_path = os.path.join(out, "ingest_summary.json")
    resources.write_json(summary_path, {
        "n_tweets": len(tweets),
        "n_users_raw": n_users_raw,
        "n_users_kept": len(kept),
        "n_labeled": len(records),
    })
    print(f"kept {len(kept)} of {n_users_raw} users; labels at {labels_path}")
    return [config["tweets"], config["vaa"]], [labels_path, summary_path]


def cmd_lexicon(config, out):
    cfg = _pipeline_config(config)
    lexicon = pipeline.build_lexicon(load_tweets(config["tweets"]), cfg)
    lex_path = os.path.join(out, "lexicon.json")
    lexicon.save(lex_path)
    print(f"lexicon of {len(lexicon)} terms at {lex_path}")
    return [config["tweets"]], [lex_path]


def cmd_dfm(config, out):
    cfg = _pipeline_config(config)
    bundle = pipeline.load_corpus(config["tweets"], config["vaa"], config.get("friends"), cfg)
    users = sorted(bundle.labels)
    outputs = []
    for which in ("pol", "nonpol"):
        dfm = pipeline.build_text_dfm(bundle, users, which, cfg)
        triplet = os.path.join(out, f"dfm_{which}.csv")
        header = os.path.join(out, f"dfm_{which}.json")
        save_dfm(dfm, triplet, header)
        outputs += [triplet, header]
        print(f"{which}: {dfm.shape[0]} users x {dfm.shape[1]} features")
    if bundle.friends:
        net = build_network_matrix(
            {u: bundle.friends.get(u, []) for u in users}, cfg.sparsity_net
        )
        triplet = os.path.join(out, "dfm_net.csv")
        header = os.path.join(out, "dfm_net.json")
        save_dfm(net, triplet, header)
        outputs += [triplet, header]
        print(f"net: {net.shape[0]} users x {net.shape[1]} accounts")
    return _inputs(config, "tweets", "vaa"), outputs


def cmd_topics(config, out):
    which = config.get("which", "nonpol")
    if which not in ("pol", "nonpol"):
        raise ConfigError(f"field 'which': must be pol or nonpol, got {which!r}")
    cfg = _pipeline_config(config)
    bundle = pipeline.load_corpus(config["tweets"], config["vaa"], None, cfg)
    users = sorted(bundle.labels)
    dfm = pipeline.build_text_dfm(bundle, users, which, cfg)
    model = fit_topic_model(dfm, cfg.k_topics)
    theta = fold_in(dfm, model)
    header = os.path.join(out, "topic_model.json")
    beta_csv = os.path.join(out, "topic_beta.csv")
    theta_csv = os.path.join(out, "theta.csv")
    words_csv = os.path.join(out, "top_words.csv")
    save_topic_model(model, header, beta_csv)
    write_theta_csv(theta_csv, users, theta)
    write_top_words_csv(words_csv, word_scores(model.beta, model.vocab), model.k)
    effects_csv = os.path.join(out, "prevalence.csv")
    effects = prevalence_regression(theta, [bundle.labels[u] for u in users])
    resources.write_csv(effects_csv, [["topic", "estimate", "ci_low", "ci_high"]] + [
        [e.topic, repr(e.estimate), repr(e.ci_low), repr(e.ci_high)] for e in effects
    ])
    print(f"fitted {model.k} topics over {len(model.vocab)} features")
    return [config["tweets"], config["vaa"]], [header, beta_csv, theta_csv, words_csv, effects_csv]


def cmd_train(config, out):
    cfg = _pipeline_config(config)
    dataset = config.get("dataset", "non-pol+net")
    family = config.get("family", "SVM_poly")
    if dataset not in pipeline.DATASETS:
        raise ConfigError(f"field 'dataset': unknown dataset {dataset!r}")
    if family not in classify.FAMILIES:
        raise ConfigError(f"field 'family': unknown family {family!r}")
    blocks = pipeline.DATASETS[dataset]
    if blocks.net and not config.get("friends"):
        raise ConfigError("field 'friends': required for network datasets")
    cfg.datasets = (dataset,)
    cfg.families = (family,)
    bundle = pipeline.load_corpus(config["tweets"], config["vaa"], config.get("friends"), cfg)
    sample = pipeline.evaluate_sample(bundle, cfg, cfg.seed)

    m = sample.metrics[dataset][family]
    paths = _bundle_paths(out, blocks)
    classify.save_model(sample.models[(dataset, family)], paths["classifier.json"])
    bundle.lexicon.save(paths["lexicon.json"])
    resources.write_json(paths["train_meta.json"], {
        "dataset": dataset, "family": family, "metrics": m, "seed": cfg.seed, "tau": cfg.tau,
    })
    if blocks.text:
        save_topic_model(sample.topic_models[blocks.text],
                         paths["topic_model.json"], paths["topic_beta.csv"])
    if blocks.net:
        resources.write_json(paths["network_columns.json"],
                             {"columns": list(sample.network_columns)})
    print(f"{dataset}/{family}: F1={m['f1']:.3f} P={m['precision']:.3f} R={m['recall']:.3f}")
    return _inputs(config, "tweets", "vaa"), list(paths.values())


def cmd_eval(config, out):
    cfg = _pipeline_config(config)
    if any(pipeline.DATASETS[d].net for d in cfg.datasets) and not config.get("friends"):
        raise ConfigError("field 'friends': required for network datasets")
    bundle = pipeline.load_corpus(config["tweets"], config["vaa"], config.get("friends"), cfg)
    report, samples = pipeline.evaluate(bundle, cfg)

    report_path = os.path.join(out, "eval_report.json")
    resources.write_json(report_path, report)
    csv_path = os.path.join(out, "eval_report.csv")
    columns = ["f1", "precision", "recall", "unknown"]
    resources.write_csv(csv_path, [["dataset", "family", *columns]] + [
        [dataset, family, *(f"{m[c]:.4f}" for c in columns)]
        for dataset, fams in sorted(report["mean"].items()) for family, m in sorted(fams.items())
    ])
    outputs = [report_path, csv_path]

    # post-hoc diagnostics on the first sample, when features allow
    first = samples[0]
    if ("non-pol+net", "SVM_poly") in first.models:
        x_tr, users_tr, x_te, users_te = first.features["non-pol+net"]
        model = first.models[("non-pol+net", "SVM_poly")]
        truth = [bundle.labels[u] for u in users_te]
        rows = evaluation.threshold_table(classify.predict(model, x_te), truth)
        thr_path = os.path.join(out, "threshold_table.csv")
        evaluation.write_threshold_csv(thr_path, rows)
        outputs.append(thr_path)
        k = first.topic_models["nonpol"].k
        names = [f"topic_{i}" for i in range(k)] + list(first.network_columns)
        ranked = evaluation.permutation_importance(
            model, x_te, truth, names, repeats=5, seed=cfg.seed
        )
        imp_path = os.path.join(out, "feature_importance.csv")
        resources.write_csv(imp_path, [["feature", "importance"]] + [
            [name, repr(value)] for name, value in ranked
        ])
        outputs.append(imp_path)
    if bundle.friends:
        accounts = Counter(a for f in bundle.friends.values() for a in f)
        shares = [
            (a, *evaluation.follow_shares(a, bundle.labels, bundle.friends))
            for a, _ in accounts.most_common(20)
        ]
        fs_path = os.path.join(out, "follow_shares.csv")
        evaluation.write_follow_shares_csv(fs_path, shares)
        outputs.append(fs_path)
    activity = []
    extremity = []
    for uid, doc in bundle.documents.items():
        if uid in bundle.scores and doc.tweet_count:
            activity.append(evaluation.activity_index(doc))
            extremity.append(abs(bundle.scores[uid]))
    if len(activity) >= 3 and np.std(activity) > 0 and np.std(extremity) > 0:
        diag_path = os.path.join(out, "diagnostics.json")
        resources.write_json(diag_path, {
            "pearson_activity_vs_extremity": evaluation.pearson(activity, extremity)
        })
        outputs.append(diag_path)

    for dataset, fams in sorted(report["mean"].items()):
        for family, m in sorted(fams.items()):
            print(f"{dataset:12s} {family:8s} F1={m['f1']:.3f} P={m['precision']:.3f} R={m['recall']:.3f}")
    return _inputs(config, "tweets", "vaa"), outputs


def cmd_predict(config, out):
    meta, bundle_files = _bundle_meta(config)
    users = group_tweets(load_tweets(config["tweets"]))
    preds = _predict_users(config, meta, users, config.get("tau", meta.get("tau", 0.5)))
    pred_path = os.path.join(out, "predictions.csv")
    classify.write_predictions_csv(pred_path, preds)
    print(f"wrote {len(preds)} predictions to {pred_path}")
    return _inputs(config, "tweets") + bundle_files, [pred_path]


def _bundle_paths(model_dir, blocks) -> dict[str, str]:
    """Name -> path of each file of a model bundle for a dataset of these
    blocks: the three every bundle holds, then the topic model of a text
    block and the account columns of a network block."""
    names = ["classifier.json", "lexicon.json", "train_meta.json"]
    if blocks.text:
        names += ["topic_model.json", "topic_beta.csv"]
    if blocks.net:
        names.append("network_columns.json")
    return {name: os.path.join(model_dir, name) for name in names}


def _bundle_meta(config) -> tuple[dict, list[str]]:
    """Check the bundle that `train` saved under model_dir. Return its
    train_meta.json, whose dataset decides the features, and the paths of
    every bundle file that dataset reads."""

    def required(blocks):
        paths = _bundle_paths(config["model_dir"], blocks)
        for name, path in paths.items():
            if not os.path.exists(path):
                raise ConfigError(f"field 'model_dir': missing {name}")
        return paths

    meta = _bundle_json(required(pipeline.Blocks(None, False))["train_meta.json"])
    if meta.get("dataset") not in pipeline.DATASETS:
        raise ConfigError(
            f"field 'model_dir': unknown dataset {meta.get('dataset')!r} in train_meta.json"
        )
    return meta, list(required(pipeline.DATASETS[meta["dataset"]]).values())


def _bundle_json(path) -> dict:
    """The JSON object in a bundle file; anything else is a config error
    that names the file."""
    with open(path, "rb") as fh, resources.parsing(path, "JSON"):
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError(f"field 'model_dir': {os.path.basename(path)} must be a JSON object")
    return obj


def _predict_users(config, meta, users, tau) -> list[classify.Prediction]:
    """Classify grouped users with the saved bundle, on the dataset it
    was trained on."""
    paths = _bundle_paths(config["model_dir"], pipeline.DATASETS[meta["dataset"]])
    model = classify.load_model(paths["classifier.json"])
    lexicon = Lexicon.load(paths["lexicon.json"])
    docs = {uid: assemble_documents(u, lexicon) for uid, u in users.items()}
    user_ids = sorted(docs)
    features, unknown_users = _prediction_features(
        config, config["model_dir"], meta["dataset"], docs, user_ids
    )
    return newsstudy.classify_sharers(features, user_ids, model, tau, unknown_users)


def _prediction_features(config, model_dir, dataset, docs, user_ids):
    """Feature rows for new users matching a trained bundle, built as
    evaluation builds test users' rows, and the users to label Unknown
    (see pipeline.join_features)."""
    blocks = pipeline.DATASETS[dataset]
    paths = _bundle_paths(model_dir, blocks)
    text = net = None
    if blocks.text:
        tmodel = load_topic_model(paths["topic_model.json"], paths["topic_beta.csv"])
        counts = pipeline.side_counts(docs, user_ids, blocks.text)
        text = pipeline.fold_in_users(counts, tmodel)
    if blocks.net:
        columns = _bundle_json(paths["network_columns.json"]).get("columns")
        if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
            raise ConfigError("field 'model_dir': network_columns.json must hold "
                              "a \"columns\" list of account names")
        friends = load_friends(config["friends"]) if config.get("friends") else {}
        net = pipeline.align_network(friends, user_ids, columns)
    return pipeline.join_features(user_ids, text, net)


def cmd_newsstudy(config, out):
    meta, bundle_files = _bundle_meta(config)
    patterns = newsstudy.load_patterns(resources.url_patterns())
    events = newsstudy.load_share_events(config["shares"], patterns)
    sharers = sorted({e.user_id for e in events if e.matched is not None})
    if not sharers:
        raise ConfigError("field 'shares': no share events match any pattern")

    wanted = set(sharers)
    users = group_tweets(t for t in load_tweets(config["tweets"]) if t.user_id in wanted)
    preds = _predict_users(config, meta, users, config.get("tau", 0.7))
    predictions = {p.user_id: p.label for p in preds}
    for uid in sharers:  # sharers without tweets
        predictions.setdefault(uid, classify.UNKNOWN)

    table = newsstudy.counts_table(
        events, predictions, count_shares=bool(config.get("count_shares", False))
    )
    table_path = os.path.join(out, "news_counts.csv")
    newsstudy.write_counts_csv(table_path, table)
    pred_path = os.path.join(out, "sharer_predictions.csv")
    classify.write_predictions_csv(pred_path, preds)
    print(newsstudy.format_counts(table))
    return _inputs(config, "shares", "tweets") + bundle_files, [table_path, pred_path]


# subcommand -> (function, help, config keys naming input files that
# must exist, other flags); each key in the last two is a flag of FLAGS
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic corpus with planted truth", (),
              ("n_users", "k", "vocab_size", "delta", "homophily", "class_ratio",
               "political_fraction")),
    "ingest": (cmd_ingest, "load tweets + VAA, filter users, emit labels", ("tweets", "vaa"),
               ("min_english", "min_tweets")),
    "lexicon": (cmd_lexicon, "induce the political lexicon", ("tweets",),
                ("threshold", "min_lexicon_tweets", "expand", "window", "min_freq")),
    "dfm": (cmd_dfm, "build and save the sparse feature matrices", ("tweets", "vaa"),
            ("friends",)),
    "topics": (cmd_topics, "fit the topic model and emit theta/top words", ("tweets", "vaa"),
               ("k", "which")),
    "train": (cmd_train, "train one classifier and save a model bundle", ("tweets", "vaa"),
              ("friends", "dataset", "family", "k")),
    "eval": (cmd_eval, "full evaluation across datasets and classifiers", ("tweets", "vaa"),
             ("friends", "k", "tau", "n_samples", "datasets", "families")),
    "predict": (cmd_predict, "apply a trained bundle to new users", ("tweets", "model_dir"),
                ("friends", "tau")),
    "newsstudy": (cmd_newsstudy, "classify news sharers and tabulate counts",
                  ("shares", "tweets", "model_dir"), ("friends", "tau", "count_shares")),
}

# config key -> add_argument keywords of its flag, --<key with - for _>;
# an absent flag is None, so it never overrides a config key
FLAGS = {
    "tweets": {}, "vaa": {}, "friends": {}, "model_dir": {},
    "shares": {"help": "JSONL of {user_id, url, timestamp}"},
    "n_users": {"type": int}, "vocab_size": {"type": int},
    "k": {"type": int, "help": "topic count"},
    "delta": {"type": float, "help": "class topic shift in [0,1]"},
    "homophily": {"type": float, "help": "network homophily in [0.5,1]"},
    "class_ratio": {"type": float}, "political_fraction": {"type": float},
    "min_english": {"type": float}, "min_tweets": {"type": int},
    "threshold": {"type": float, "help": "political index cutoff"},
    "min_lexicon_tweets": {"type": int},
    "expand": {"action": "store_true", "default": None,
               "help": "expand seeds with skip-gram nearest neighbours"},
    "window": {"type": int}, "min_freq": {"type": int},
    "which": {"choices": ["pol", "nonpol"]},
    "dataset": {"choices": list(pipeline.DATASETS)},
    "family": {"choices": list(classify.FAMILIES)},
    "tau": {"type": float}, "n_samples": {"type": int},
    "datasets": {"nargs": "+"}, "families": {"nargs": "+"},
    "count_shares": {"action": "store_true", "default": None},
}


def _public(config: dict) -> dict:
    return {k: v for k, v in config.items() if not k.startswith("_")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polilean",
        description="Infer left/right leaning of social-media users from "
        "non-political text and follow networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, required_paths, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("-v", "--verbose", action="store_true")
        for key in required_paths + flags:
            p.add_argument("--" + key.replace("_", "-"), **FLAGS[key])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command, _, required_paths, _ = COMMANDS[args.subcommand]
    try:
        config = _load_config(args, required_paths)
        out = config["out"]
        os.makedirs(out, exist_ok=True)
        inputs, outputs = command(config, out)
        _write_manifest(out, args.subcommand, _public(config), inputs, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except resources.FileFormatError as exc:  # the only files read back are a bundle's
        print(f"config error: field 'model_dir': {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # stage failure
        logger.error("%s", exc, exc_info=args.verbose)
        return EXIT_STAGE_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
