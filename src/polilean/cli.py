"""Command-line front end.

One binary with subcommands covering the pipeline stages. Every run
reads an optional JSON config (flags override config keys), writes its
artifacts under --out, and drops a manifest.json with input/output
hashes, seeds and the package version so reruns are verifiable.

Each subcommand is a `cmd_*(config, out)` function listed in COMMANDS;
it returns its (inputs, outputs) and main() does the shared glue.
"""

import argparse
import hashlib
import json
import logging
import os
import sys
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
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        config[key] = value
    if "out" not in config:
        raise ConfigError("field 'out': required but missing")
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


def _pipeline_config(config) -> pipeline.PipelineConfig:
    values = {field: config[key] for key, field in CONFIG_FIELDS.items() if key in config}
    for field in ("datasets", "families"):
        if field in values:
            values[field] = tuple(values[field])
    cfg = pipeline.PipelineConfig(**values)
    for d in cfg.datasets:
        if d not in pipeline.DATASETS:
            raise ConfigError(f"field 'datasets': unknown dataset {d!r}")
    for fam in cfg.families:
        if fam not in classify.FAMILIES:
            raise ConfigError(f"field 'families': unknown family {fam!r}")
    return cfg


def _inputs(config, *keys) -> list[str]:
    """Manifest inputs of a stage that may read follows: the named input
    files, then the friends file when one is given."""
    inputs = [config[key] for key in keys]
    if config.get("friends"):
        inputs.append(config["friends"])
    return inputs


def cmd_synth(config, out):
    spec = SynthSpec(
        n_users=config.get("n_users", 800),
        class_ratio=config.get("class_ratio", 0.5),
        k_topics=config.get("k", 10),
        vocab_size=config.get("vocab_size", 2000),
        class_topic_shift=config.get("delta", 0.3),
        political_lexicon_fraction=config.get("political_fraction", 0.01),
        network_homophily=config.get("homophily", 0.8),
        tweets_per_user=tuple(config.get("tweets_per_user", (120, 200))),
        seed=config.get("seed", 0),
    )
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
    with open(labels_path, "w") as fh:
        fh.write("user_id,normalized_score,label\n")
        for uid in sorted(records):
            if uid in kept:
                r = records[uid]
                fh.write(f"{uid},{r.normalized_score!r},{r.label}\n")
    summary_path = os.path.join(out, "ingest_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "n_tweets": len(tweets),
                "n_users_raw": n_users_raw,
                "n_users_kept": len(kept),
                "n_labeled": len(records),
            },
            fh, sort_keys=True, indent=2,
        )
        fh.write("\n")
    print(f"kept {len(kept)} of {n_users_raw} users; labels at {labels_path}")
    return [config["tweets"], config["vaa"]], [labels_path, summary_path]


def cmd_lexicon(config, out):
    lexicon = pipeline.build_lexicon(load_tweets(config["tweets"]), _pipeline_config(config))
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
    with open(effects_csv, "w") as fh:
        fh.write("topic,estimate,ci_low,ci_high\n")
        for e in effects:
            fh.write(f"{e.topic},{e.estimate!r},{e.ci_low!r},{e.ci_high!r}\n")
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

    model_path = os.path.join(out, "classifier.json")
    classify.save_model(sample.models[(dataset, family)], model_path)
    outputs = [model_path]
    lex_path = os.path.join(out, "lexicon.json")
    bundle.lexicon.save(lex_path)
    outputs.append(lex_path)
    if blocks.text:
        tm_header = os.path.join(out, "topic_model.json")
        tm_beta = os.path.join(out, "topic_beta.csv")
        save_topic_model(sample.topic_models[blocks.text], tm_header, tm_beta)
        outputs += [tm_header, tm_beta]
    if blocks.net:
        net_path = os.path.join(out, "network_columns.json")
        with open(net_path, "w") as fh:
            json.dump({"columns": list(sample.network_columns)}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        outputs.append(net_path)
    meta_path = os.path.join(out, "train_meta.json")
    with open(meta_path, "w") as fh:
        json.dump(
            {"dataset": dataset, "family": family, "metrics": sample.metrics[dataset][family],
             "seed": cfg.seed, "tau": cfg.tau},
            fh, sort_keys=True, indent=2,
        )
        fh.write("\n")
    outputs.append(meta_path)
    m = sample.metrics[dataset][family]
    print(f"{dataset}/{family}: F1={m['f1']:.3f} P={m['precision']:.3f} R={m['recall']:.3f}")
    return _inputs(config, "tweets", "vaa"), outputs


def cmd_eval(config, out):
    cfg = _pipeline_config(config)
    if any(pipeline.DATASETS[d].net for d in cfg.datasets) and not config.get("friends"):
        raise ConfigError("field 'friends': required for network datasets")
    report = pipeline.run_pipeline(
        config["tweets"], config["vaa"], config.get("friends"), cfg
    )
    bundle = report.pop("_bundle")
    samples = report.pop("_sample_objects")

    report_path = os.path.join(out, "eval_report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    csv_path = os.path.join(out, "eval_report.csv")
    with open(csv_path, "w") as fh:
        fh.write("dataset,family,f1,precision,recall,unknown\n")
        for dataset, fams in sorted(report["mean"].items()):
            for family, m in sorted(fams.items()):
                fh.write(
                    f"{dataset},{family},{m['f1']:.4f},{m['precision']:.4f},"
                    f"{m['recall']:.4f},{m['unknown']:.4f}\n"
                )
    outputs = [report_path, csv_path]

    # post-hoc diagnostics on the first sample, when features allow
    first = samples[0]
    diag = {}
    if ("non-pol+net", "SVM_poly") in first.models:
        x_tr, users_tr, x_te, users_te = first.features["non-pol+net"]
        model = first.models[("non-pol+net", "SVM_poly")]
        p = classify.predict(model, x_te)
        rows = evaluation.threshold_table(p, [bundle.labels[u] for u in users_te])
        thr_path = os.path.join(out, "threshold_table.csv")
        evaluation.write_threshold_csv(thr_path, rows)
        outputs.append(thr_path)
        k = first.topic_models["nonpol"].k
        names = [f"topic_{i}" for i in range(k)] + list(first.network_columns)
        ranked = evaluation.permutation_importance(
            model, x_te, [bundle.labels[u] for u in users_te], names, repeats=5, seed=cfg.seed
        )
        imp_path = os.path.join(out, "feature_importance.csv")
        with open(imp_path, "w") as fh:
            fh.write("feature,importance\n")
            for name, value in ranked:
                fh.write(f"{name},{value!r}\n")
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
        diag["pearson_activity_vs_extremity"] = evaluation.pearson(activity, extremity)
    if diag:
        diag_path = os.path.join(out, "diagnostics.json")
        with open(diag_path, "w") as fh:
            json.dump(diag, fh, sort_keys=True, indent=2)
            fh.write("\n")
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


def _bundle_meta(config) -> tuple[dict, list[str]]:
    """Check the bundle that `train` saved under model_dir. Return its
    train_meta.json, whose dataset decides the features, and the paths of
    every bundle file that dataset reads."""
    model_dir = config["model_dir"]

    def required(*names):
        paths = [os.path.join(model_dir, name) for name in names]
        for name, path in zip(names, paths):
            if not os.path.exists(path):
                raise ConfigError(f"field 'model_dir': missing {name}")
        return paths

    files = required("classifier.json", "lexicon.json", "train_meta.json")
    with open(files[-1]) as fh:
        meta = json.load(fh)
    if meta.get("dataset") not in pipeline.DATASETS:
        raise ConfigError(
            f"field 'model_dir': unknown dataset {meta.get('dataset')!r} in train_meta.json"
        )
    blocks = pipeline.DATASETS[meta["dataset"]]
    if blocks.text:
        files += required("topic_model.json", "topic_beta.csv")
    if blocks.net:
        files += required("network_columns.json")
    return meta, files


def _predict_users(config, meta, users, tau) -> list[classify.Prediction]:
    """Classify grouped users with the saved bundle, on the dataset it
    was trained on."""
    model_dir = config["model_dir"]
    model = classify.load_model(os.path.join(model_dir, "classifier.json"))
    lexicon = Lexicon.load(os.path.join(model_dir, "lexicon.json"))
    docs = {uid: assemble_documents(u, lexicon) for uid, u in users.items()}
    user_ids = sorted(docs)
    features, unknown_users = _prediction_features(
        config, model_dir, meta["dataset"], docs, user_ids
    )
    return newsstudy.classify_sharers(features, user_ids, model, tau, unknown_users)


def _prediction_features(config, model_dir, dataset, docs, user_ids):
    """Feature rows for new users matching a trained bundle, built as
    evaluation builds test users' rows, and the users to label Unknown
    (see pipeline.join_features)."""
    blocks = pipeline.DATASETS[dataset]
    text = net = None
    if blocks.text:
        tmodel = load_topic_model(
            os.path.join(model_dir, "topic_model.json"), os.path.join(model_dir, "topic_beta.csv")
        )
        counts = pipeline.side_counts(docs, user_ids, blocks.text)
        text = pipeline.fold_in_users(counts, tmodel)
    if blocks.net:
        with open(os.path.join(model_dir, "network_columns.json")) as fh:
            columns = json.load(fh)["columns"]
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


# subcommand -> (function, config keys naming input files that must exist)
COMMANDS = {
    "synth": (cmd_synth, ()),
    "ingest": (cmd_ingest, ("tweets", "vaa")),
    "lexicon": (cmd_lexicon, ("tweets",)),
    "dfm": (cmd_dfm, ("tweets", "vaa")),
    "topics": (cmd_topics, ("tweets", "vaa")),
    "train": (cmd_train, ("tweets", "vaa")),
    "eval": (cmd_eval, ("tweets", "vaa")),
    "predict": (cmd_predict, ("tweets", "model_dir")),
    "newsstudy": (cmd_newsstudy, ("shares", "tweets", "model_dir")),
}


def _public(config: dict) -> dict:
    return {k: v for k, v in config.items() if not k.startswith("_")}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polilean",
        description="Infer left/right leaning of social-media users from "
        "non-political text and follow networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted truth")
    _add_common(p)
    p.add_argument("--n-users", dest="n_users", type=int)
    p.add_argument("--k", type=int, help="planted topic count")
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--delta", type=float, help="class topic shift in [0,1]")
    p.add_argument("--homophily", type=float, help="network homophily in [0.5,1]")
    p.add_argument("--class-ratio", dest="class_ratio", type=float)
    p.add_argument("--political-fraction", dest="political_fraction", type=float)

    p = sub.add_parser("ingest", help="load tweets + VAA, filter users, emit labels")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--vaa")
    p.add_argument("--min-english", dest="min_english", type=float)
    p.add_argument("--min-tweets", dest="min_tweets", type=int)

    p = sub.add_parser("lexicon", help="induce the political lexicon")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--threshold", type=float, help="political index cutoff")
    p.add_argument("--min-lexicon-tweets", dest="min_lexicon_tweets", type=int)
    p.add_argument("--expand", action="store_true", default=None,
                   help="expand seeds with skip-gram nearest neighbours")
    p.add_argument("--window", type=int)
    p.add_argument("--min-freq", dest="min_freq", type=int)

    p = sub.add_parser("dfm", help="build and save the sparse feature matrices")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--vaa")
    p.add_argument("--friends")

    p = sub.add_parser("topics", help="fit the topic model and emit theta/top words")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--vaa")
    p.add_argument("--k", type=int)
    p.add_argument("--which", choices=["pol", "nonpol"])

    p = sub.add_parser("train", help="train one classifier and save a model bundle")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--vaa")
    p.add_argument("--friends")
    p.add_argument("--dataset", choices=list(pipeline.DATASETS))
    p.add_argument("--family", choices=list(classify.FAMILIES))
    p.add_argument("--k", type=int)

    p = sub.add_parser("eval", help="full evaluation across datasets and classifiers")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--vaa")
    p.add_argument("--friends")
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--datasets", nargs="+")
    p.add_argument("--families", nargs="+")

    p = sub.add_parser("predict", help="apply a trained bundle to new users")
    _add_common(p)
    p.add_argument("--tweets")
    p.add_argument("--friends")
    p.add_argument("--model-dir", dest="model_dir")
    p.add_argument("--tau", type=float)

    p = sub.add_parser("newsstudy", help="classify news sharers and tabulate counts")
    _add_common(p)
    p.add_argument("--shares", help="JSONL of {user_id, url, timestamp}")
    p.add_argument("--tweets")
    p.add_argument("--friends")
    p.add_argument("--model-dir", dest="model_dir")
    p.add_argument("--tau", type=float)
    p.add_argument("--count-shares", dest="count_shares", action="store_true", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command, required_paths = COMMANDS[args.subcommand]
    try:
        config = _load_config(args, required_paths)
        out = config["out"]
        os.makedirs(out, exist_ok=True)
        inputs, outputs = command(config, out)
        _write_manifest(out, args.subcommand, _public(config), inputs, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # stage failure
        logger.error("%s", exc, exc_info=args.verbose)
        return EXIT_STAGE_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
