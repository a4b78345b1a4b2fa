"""Command-line interface: the full stage chain on a tiny corpus,
config validation exit codes and run manifests."""

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import shutil
import subprocess
import sys

from datetime import datetime, timezone

import numpy as np
import pytest

import polilean
from polilean import classify, cli, newsstudy, pipeline, resources
from polilean.corpus import Tweet, UserRecord, assemble_documents, group_tweets, load_friends, load_tweets
from polilean.newsstudy import project_features
from polilean.polex import Lexicon
from polilean.textprep import load_dfm
from polilean.topics import load_topic_model

SYNTH_CONFIG = {
    "seed": 5,
    "n_users": 60,
    "k": 3,
    "vocab_size": 150,
    "delta": 0.8,
    "homophily": 0.9,
    "tweets_per_user": [25, 35],
}

COMMON = {
    "k": 3,
    "min_tweets": 10,
    "min_lexicon_tweets": 40,
    "calibration_folds": 3,
}


def _write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _run(tmp, subcommand, payload):
    cfg = _write_config(tmp / f"{subcommand}_config.json", payload)
    return cli.main([subcommand, "--config", cfg])


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def _assert_manifest(out_dir, subcommand, inputs):
    manifest = _manifest(out_dir)
    assert manifest["subcommand"] == subcommand
    assert set(manifest["inputs"]) == set(inputs)
    return manifest


TWEETS_VAA = {"tweets.jsonl", "vaa.csv"}
TWEETS_VAA_FRIENDS = TWEETS_VAA | {"friends.jsonl"}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Run the synth stage once; later stages chain off its outputs."""
    tmp = tmp_path_factory.mktemp("cli_chain")
    data = tmp / "data"
    code = _run(tmp, "synth", {**SYNTH_CONFIG, "out": str(data)})
    assert code == 0
    return {
        "tmp": tmp,
        "data": str(data),
        "tweets": str(data / "tweets.jsonl"),
        "vaa": str(data / "vaa.csv"),
        "friends": str(data / "friends.jsonl"),
    }


class TestSynth:
    def test_outputs_and_manifest(self, work):
        data = work["data"]
        for name in ("tweets.jsonl", "friends.jsonl", "vaa.csv", "truth.json"):
            assert os.path.exists(os.path.join(data, name))
        manifest = _manifest(data)
        assert manifest["subcommand"] == "synth"
        assert manifest["config"]["seed"] == 5
        assert manifest["inputs"] == {}
        assert set(manifest["outputs"]) == {
            "tweets.jsonl", "friends.jsonl", "vaa.csv", "truth.json"
        }
        for digest in manifest["outputs"].values():
            assert len(digest) == 64

    def test_rerun_with_same_seed_is_byte_identical(self, work):
        tmp = work["tmp"]
        again = tmp / "data_again"
        assert _run(tmp, "synth", {**SYNTH_CONFIG, "out": str(again)}) == 0
        assert _manifest(work["data"])["outputs"] == _manifest(str(again))["outputs"]

    def test_different_seed_changes_hashes(self, work):
        tmp = work["tmp"]
        other = tmp / "data_other"
        assert _run(tmp, "synth", {**SYNTH_CONFIG, "seed": 6, "out": str(other)}) == 0
        assert (
            _manifest(work["data"])["outputs"]["tweets.jsonl"]
            != _manifest(str(other))["outputs"]["tweets.jsonl"]
        )


class TestIngestAndLexicon:
    def test_ingest(self, work):
        out = work["tmp"] / "ingested"
        code = _run(work["tmp"], "ingest", {
            "tweets": work["tweets"], "vaa": work["vaa"], "out": str(out),
            **COMMON,
        })
        assert code == 0
        with open(out / "ingest_summary.json") as fh:
            summary = json.load(fh)
        assert summary["n_users_raw"] == 60
        assert summary["n_users_kept"] == 60
        with open(out / "labels.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert {r["label"] for r in rows} == {"Left", "Right"}
        _assert_manifest(out, "ingest", TWEETS_VAA)

    def test_ingest_has_no_friends_option(self, work):
        with pytest.raises(SystemExit):
            cli.main(["ingest", "--tweets", work["tweets"], "--vaa", work["vaa"],
                      "--friends", work["friends"], "--out", str(work["tmp"] / "x")])

    def test_lexicon(self, work):
        out = work["tmp"] / "lexicon"
        code = _run(work["tmp"], "lexicon", {
            "tweets": work["tweets"], "out": str(out), **COMMON,
        })
        assert code == 0
        lex = Lexicon.load(out / "lexicon.json")
        assert len(lex) >= 1
        _assert_manifest(out, "lexicon", {"tweets.jsonl"})


class TestDfmAndTopics:
    def test_dfm_saves_loadable_matrices(self, work):
        out = work["tmp"] / "dfm"
        code = _run(work["tmp"], "dfm", {
            "tweets": work["tweets"], "vaa": work["vaa"],
            "friends": work["friends"], "out": str(out), **COMMON,
        })
        assert code == 0
        expected = {
            "dfm_pol.csv", "dfm_pol.json",
            "dfm_nonpol.csv", "dfm_nonpol.json",
            "dfm_net.csv", "dfm_net.json",
        }
        assert expected <= set(os.listdir(out))
        assert expected == set(_assert_manifest(out, "dfm", TWEETS_VAA_FRIENDS)["outputs"])
        dfm = load_dfm(out / "dfm_nonpol.csv", out / "dfm_nonpol.json")
        assert dfm.shape[0] == 60
        assert dfm.shape[1] >= 1

    def test_topics_writes_model_theta_and_rankings(self, work):
        out = work["tmp"] / "topics"
        code = _run(work["tmp"], "topics", {
            "tweets": work["tweets"], "vaa": work["vaa"],
            "out": str(out), **COMMON,
        })
        assert code == 0
        model = load_topic_model(out / "topic_model.json", out / "topic_beta.csv")
        assert model.k == 3
        with open(out / "theta.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        for row in rows[:5]:
            total = sum(float(row[f"theta_{k}"]) for k in range(3))
            assert abs(total - 1.0) <= 1e-6
        assert os.path.exists(out / "top_words.csv")
        assert os.path.exists(out / "prevalence.csv")
        _assert_manifest(out, "topics", TWEETS_VAA)


@pytest.fixture(scope="module")
def trained(work):
    out = work["tmp"] / "model"
    code = _run(work["tmp"], "train", {
        "tweets": work["tweets"], "vaa": work["vaa"], "friends": work["friends"],
        "out": str(out), "dataset": "non-pol+net", "family": "SVM_poly",
        **COMMON,
    })
    assert code == 0
    return str(out)


BUNDLE_INPUTS = {
    "tweets.jsonl", "friends.jsonl", "classifier.json", "lexicon.json",
    "train_meta.json", "topic_model.json", "topic_beta.csv", "network_columns.json",
}


class TestTrainPredict:
    def test_train_artifacts(self, trained):
        expected = {
            "classifier.json", "lexicon.json", "topic_model.json",
            "topic_beta.csv", "network_columns.json", "train_meta.json",
        }
        assert expected <= set(os.listdir(trained))
        with open(os.path.join(trained, "train_meta.json")) as fh:
            meta = json.load(fh)
        assert meta["dataset"] == "non-pol+net"
        assert meta["family"] == "SVM_poly"
        assert 0.0 <= meta["metrics"]["f1"] <= 1.0
        _assert_manifest(trained, "train", TWEETS_VAA_FRIENDS)

    def test_predict_covers_every_user(self, work, trained):
        out = work["tmp"] / "preds"
        code = _run(work["tmp"], "predict", {
            "tweets": work["tweets"], "friends": work["friends"],
            "model_dir": trained, "out": str(out), "tau": 0.5, **COMMON,
        })
        assert code == 0
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert {r["label"] for r in rows} <= {"Left", "Right", "Unknown"}
        for r in rows:
            assert 0.0 <= float(r["p_right"]) <= 1.0

    def test_manifest_hashes_friends_and_every_bundle_file(self, work, trained, tmp_path):
        other_friends = tmp_path / "friends.jsonl"
        with open(work["friends"]) as src:
            lines = src.readlines()
        other_friends.write_text("".join(lines[1:]))
        inputs = []
        for name, friends in (("a", work["friends"]), ("b", str(other_friends))):
            out = tmp_path / name
            assert _run(tmp_path, "predict", {
                "tweets": work["tweets"], "friends": friends,
                "model_dir": trained, "out": str(out), **COMMON,
            }) == 0
            inputs.append(_assert_manifest(out, "predict", BUNDLE_INPUTS)["inputs"])
        assert inputs[0]["friends.jsonl"] != inputs[1]["friends.jsonl"]
        assert {k: v for k, v in inputs[0].items() if k != "friends.jsonl"} == {
            k: v for k, v in inputs[1].items() if k != "friends.jsonl"
        }

    def test_newsstudy_counts(self, work, trained):
        tmp = work["tmp"]
        shares = tmp / "shares.jsonl"
        with open(shares, "w") as fh:
            for i in range(8):
                fh.write(json.dumps({
                    "user_id": f"u{i:05d}",
                    "url": "https://www.theguardian.com/politics/2018/jun/1/x",
                }) + "\n")
            for i in range(8, 12):
                fh.write(json.dumps({
                    "user_id": f"u{i:05d}",
                    "url": "https://www.bbc.co.uk/sport/football/9",
                }) + "\n")
            fh.write(json.dumps({
                "user_id": "u00001", "url": "https://example.com/nothing",
            }) + "\n")
        out = tmp / "news"
        code = _run(tmp, "newsstudy", {
            "shares": str(shares), "tweets": work["tweets"],
            "friends": work["friends"], "model_dir": trained,
            "out": str(out), **COMMON,
        })
        assert code == 0
        with open(out / "news_counts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "counts table must not be empty"
        for r in rows:
            cells = [int(r["guardian"]), int(r["bbc"]), int(r["telegraph"])]
            assert int(r["total"]) == sum(cells)
        political_total = sum(
            int(r["total"]) for r in rows if r["newstype"] == "political"
        )
        sport_total = sum(int(r["total"]) for r in rows if r["newstype"] == "sport")
        assert political_total == 8 and sport_total == 4
        assert os.path.exists(out / "sharer_predictions.csv")
        _assert_manifest(out, "newsstudy", BUNDLE_INPUTS | {"shares.jsonl"})

    def test_newsstudy_uses_the_bundles_dataset(self, work):
        # a text-only bundle has no network_columns.json; newsstudy must
        # read the dataset from train_meta.json as predict does
        tmp = work["tmp"]
        model = tmp / "model_nonpol_nb"
        assert _run(tmp, "train", {
            "tweets": work["tweets"], "vaa": work["vaa"], "out": str(model),
            "dataset": "non-pol", "family": "NB", **COMMON,
        }) == 0
        assert not os.path.exists(model / "network_columns.json")
        shares = tmp / "shares_nonpol.jsonl"
        with open(shares, "w") as fh:
            for i in range(6):
                fh.write(json.dumps({
                    "user_id": f"u{i:05d}",
                    "url": "https://www.theguardian.com/politics/2018/jun/1/x",
                }) + "\n")
        out = tmp / "news_nonpol"
        code = _run(tmp, "newsstudy", {
            "shares": str(shares), "tweets": work["tweets"],
            "model_dir": str(model), "out": str(out), **COMMON,
        })
        assert code == 0
        with open(out / "sharer_predictions.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_prediction_network_block_is_the_aligned_matrix(self, work, trained, tmp_path):
        with open(os.path.join(trained, "network_columns.json")) as fh:
            columns = json.load(fh)["columns"]
        # zz_empty has neither text features nor follows, zz_follow only
        # follows, and u00000 only text
        users = group_tweets(load_tweets(work["tweets"]))
        for uid in ("zz_empty", "zz_follow"):
            users[uid] = UserRecord(uid, [
                Tweet(uid, datetime(2016, 1, d + 1, tzinfo=timezone.utc), "the and of it")
                for d in range(12)
            ])
        friends = load_friends(work["friends"])
        friends["zz_follow"] = columns[:2]
        del friends["u00000"]
        friends_path = tmp_path / "friends.jsonl"
        with open(friends_path, "w") as fh:
            for uid, accounts in friends.items():
                fh.write(json.dumps({"user_id": uid, "friends": accounts}) + "\n")
        lexicon = Lexicon.load(os.path.join(trained, "lexicon.json"))
        docs = {uid: assemble_documents(u, lexicon) for uid, u in users.items()}
        user_ids = sorted(docs)
        features, unknown = cli._prediction_features(
            {"friends": str(friends_path)}, trained, "non-pol+net", docs, user_ids
        )

        net = pipeline.align_network(friends, user_ids, columns).matrix.toarray()
        tmodel = load_topic_model(
            os.path.join(trained, "topic_model.json"), os.path.join(trained, "topic_beta.csv")
        )
        block = features[:, tmodel.k:]
        assert block.dtype == net.dtype and block.shape == net.shape
        assert block.tobytes() == net.tobytes()

        stopwords = resources.smart_stopwords()
        counts = {
            uid: pipeline.user_feature_counts(docs[uid].nonpolitical_tweets, stopwords)
            for uid in user_ids
        }
        text = np.asarray(project_features(counts, tmodel.vocab).matrix.sum(axis=1)).ravel()
        expected = [u for u, t, n in zip(user_ids, text, net.sum(axis=1)) if t == 0 and n == 0]
        assert unknown == expected
        assert "zz_empty" in unknown
        assert "zz_follow" not in unknown and "u00000" not in unknown


    def test_featureless_user_is_warned_about_once(self, work, trained, tmp_path, caplog):
        tweets = tmp_path / "tweets.jsonl"
        with open(work["tweets"]) as src, open(tweets, "w") as fh:
            fh.write(src.read())
            for d in range(12):
                fh.write(json.dumps({
                    "user_id": "zz_stop", "timestamp": f"2016-01-{d + 1:02d}T10:00:00Z",
                    "text": "the and of it",
                }) + "\n")
        out = tmp_path / "preds"
        with caplog.at_level(logging.WARNING):
            assert _run(tmp_path, "predict", {
                "tweets": str(tweets), "friends": work["friends"], "model_dir": trained,
                "out": str(out), "tau": 0.5, **COMMON,
            }) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "zz_stop" in warnings[0], warnings
        with open(out / "predictions.csv") as fh:
            labels = {r["user_id"]: r["label"] for r in csv.DictReader(fh)}
        assert labels["zz_stop"] == "Unknown"


class TestOneFeaturePath:
    """A user's features depend only on that user and the saved bundle,
    and evaluation builds test users' rows exactly as predict does."""

    def _predict(self, work, trained, user_ids):
        users = group_tweets(load_tweets(work["tweets"]))
        lexicon = Lexicon.load(os.path.join(trained, "lexicon.json"))
        docs = {uid: assemble_documents(users[uid], lexicon) for uid in user_ids}
        features, unknown = cli._prediction_features(
            {"friends": work["friends"]}, trained, "non-pol+net", docs, user_ids
        )
        model = classify.load_model(os.path.join(trained, "classifier.json"))
        preds = newsstudy.classify_sharers(features, user_ids, model, 0.5, unknown)
        return {p.user_id: p for p in preds}

    def test_prediction_does_not_depend_on_the_batch(self, work, trained):
        everyone = sorted(group_tweets(load_tweets(work["tweets"])))
        for uid in ("u00003", "u00031"):
            alone = self._predict(work, trained, [uid])[uid]
            i = everyone.index(uid)
            trio = self._predict(work, trained, everyone[i - 1:i + 2])[uid]
            full = self._predict(work, trained, everyone[::-1])[uid]
            for other in (trio, full):
                assert abs(other.p_right - alone.p_right) <= 1e-12, (uid, alone, other)
                assert other.label == alone.label

    def test_eval_test_rows_are_the_predict_rows(self, work, trained):
        cfg = cli._pipeline_config(COMMON)
        cfg.datasets, cfg.families = ("non-pol+net",), ("SVM_poly",)
        bundle = pipeline.load_corpus(work["tweets"], work["vaa"], work["friends"], cfg)
        sample = pipeline.evaluate_sample(bundle, cfg, cfg.seed)
        _, _, x_test, users_test = sample.features["non-pol+net"]
        assert users_test == list(sample.split[1])

        users = group_tweets(load_tweets(work["tweets"]))
        lexicon = Lexicon.load(os.path.join(trained, "lexicon.json"))
        docs = {uid: assemble_documents(users[uid], lexicon) for uid in users_test}
        features, unknown = cli._prediction_features(
            {"friends": work["friends"]}, trained, "non-pol+net", docs, users_test
        )
        assert features.dtype == x_test.dtype and features.shape == x_test.shape
        assert features.tobytes() == x_test.tobytes()
        assert unknown == sample.unknown["non-pol+net"]

    def test_net_bundle_abstains_without_follows(self, work, tmp_path):
        tmp = work["tmp"]
        model = tmp / "model_net_nb"
        assert _run(tmp, "train", {
            "tweets": work["tweets"], "vaa": work["vaa"], "friends": work["friends"],
            "out": str(model), "dataset": "net", "family": "NB", **COMMON,
        }) == 0
        tweets = tmp_path / "tweets.jsonl"
        with open(work["tweets"]) as src, open(tweets, "w") as fh:
            fh.write(src.read())
            for d in range(12):
                fh.write(json.dumps({
                    "user_id": "zz_loner", "timestamp": f"2016-01-{d + 1:02d}T10:00:00Z",
                    "text": "football match tonight with friends",
                }) + "\n")
        out = tmp_path / "preds"
        assert _run(tmp_path, "predict", {
            "tweets": str(tweets), "friends": work["friends"], "model_dir": str(model),
            "out": str(out), "tau": 0.5, **COMMON,
        }) == 0
        with open(out / "predictions.csv") as fh:
            labels = {r["user_id"]: r["label"] for r in csv.DictReader(fh)}
        assert labels["zz_loner"] == "Unknown"
        assert len(labels) == 61

    def test_prediction_ignores_the_pipeline_config(self, work, trained, tmp_path):
        # n-grams are fixed at 1-3: a config key naming other orders
        # must not change what the bundle predicts
        outputs = []
        for name, extra in (("plain", {}), ("unigrams", {"ngram_orders": [1]})):
            out = tmp_path / name
            assert _run(tmp_path, "predict", {
                "tweets": work["tweets"], "friends": work["friends"], "model_dir": trained,
                "out": str(out), "tau": 0.5, **COMMON, **extra,
            }) == 0
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestEval:
    def test_eval_report(self, work):
        out = work["tmp"] / "evaluated"
        code = _run(work["tmp"], "eval", {
            "tweets": work["tweets"], "vaa": work["vaa"],
            "friends": work["friends"], "out": str(out),
            "datasets": ["net"], "families": ["NB"], **COMMON,
        })
        assert code == 0
        with open(out / "eval_report.json") as fh:
            report = json.load(fh)
        assert "net" in report["mean"]
        assert "NB" in report["mean"]["net"]
        with open(out / "eval_report.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "dataset,family,f1,precision,recall,unknown"
        assert lines[1].startswith("net,NB,")
        assert os.path.exists(out / "follow_shares.csv")
        _assert_manifest(out, "eval", TWEETS_VAA_FRIENDS)


def test_parser_subcommands_are_the_command_table():
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == list(cli.COMMANDS)


def _parsed_config(argv, config_file=None):
    """The config a command line gives, without running the subcommand."""
    if config_file:
        argv = [*argv, "--config", config_file]
    return cli._load_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, expected", [
    (["synth", "--n-users", "40", "--k", "4", "--delta", "0.5", "--class-ratio", "0.4",
      "--political-fraction", "0.02", "--vocab-size", "300", "--homophily", "0.9"],
     {"n_users": 40, "k": 4, "delta": 0.5, "class_ratio": 0.4, "political_fraction": 0.02,
      "vocab_size": 300, "homophily": 0.9}),
    (["ingest", "--tweets", "t", "--vaa", "v", "--min-english", "0.5", "--min-tweets", "3"],
     {"tweets": "t", "vaa": "v", "min_english": 0.5, "min_tweets": 3}),
    (["lexicon", "--tweets", "t", "--threshold", "0.2", "--min-lexicon-tweets", "9",
      "--expand", "--window", "2", "--min-freq", "1"],
     {"tweets": "t", "threshold": 0.2, "min_lexicon_tweets": 9, "expand": True,
      "window": 2, "min_freq": 1}),
    (["dfm", "--tweets", "t", "--vaa", "v", "--friends", "f"],
     {"tweets": "t", "vaa": "v", "friends": "f"}),
    (["topics", "--tweets", "t", "--vaa", "v", "--k", "5", "--which", "pol"],
     {"tweets": "t", "vaa": "v", "k": 5, "which": "pol"}),
    (["train", "--tweets", "t", "--vaa", "v", "--friends", "f", "--dataset", "net",
      "--family", "NB", "--k", "5"],
     {"tweets": "t", "vaa": "v", "friends": "f", "dataset": "net", "family": "NB", "k": 5}),
    (["eval", "--tweets", "t", "--vaa", "v", "--friends", "f", "--k", "5", "--tau", "0.6",
      "--n-samples", "3", "--datasets", "a", "b", "--families", "NB"],
     {"tweets": "t", "vaa": "v", "friends": "f", "k": 5, "tau": 0.6, "n_samples": 3,
      "datasets": ["a", "b"], "families": ["NB"]}),
    (["predict", "--tweets", "t", "--friends", "f", "--model-dir", "m", "--tau", "0.7"],
     {"tweets": "t", "friends": "f", "model_dir": "m", "tau": 0.7}),
    (["newsstudy", "--shares", "s", "--tweets", "t", "--friends", "f", "--model-dir", "m",
      "--tau", "0.7", "--count-shares"],
     {"shares": "s", "tweets": "t", "friends": "f", "model_dir": "m", "tau": 0.7,
      "count_shares": True}),
])
def test_flags_set_typed_config_keys(argv, expected):
    config = _parsed_config([*argv, "--out", "o", "--seed", "2"])
    assert config == {**expected, "subcommand": argv[0], "out": "o", "seed": 2,
                      "verbose": False}
    for key, value in expected.items():
        assert type(config[key]) is type(value), key


@pytest.mark.parametrize("subcommand, key", [("lexicon", "expand"),
                                             ("newsstudy", "count_shares")])
def test_absent_switch_keeps_the_config_value(tmp_path, subcommand, key):
    config_file = _write_config(tmp_path / "c.json", {key: True, "out": "o"})
    assert _parsed_config([subcommand], config_file)[key] is True


class TestConfigErrors:
    def test_missing_required_key(self, tmp_path):
        code = _run(tmp_path, "synth", {"n_users": 10})  # no "out"
        assert code == 2

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["synth", "--config", str(bad)]) == 2
        assert "config error: field 'config'" in capsys.readouterr().err

    def test_config_file_not_found(self, tmp_path):
        assert cli.main(["synth", "--config", str(tmp_path / "none.json")]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = _run(tmp_path, "ingest", {
            "tweets": str(tmp_path / "absent.jsonl"),
            "vaa": str(tmp_path / "absent.csv"),
            "out": str(tmp_path / "out"),
        })
        assert code == 2
        assert "field 'tweets'" in capsys.readouterr().err

    def test_invalid_synth_spec(self, tmp_path, capsys):
        code = _run(tmp_path, "synth", {"out": str(tmp_path / "o"), "delta": 2.0})
        assert code == 2
        assert "class_topic_shift" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({"n_users": 0}, "n_users must be at least 1"),
        ({"tweets_per_user": [-3, 2], "n_users": 3}, "tweets_per_user must not be negative"),
        ({"political_fraction": -0.5}, "political_lexicon_fraction must be in [0, 1]"),
    ])
    def test_synth_spec_ranges(self, tmp_path, capsys, payload, message):
        out = tmp_path / "o"
        assert _run(tmp_path, "synth", {**payload, "out": str(out)}) == 2
        assert f"field 'synth': {message}" in capsys.readouterr().err
        assert not (out / "tweets.jsonl").exists()

    def test_unknown_dataset_and_family(self, work):
        tmp = work["tmp"]
        base = {"tweets": work["tweets"], "vaa": work["vaa"],
                "out": str(tmp / "bad_train")}
        assert _run(tmp, "train", {**base, "dataset": "everything"}) == 2
        assert _run(tmp, "train", {**base, "family": "forest"}) == 2

    def test_network_dataset_requires_friends(self, work, capsys):
        tmp = work["tmp"]
        code = _run(tmp, "train", {
            "tweets": work["tweets"], "vaa": work["vaa"],
            "out": str(tmp / "bad_train2"), "dataset": "net", "family": "NB",
        })
        assert code == 2
        assert "field 'friends'" in capsys.readouterr().err

    def test_predict_requires_model_artifacts(self, work, tmp_path, capsys):
        code = _run(tmp_path, "predict", {
            "tweets": work["tweets"], "model_dir": str(tmp_path),
            "out": str(tmp_path / "p"),
        })
        assert code == 2
        assert "model_dir" in capsys.readouterr().err

    def test_bundle_must_name_its_dataset(self, work, trained, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        os.remove(bundle / "train_meta.json")
        shares = tmp_path / "shares.jsonl"
        shares.write_text(json.dumps({
            "user_id": "u00000", "url": "https://www.bbc.co.uk/sport/football/9",
        }) + "\n")
        common = {"tweets": work["tweets"], "friends": work["friends"], "model_dir": str(bundle)}
        assert _run(tmp_path, "predict", {**common, "out": str(tmp_path / "p")}) == 2
        assert "missing train_meta.json" in capsys.readouterr().err
        assert _run(tmp_path, "newsstudy", {
            **common, "shares": str(shares), "out": str(tmp_path / "n"),
        }) == 2
        assert "missing train_meta.json" in capsys.readouterr().err
        (bundle / "train_meta.json").write_text(json.dumps({"dataset": "everything"}))
        assert _run(tmp_path, "predict", {**common, "out": str(tmp_path / "p")}) == 2
        assert "unknown dataset 'everything'" in capsys.readouterr().err

    def test_missing_topic_beta_exits_2(self, work, trained, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        os.remove(bundle / "topic_beta.csv")
        assert _run(tmp_path, "predict", {
            "tweets": work["tweets"], "friends": work["friends"],
            "model_dir": str(bundle), "out": str(tmp_path / "p"),
        }) == 2
        assert "missing topic_beta.csv" in capsys.readouterr().err

    def test_newsstudy_requires_model_artifacts(self, tmp_path, capsys):
        shares = tmp_path / "shares.jsonl"
        shares.write_text(json.dumps({
            "user_id": "u00000", "url": "https://www.bbc.co.uk/sport/football/9",
        }) + "\n")
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("")
        code = _run(tmp_path, "newsstudy", {
            "shares": str(shares), "tweets": str(tweets),
            "model_dir": str(tmp_path), "out": str(tmp_path / "n"),
        })
        assert code == 2
        assert "missing classifier.json" in capsys.readouterr().err

    def test_topics_checks_which_before_loading(self, work, monkeypatch, capsys):
        def load_corpus(*args, **kwargs):
            raise AssertionError("the corpus was loaded before the config was checked")

        monkeypatch.setattr(pipeline, "load_corpus", load_corpus)
        code = _run(work["tmp"], "topics", {
            "tweets": work["tweets"], "vaa": work["vaa"],
            "out": str(work["tmp"] / "bad_topics"), "which": "bogus", **COMMON,
        })
        assert code == 2
        assert "field 'which'" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error: field 'config': must be a JSON object" in capsys.readouterr().err

    def test_tau_is_checked_before_any_work(self, work, trained, monkeypatch, capsys):
        def load(*args, **kwargs):
            raise AssertionError("input was loaded before the config was checked")

        monkeypatch.setattr(pipeline, "load_corpus", load)
        monkeypatch.setattr(cli, "load_tweets", load)
        tmp = work["tmp"]
        assert cli.main(["eval", "--tweets", work["tweets"], "--vaa", work["vaa"],
                         "--tau", "0.3", "--out", str(tmp / "bad_tau_eval")]) == 2
        assert "field 'tau': must be a number in [0.5, 1]" in capsys.readouterr().err
        assert cli.main(["predict", "--tweets", work["tweets"], "--model-dir", trained,
                         "--tau", "1.5", "--out", str(tmp / "bad_tau_predict")]) == 2
        assert "field 'tau': must be a number in [0.5, 1]" in capsys.readouterr().err
        config = _write_config(tmp / "tau_text.json", {"tau": "high", "out": str(tmp / "x")})
        assert cli.main(["synth", "--config", config]) == 2
        assert "field 'tau': must be a number in [0.5, 1], got 'high'" in capsys.readouterr().err

    def test_eval_needs_a_sample(self, work, monkeypatch, capsys):
        def load_corpus(*args, **kwargs):
            raise AssertionError("the corpus was loaded before the config was checked")

        monkeypatch.setattr(pipeline, "load_corpus", load_corpus)
        out = work["tmp"] / "no_samples"
        assert cli.main(["eval", "--tweets", work["tweets"], "--vaa", work["vaa"],
                         "--n-samples", "0", "--out", str(out)]) == 2
        assert "field 'n_samples': must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out / "eval_report.json")

    def test_every_config_key_names_a_pipeline_field(self):
        fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
        assert set(cli.CONFIG_FIELDS.values()) <= fields

    @pytest.mark.parametrize("subcommand, key, value, message", [
        ("eval", "n_samples", "2", "must be int, got '2'"),
        ("eval", "n_samples", True, "must be int, got True"),
        ("eval", "families", "NB", "must be tuple[str, ...], got 'NB'"),
        ("eval", "datasets", ["net", 1], "must be str, got 1"),
        ("train", "k", 2.5, "must be int, got 2.5"),
        ("ingest", "min_english", "0.5", "must be float, got '0.5'"),
        ("ingest", "min_english", None, "must be float, got None"),
        ("lexicon", "expand", 1, "must be bool, got 1"),
        ("synth", "tweets_per_user", [25], "must be tuple[int, int], got [25]"),
        ("synth", "delta", False, "must be float, got False"),
    ], ids=["str-for-int", "bool-for-int", "str-for-tuple", "bad-item", "float-for-int",
            "str-for-float", "null-for-float", "int-for-bool", "short-tuple", "bool-for-float"])
    def test_config_values_are_type_checked(self, work, monkeypatch, capsys,
                                            subcommand, key, value, message):
        def load(*args, **kwargs):
            raise AssertionError("input was read before the config was checked")

        for module, name in ((pipeline, "load_corpus"), (pipeline, "ingest"),
                             (cli, "load_tweets")):
            monkeypatch.setattr(module, name, load)
        out = work["tmp"] / f"bad_{subcommand}_{key}"
        assert _run(work["tmp"], subcommand, {
            "tweets": work["tweets"], "vaa": work["vaa"], "out": str(out), key: value,
        }) == 2
        assert f"config error: field '{key}': {message}" in capsys.readouterr().err
        assert not os.path.exists(out / "manifest.json")

    def test_integers_serve_float_fields_and_lists_tuple_fields(self):
        config = {"threshold": 1, "datasets": ["net"], "expand": True, "k": 4}
        assert cli._fields(config, cli.CONFIG_FIELDS, pipeline.PipelineConfig) == {
            "lexicon_threshold": 1, "datasets": ("net",), "expand_with_embedding": True,
            "k_topics": 4,
        }

    def test_bundle_meta_must_be_an_object(self, work, trained, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        (bundle / "train_meta.json").write_text("[1]\n")
        shares = tmp_path / "shares.jsonl"
        shares.write_text(json.dumps({
            "user_id": "u00000", "url": "https://www.bbc.co.uk/sport/football/9",
        }) + "\n")
        common = {"tweets": work["tweets"], "friends": work["friends"], "model_dir": str(bundle)}
        for subcommand, extra in (("predict", {}), ("newsstudy", {"shares": str(shares)})):
            assert _run(tmp_path, subcommand, {
                **common, **extra, "out": str(tmp_path / subcommand),
            }) == 2
            assert ("config error: field 'model_dir': train_meta.json must be a JSON object"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("name, text, message", [
        ("train_meta.json", '{"dataset": ', "train_meta.json is not valid JSON"),
        ("train_meta.json", b'{"dataset": "non-pol\xff"}', "train_meta.json is not valid JSON"),
        ("network_columns.json", '["acct_000"]\n', "network_columns.json must be a JSON object"),
        ("network_columns.json", '{"columns": [', "network_columns.json is not valid JSON"),
        ("network_columns.json", '{"columns": "acct_000"}\n',
         'network_columns.json must hold a "columns" list of account names'),
        ("network_columns.json", '{"columns": [1, 2]}\n',
         'network_columns.json must hold a "columns" list of account names'),
        ("lexicon.json", '{"x": ', "lexicon.json is not valid JSON"),
        ("classifier.json", '{"x": ', "classifier.json is not valid JSON"),
        ("topic_model.json", '{"x": ', "topic_model.json is not valid JSON"),
        ("topic_beta.csv", '{"x": ', "topic_beta.csv is not valid CSV of numbers"),
    ], ids=["meta-truncated", "meta-not-utf8", "columns-in-a-list", "columns-truncated",
            "columns-a-string", "columns-not-names", "lexicon-truncated",
            "classifier-truncated", "topic-model-truncated", "topic-beta-truncated"])
    def test_unreadable_bundle_file_names_the_file(self, work, trained, tmp_path, capsys,
                                                     name, text, message):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        if isinstance(text, bytes):
            (bundle / name).write_bytes(text)
        else:
            (bundle / name).write_text(text)
        out = tmp_path / "p"
        assert _run(tmp_path, "predict", {
            "tweets": work["tweets"], "friends": work["friends"],
            "model_dir": str(bundle), "out": str(out),
        }) == 2
        assert f"config error: field 'model_dir': {message}" in capsys.readouterr().err
        assert not os.path.exists(out / "predictions.csv")

    @pytest.mark.parametrize("name, text, message", [
        ("topic_model.json", "{}\n", "topic_model.json lacks the field 'anchors'"),
        ("classifier.json", "{}\n", "classifier.json lacks the field 'format'"),
        ("lexicon.json", "[{}]\n", "lexicon.json lacks the field 'term'"),
    ], ids=["topic-model", "classifier", "lexicon"])
    def test_bundle_file_without_a_field_names_the_file(self, work, trained, tmp_path, capsys,
                                                        name, text, message):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        (bundle / name).write_text(text)
        out = tmp_path / "p"
        assert _run(tmp_path, "predict", {
            "tweets": work["tweets"], "friends": work["friends"],
            "model_dir": str(bundle), "out": str(out),
        }) == 2
        assert f"config error: field 'model_dir': {message}" in capsys.readouterr().err
        assert not os.path.exists(out / "predictions.csv")


class TestStageErrors:
    def test_lexicon_without_window_coverage_fails_cleanly(self, tmp_path):
        # every tweet outside the election windows: the political index
        # is undefined, which is a stage failure rather than bad config
        tweets = tmp_path / "tweets.jsonl"
        with open(tweets, "w") as fh:
            for i in range(3):
                fh.write(json.dumps({
                    "user_id": f"u{i}",
                    "timestamp": "2012-03-01T10:00:00",
                    "text": "quiet words here",
                }) + "\n")
        code = _run(tmp_path, "lexicon", {
            "tweets": str(tweets), "out": str(tmp_path / "lex"),
        })
        assert code == 1
        assert not os.path.exists(tmp_path / "lex" / "manifest.json")

    def test_stage_error_reason_is_logged(self, tmp_path, caplog):
        tweets = tmp_path / "tweets.jsonl"
        with open(tweets, "w") as fh:
            fh.write(json.dumps({
                "user_id": "u0",
                "timestamp": "2012-03-01T10:00:00",
                "text": "quiet words here",
            }) + "\n")
        with caplog.at_level("ERROR", logger="polilean"):
            code = _run(tmp_path, "lexicon", {
                "tweets": str(tweets), "out": str(tmp_path / "lex"),
            })
        assert code == 1
        assert "inside and outside election windows" in caplog.text

    def test_ingest_skips_bytes_that_are_not_utf8(self, work, tmp_path, caplog):
        tweets, vaa = tmp_path / "tweets.jsonl", tmp_path / "vaa.csv"
        with open(work["tweets"], "rb") as fh:
            tweets.write_bytes(fh.read() + b'{"user_id": "u\xff", "text": "hi"}\n')
        with open(work["vaa"], "rb") as fh:
            vaa.write_bytes(fh.read() + b"u\xff,SYN,Labour,40.00\r\n")
        out = tmp_path / "ingested"
        with caplog.at_level(logging.INFO, logger="polilean"):
            assert _run(tmp_path, "ingest", {
                "tweets": str(tweets), "vaa": str(vaa), "out": str(out), **COMMON,
            }) == 0
        for path in (tweets, vaa):
            (summary,) = [r.getMessage() for r in caplog.records
                          if r.getMessage().startswith(f"{path}: ")]
            assert summary.endswith(" kept, 1 skipped, 1 invalid UTF-8")
        with open(out / "ingest_summary.json") as fh:
            assert json.load(fh)["n_users_kept"] == 60

    def test_repeated_network_column_is_refused(self, work, trained, tmp_path):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained, bundle)
        with open(bundle / "network_columns.json") as fh:
            columns = json.load(fh)["columns"]
        # same width as the classifier expects, so only the repeat is wrong
        (bundle / "network_columns.json").write_text(
            json.dumps({"columns": columns[:-1] + columns[:1]})
        )
        out = tmp_path / "p"
        assert _run(tmp_path, "predict", {
            "tweets": work["tweets"], "friends": work["friends"],
            "model_dir": str(bundle), "out": str(out),
        }) == 1
        assert not os.path.exists(out / "predictions.csv")


def test_artifacts_are_rfc4180_csv_and_sorted_indented_json(work, tmp_path):
    """One labelled user id and one followed account hold a comma; every
    CSV the chain writes must still parse into rows as wide as its first
    row, with CRLF line ends, and every JSON artifact but the compact
    classifier.json must be in the one key-sorted, indented format."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("tweets.jsonl", "friends.jsonl"):
        with open(os.path.join(work["data"], name)) as fh:
            text = fh.read()
        text = text.replace('"u00003"', '"u00003,x"').replace('"acct000"', '"acct,000"')
        (data / name).write_text(text)
    with open(work["vaa"], newline="") as src, open(data / "vaa.csv", "w", newline="") as dst:
        csv.writer(dst).writerows(
            [("u00003,x" if cell == "u00003" else cell) for cell in row] for row in csv.reader(src)
        )
    (data / "shares.jsonl").write_text("".join(json.dumps({
        "user_id": uid, "url": "https://www.theguardian.com/politics/2018/jun/1/x",
    }) + "\n" for uid in ("u00000", "u00003,x", "u00004")))
    tweets, vaa = str(data / "tweets.jsonl"), str(data / "vaa.csv")
    friends, model = str(data / "friends.jsonl"), str(tmp_path / "train")
    for subcommand, config in [
        ("ingest", {"tweets": tweets, "vaa": vaa}),
        ("lexicon", {"tweets": tweets}),
        ("dfm", {"tweets": tweets, "vaa": vaa, "friends": friends}),
        ("topics", {"tweets": tweets, "vaa": vaa}),
        ("train", {"tweets": tweets, "vaa": vaa, "friends": friends,
                   "dataset": "non-pol+net", "family": "SVM_poly"}),
        ("predict", {"tweets": tweets, "friends": friends, "model_dir": model}),
        ("newsstudy", {"tweets": tweets, "friends": friends, "model_dir": model,
                       "shares": str(data / "shares.jsonl")}),
        ("eval", {"tweets": tweets, "vaa": vaa, "friends": friends,
                  "datasets": ["non-pol+net"], "families": ["SVM_poly"]}),
    ]:
        out = str(tmp_path / subcommand)
        assert _run(tmp_path, subcommand, {**config, **COMMON, "out": out}) == 0, subcommand

    outputs = [str(p) for p in tmp_path.glob("*/*")]
    outputs += [os.path.join(work["data"], name) for name in os.listdir(work["data"])]
    cells = set()
    for path in outputs:
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8")
            assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n"), path
            rows = list(csv.reader(io.StringIO(text, newline="")))
            assert {len(row) for row in rows} == {len(rows[0])}, path
            cells.update(cell for row in rows for cell in row)
        elif path.endswith(".json") and not path.endswith("classifier.json"):
            with open(path) as fh:
                text = fh.read()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path
    assert {"u00003,x", "acct,000"} <= cells


def test_importing_the_cli_loads_neither_scipy_optimize_nor_scipy_linalg():
    # every run imports the CLI's modules; scipy.optimize alone adds about
    # 26 MiB and scipy.linalg about 7.5 MiB to a process's peak RSS
    src = os.path.dirname(os.path.dirname(os.path.abspath(polilean.__file__)))
    code = ("import sys, polilean.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
