"""Classifier families over topic / network / hybrid features.

Five families share one interface: naive Bayes (Gaussian on continuous
columns, Bernoulli on binary ones), three SVM kernels with Platt
calibration fitted on out-of-fold decisions, and a small neural net.
Probabilities are always "probability of Right".

A saved model's `params` are its model class's fields without a default
(nested dataclasses in full, arrays as lists, booleans as 0/1); loading
predicts one zero row, so a field that does not fit is a FileFormatError.
"""

import dataclasses
import json
import logging
from typing import Any

import numpy as np

from . import nn as nn_mod
from . import svm as svm_mod
from .resources import fields, parsing, write_csv

logger = logging.getLogger(__name__)

FAMILIES = ("NB", "SVM_lin", "SVM_poly", "SVM_rad", "NN")

LEFT = "Left"
RIGHT = "Right"
UNKNOWN = "Unknown"

_KERNELS = {"SVM_lin": "linear", "SVM_poly": "poly", "SVM_rad": "rbf"}


@dataclasses.dataclass(frozen=True)
class Prediction:
    user_id: str
    p_right: float
    label: str


@dataclasses.dataclass
class NbModel:
    log_prior: np.ndarray  # [Left, Right]
    binary_mask: np.ndarray
    gauss_mean: np.ndarray  # 2 x n_continuous
    gauss_var: np.ndarray
    bern_logp1: np.ndarray  # 2 x n_binary
    bern_logp0: np.ndarray

    def __post_init__(self):
        self.binary_mask = np.asarray(self.binary_mask, dtype=bool)


@dataclasses.dataclass
class ClassifierModel:
    family: str
    feature_width: int
    inner: Any
    calibration: tuple[float, float] | None = None


def encode_labels(labels) -> np.ndarray:
    """Left/Right strings -> -1/+1."""
    y = np.array([1.0 if lab == RIGHT else -1.0 for lab in labels])
    return y


def _as_dense(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def train_nb(x, y, binary_mask) -> ClassifierModel:
    """Naive Bayes, Gaussian on the columns where binary_mask is False
    and Bernoulli where it is True; hybrid inputs multiply both parts."""
    x = _as_dense(x)
    y = np.asarray(y, dtype=np.float64)
    binary_mask = np.asarray(binary_mask, dtype=bool)
    classes = [y < 0, y > 0]
    counts = np.array([m.sum() for m in classes], dtype=np.float64)
    if (counts < 2).any():
        raise ValueError("need at least 2 examples per class")
    log_prior = np.log(counts / counts.sum())

    cont = x[:, ~binary_mask]
    binary = x[:, binary_mask]
    p1 = np.vstack([(binary[m].sum(axis=0) + 1.0) / (m.sum() + 2.0) for m in classes])
    inner = NbModel(
        log_prior=log_prior,
        binary_mask=binary_mask,
        gauss_mean=np.vstack([cont[m].mean(axis=0) for m in classes]),
        gauss_var=np.vstack([np.clip(cont[m].var(axis=0), 1e-9, None) for m in classes]),
        bern_logp1=np.log(p1),
        bern_logp0=np.log(1.0 - p1),
    )
    return ClassifierModel("NB", x.shape[1], inner)


def _nb_log_joint(model: NbModel, x: np.ndarray) -> np.ndarray:
    cont = x[:, ~model.binary_mask]
    binary = x[:, model.binary_mask]
    joint = np.tile(model.log_prior, (x.shape[0], 1))
    for c in (0, 1):
        var = model.gauss_var[c]
        joint[:, c] += (
            -0.5 * np.log(2.0 * np.pi * var)
            - 0.5 * (cont - model.gauss_mean[c]) ** 2 / var
        ).sum(axis=1)
        joint[:, c] += (
            binary * model.bern_logp1[c] + (1.0 - binary) * model.bern_logp0[c]
        ).sum(axis=1)
    return joint


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    order = np.random.default_rng(seed).permutation(n)
    return [order[i::folds] for i in range(folds)]


def train_svm(
    x,
    y,
    kernel: str = "linear",
    c: float = 1.0,
    degree: int = 3,
    coef: float = 1.0,
    gamma: float | None = None,
    tol: float = 1e-3,
    calibration_folds: int = 5,
    seed: int = 0,
) -> ClassifierModel:
    """SMO-trained SVM with Platt calibration on out-of-fold decisions."""
    x = _as_dense(x)
    y = np.asarray(y, dtype=np.float64)
    kern = svm_mod.Kernel(kernel, degree=degree, coef=coef, gamma=gamma)
    family = {v: k for k, v in _KERNELS.items()}[kernel]

    oof = np.zeros(len(y))
    have_oof = np.zeros(len(y), dtype=bool)
    for fold in _fold_indices(len(y), calibration_folds, seed):
        if fold.size == 0:  # fewer rows than folds
            continue
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        if len(set(y[mask])) < 2:
            continue
        part = svm_mod.smo_train(x[mask], y[mask], kern, c=c, tol=tol)
        oof[fold] = part.decision_function(x[fold])
        have_oof[fold] = True
    calibration = None
    if have_oof.any() and len(set(y[have_oof])) == 2:
        calibration = svm_mod.platt_calibrate(oof[have_oof], y[have_oof])

    inner = svm_mod.smo_train(x, y, kern, c=c, tol=tol)
    return ClassifierModel(family, x.shape[1], inner, calibration)


def train_nn(x, y, hidden: int = 64, epochs: int = 200, lr: float = 0.05, seed: int = 0) -> ClassifierModel:
    x = _as_dense(x)
    inner = nn_mod.train_nn(x, np.asarray(y), hidden=hidden, epochs=epochs, lr=lr, seed=seed)
    return ClassifierModel("NN", x.shape[1], inner)


def train_model(family: str, x, y, seed: int = 0, **hyper) -> ClassifierModel:
    if family == "NB":
        return train_nb(x, y, **hyper)
    if family in _KERNELS:
        return train_svm(x, y, kernel=_KERNELS[family], seed=seed, **hyper)
    if family == "NN":
        return train_nn(x, y, seed=seed, **hyper)
    raise ValueError(f"unknown classifier family {family!r}")


def predict(model: ClassifierModel, x) -> np.ndarray:
    """Probability of Right for each row of x."""
    x = _as_dense(x)
    if x.shape[1] != model.feature_width:
        raise ValueError(
            f"feature width {x.shape[1]} != model width {model.feature_width}"
        )
    if model.family == "NB":
        joint = _nb_log_joint(model.inner, x)
        joint -= joint.max(axis=1, keepdims=True)
        likes = np.exp(joint)
        return likes[:, 1] / likes.sum(axis=1)
    if model.family in _KERNELS:
        f = model.inner.decision_function(x)
        ab = model.calibration if model.calibration is not None else (-1.0, 0.0)
        if model.calibration is None:
            logger.debug("uncalibrated SVM; using unit sigmoid on decisions")
        return svm_mod.sigmoid_probability(f, ab)
    if model.family == "NN":
        return model.inner.predict_proba(x)
    raise ValueError(f"unknown classifier family {model.family!r}")


def label_for(p_right: float, tau: float) -> str:
    """Right/Left only when the winning probability reaches tau."""
    if not 0.5 <= tau <= 1.0:
        raise ValueError("threshold must be in [0.5, 1]")
    if p_right >= max(tau, 1.0 - p_right):
        return RIGHT
    if (1.0 - p_right) >= max(tau, p_right):
        return LEFT
    return UNKNOWN


def apply_threshold(user_ids, p_right, tau: float) -> list[Prediction]:
    return [
        Prediction(uid, float(p), label_for(float(p), tau))
        for uid, p in zip(user_ids, p_right)
    ]


# ---------------------------------------------------------------------------
# serialization

_MODELS = {"NB": NbModel, "NN": nn_mod.NnModel, **dict.fromkeys(_KERNELS, svm_mod.SvmModel)}


def _saved_fields(cls) -> list[dataclasses.Field]:
    missing = dataclasses.MISSING
    return [f for f in dataclasses.fields(cls)
            if f.default is missing and f.default_factory is missing]


def _encode(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    return value


def _decode(f: dataclasses.Field, value, width: int):
    if dataclasses.is_dataclass(f.type):
        return f.type(**value)
    if f.type is not np.ndarray:
        return value
    value = np.asarray(value, dtype=np.float64)
    return value.reshape(0, width) if value.size == 0 and f.metadata.get("feature_rows") else value


def save_model(model: ClassifierModel, path) -> None:
    if model.family not in _MODELS:
        raise ValueError(f"unknown classifier family {model.family!r}")
    doc = {
        "format": "classifier/1",
        "family": model.family,
        "feature_width": model.feature_width,
        "calibration": list(model.calibration) if model.calibration else None,
        "params": {f.name: _encode(getattr(model.inner, f.name))
                   for f in _saved_fields(type(model.inner))},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ClassifierModel:
    with open(path) as fh, parsing(path, "JSON"):
        doc = json.load(fh)
    with fields(path):
        if doc["format"] != "classifier/1":
            raise ValueError(f"unsupported model container {doc['format']!r}")
        family, width, params = doc["family"], doc["feature_width"], doc["params"]
        if family not in _MODELS:
            raise ValueError(f"unknown classifier family {family!r}")
        inner = _MODELS[family](**{f.name: _decode(f, params[f.name], width)
                                   for f in _saved_fields(_MODELS[family])})
        calibration = tuple(doc["calibration"]) if doc["calibration"] else None
        model = ClassifierModel(family, width, inner, calibration)
        predict(model, np.zeros((1, width)))  # a field that does not fit the width fails here
    return model


def write_predictions_csv(path, predictions: list[Prediction]) -> None:
    write_csv(path, [["user_id", "p_right", "label"]] + [
        [pred.user_id, repr(pred.p_right), pred.label] for pred in predictions
    ])
