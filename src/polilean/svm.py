"""Support vector machine trained by sequential minimal optimization.

Maximal-violating-pair working-set selection on the dual problem with
linear, polynomial and radial kernels, plus Platt sigmoid calibration
for mapping decision values to probabilities.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

MAX_PAIR_UPDATES = 100_000


@dataclass(frozen=True)
class Kernel:
    name: str  # linear | poly | rbf
    degree: int = 3
    coef: float = 1.0
    gamma: float | None = None  # defaults to 1 / n_features

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.name == "linear":
            return a @ b.T
        if self.name == "poly":
            return (a @ b.T + self.coef) ** self.degree
        if self.name == "rbf":
            gamma = self.gamma if self.gamma is not None else 1.0 / a.shape[1]
            sq = (
                (a * a).sum(axis=1)[:, None]
                - 2.0 * (a @ b.T)
                + (b * b).sum(axis=1)[None, :]
            )
            return np.exp(-gamma * np.clip(sq, 0.0, None))
        raise ValueError(f"unknown kernel {self.name!r}")


@dataclass
class SvmModel:
    kernel: Kernel
    # a saved model without support vectors reloads as (0, n_features)
    support_vectors: np.ndarray = field(metadata={"feature_rows": True})
    support_alpha_y: np.ndarray  # alpha_i * y_i for support vectors
    bias: float
    converged: bool
    # full dual solution kept for feasibility checks
    alpha: np.ndarray | None = field(default=None, repr=False)

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = self.kernel.matrix(x, self.support_vectors)
        return k @ self.support_alpha_y + self.bias


def smo_train(
    x: np.ndarray,
    y: np.ndarray,
    kernel: Kernel,
    c: float = 1.0,
    tol: float = 1e-3,
) -> SvmModel:
    """Solve the dual by repeatedly optimizing the most violating pair.

    Dual gradient g_i = 1 - y_i * (K @ (alpha * y))_i. Optimality when
    max of y*g over the "up" set exceeds the min over the "down" set by
    at most tol; the bias is the midpoint of those two values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be -1/+1")
    n = len(y)
    # Fortran order makes each column k[:, i] contiguous; the row k[i] is
    # no substitute, since the rbf Gram is not bit-symmetric
    k = np.asfortranarray(kernel.matrix(x, x))
    cols = list(k.T)  # views: cols[i] is k[:, i]
    diag = k.diagonal().tolist()
    pos = (y > 0).tolist()
    alpha = [0.0] * n
    # yg = y * g, with g = 1 at alpha = 0; y is +-1, so updating yg by
    # -step * (k_i - k_j) rounds exactly as updating g by -y*step*(...)
    yg = y.copy()
    # set membership as additive offsets: 0 inside, -inf (up) or +inf
    # (down) outside, so argmax/argmin pick the first index on ties
    off_up = np.where(y > 0, 0.0, -np.inf)
    off_down = np.where(y > 0, np.inf, 0.0)
    up_val, down_val, col = np.empty(n), np.empty(n), np.empty(n)

    def select() -> tuple[int | None, int | None]:
        """argmax of yg over up and argmin over down; None for an empty set."""
        i = int(np.add(yg, off_up, out=up_val).argmax())
        j = int(np.add(yg, off_down, out=down_val).argmin())
        return (i if up_val[i] > -np.inf else None), (j if down_val[j] < np.inf else None)

    def update_sets(t: int) -> None:
        a = alpha[t]
        off_up[t] = 0.0 if (a < c if pos[t] else a > 0) else -np.inf
        off_down[t] = 0.0 if (a > 0 if pos[t] else a < c) else np.inf

    cap = MAX_PAIR_UPDATES
    converged = False
    for updates in range(cap):
        i, j = select()
        if i is None or j is None:
            converged = True
            break
        gap = yg.item(i) - yg.item(j)
        if gap <= tol:
            converged = True
            break
        quad = max(diag[i] + diag[j] - 2.0 * k.item(i, j), 1e-12)
        # direction: alpha_i += y_i*t, alpha_j -= y_j*t (preserves the
        # equality constraint); box limits keep both alphas in [0, C]
        hi_i = c - alpha[i] if pos[i] else alpha[i]
        hi_j = alpha[j] if pos[j] else c - alpha[j]
        step = min(gap / quad, hi_i, hi_j)
        alpha[i] += step if pos[i] else -step
        alpha[j] -= step if pos[j] else -step
        update_sets(i)
        update_sets(j)
        np.subtract(cols[i], cols[j], out=col)
        col *= step
        yg -= col
    else:
        updates = cap

    i, j = select()
    b_up = yg.item(i) if i is not None else 0.0
    b_low = yg.item(j) if j is not None else 0.0
    bias = (b_up + b_low) / 2.0
    final_gap = b_up - b_low if i is not None and j is not None else 0.0
    if not converged:
        logger.warning(
            "SMO hit the %d pair-update cap (n=%d, kernel %s, gap %.3g, tol %g); "
            "returning best iterate",
            cap, n, kernel.name, final_gap, tol,
        )
    logger.debug(
        "SMO n=%d kernel=%s pair_updates=%d gap=%.3g converged=%s",
        n, kernel.name, updates, final_gap, converged,
    )

    alpha = np.array(alpha)
    sv = alpha > 1e-12
    return SvmModel(
        kernel=kernel,
        support_vectors=x[sv],
        support_alpha_y=(alpha * y)[sv],
        bias=bias,
        converged=converged,
        alpha=alpha,
    )


def platt_calibrate(decisions, y) -> tuple[float, float]:
    """Fit p = 1 / (1 + exp(A*f + B)) by regularized maximum likelihood.

    Newton iterations with a backtracking line search on the
    cross-entropy against smoothed targets (positives get
    (N+ + 1)/(N+ + 2), negatives 1/(N- + 2)).
    """
    f = np.asarray(decisions, dtype=np.float64)
    pos = np.asarray(y) > 0
    n_pos = int(pos.sum())
    n_neg = len(f) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("calibration needs both classes")
    t = np.where(pos, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll(a: float, b: float) -> float:
        z = a * f + b
        return float(np.sum(np.logaddexp(0.0, z) - (1.0 - t) * z))

    a, b = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    best = nll(a, b)
    for _ in range(100):
        z = a * f + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))  # predicted target prob
        d1 = t - p
        grad_a = float(np.sum(d1 * f))
        grad_b = float(np.sum(d1))
        w = np.clip(p * (1.0 - p), 1e-12, None)
        h_aa = float(np.sum(w * f * f)) + 1e-12
        h_ab = float(np.sum(w * f))
        h_bb = float(np.sum(w)) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0:
            break
        da = -(h_bb * grad_a - h_ab * grad_b) / det
        db = -(h_aa * grad_b - h_ab * grad_a) / det
        if abs(da) < 1e-10 and abs(db) < 1e-10:
            break
        stepsize = 1.0
        while stepsize >= 1e-10:
            na, nb = a + stepsize * da, b + stepsize * db
            val = nll(na, nb)
            if val < best - 1e-12 * abs(best):
                a, b, best = na, nb, val
                break
            stepsize /= 2.0
        else:
            break
    return a, b


def sigmoid_probability(decisions, ab: tuple[float, float]) -> np.ndarray:
    a, b = ab
    z = a * np.asarray(decisions, dtype=np.float64) + b
    return 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
