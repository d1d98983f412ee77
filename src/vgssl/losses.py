"""Training objectives for pair- and triplet-based representation learning.

Seven objectives share one entry point, ``compute_loss``:

* margin triplet on L2-normalized embeddings,
* temperature-scaled contrastive (one- or two-directional), where the
  positive similarity sits on the diagonal of the pairwise logit matrix
  and the denominator runs over the full row including the positive,
* embedding prediction in cosine form, ``2 - 2 <p_hat, t_hat>``, bounded
  to [0, 4] per row,
* redundancy reduction on the non-centered, column-normalized
  cross-correlation matrix, with squared off-diagonal penalty,
* variance / invariance / covariance regularization with a hinged
  standard-deviation floor and (N - 1)-normalized covariance.

Inputs are the raw projection outputs; whether they get row-normalized
first is a per-method policy (contrastive and prediction objectives
yes, decorrelation objectives no), read by ``compute_loss`` from
``NORMALIZE_POLICY``.

Objectives are composed from the autodiff primitives, except the row
normalization, which is one tape node whose backward replays the
primitive chain's arithmetic (so its gradients are that chain's bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autodiff import Value, _node, _unbroadcast

__all__ = [
    "Method",
    "LossConfig",
    "LossOutput",
    "LossBranches",
    "DegenerateInputError",
    "l2_normalize_rows",
    "triplet_margin_loss",
    "infonce_loss",
    "embedding_prediction_loss",
    "cross_correlation_matrix",
    "barlow_twins_loss",
    "vicreg_loss",
    "compute_loss",
]

# Keeps the pairwise distance differentiable when two rows coincide; the
# bias it adds (~1e-12 per distance) is far below every test tolerance.
_DIST_EPS = 1e-24
_NORM_FLOOR = 1e-12


class Method(Enum):
    TRIPLET = "triplet"
    SIMCLR = "simclr"
    MOCOV2 = "mocov2"
    BYOL = "byol"
    SIMSIAM = "simsiam"
    BARLOW_TWINS = "barlow_twins"
    VICREG = "vicreg"


# Which methods row-normalize embeddings before the loss.
NORMALIZE_POLICY = {
    Method.TRIPLET: True,
    Method.SIMCLR: True,
    Method.MOCOV2: True,
    Method.BYOL: True,
    Method.SIMSIAM: True,
    Method.BARLOW_TWINS: False,
    Method.VICREG: False,
}

# Which methods average the objective over both view directions.
SYMMETRIC_DEFAULT = {
    Method.BYOL: True,
    Method.SIMSIAM: True,
    Method.SIMCLR: False,
    Method.MOCOV2: False,
}


class DegenerateInputError(ValueError):
    """Numerically unusable input: zero-norm row or constant column."""


@dataclass(frozen=True)
class LossConfig:
    method: Method
    tau: float = 0.07
    margin: float = 0.1
    lambda_bt: float = 5e-3
    lambda_inv: float = 25.0
    lambda_var: float = 25.0
    lambda_cov: float = 1.0
    std_margin: float = 1.0
    symmetric: bool | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        if self.margin < 0:
            raise ValueError("margin cannot be negative")
        if min(self.lambda_bt, self.lambda_inv, self.lambda_var, self.lambda_cov) < 0:
            raise ValueError("loss weights cannot be negative")
        if self.symmetric is None:
            object.__setattr__(self, "symmetric", SYMMETRIC_DEFAULT.get(self.method, False))


@dataclass
class LossOutput:
    value: float
    node: Value
    per_term: dict[str, float] = field(default_factory=dict)


@dataclass
class LossBranches:
    """Embeddings entering the loss, one row per batch pair.

    ``query``/``partner`` are the two online views (or query and key);
    ``negative`` only exists for triplets; predictor outputs and detached
    target outputs are filled in by the methods that use them.
    """

    query: Value | None = None
    partner: Value | None = None
    negative: Value | None = None
    pred_query: Value | None = None
    pred_partner: Value | None = None
    target_query: Value | None = None
    target_partner: Value | None = None


def l2_normalize_rows(x: Value) -> Value:
    """Each row divided by its Euclidean norm, as one tape node.

    The closure replays the chain ``x / sqrt((x * x).sum(axis=1))``:
    the contribution through the quotient, then the two through the
    square, with the chain's numpy operations.
    """
    xd = x.data
    norms_sq = (xd * xd).sum(axis=1, keepdims=True)
    mins = np.sqrt(np.min(norms_sq))
    if mins <= _NORM_FLOOR:
        row = int(np.argmin(norms_sq))
        raise DegenerateInputError(f"row {row} has norm {mins:.3e}, cannot normalize")
    norms = np.sqrt(norms_sq)

    def bwd(g):
        x._accum(g / norms)
        g_norms = _unbroadcast(-g * xd / (norms * norms), norms.shape)
        g_sq = np.broadcast_to(g_norms / (2.0 * norms), xd.shape) * xd
        x._accum(g_sq)  # x * x feeds the norm through both factors
        x._accum(g_sq)

    return _node(xd / norms, (x,), "l2_normalize_rows", bwd)


def _row_dist(a: Value, b: Value) -> Value:
    d = a - b
    return ((d * d).sum(axis=1, keepdims=True) + _DIST_EPS).sqrt()


def triplet_margin_loss(
    anchor: Value, positive: Value, negative: Value, margin: float, normalize: bool = True
) -> Value:
    """mean(max(d(a, p) - d(a, n) + margin, 0)) with L2 row distances."""
    if normalize:
        anchor = l2_normalize_rows(anchor)
        positive = l2_normalize_rows(positive)
        negative = l2_normalize_rows(negative)
    gap = _row_dist(anchor, positive) - _row_dist(anchor, negative) + margin
    return gap.maximum(0.0).mean()


def _logsumexp_rows(logits: Value) -> Value:
    shift = np.max(logits.data, axis=1, keepdims=True)  # constant, exact gradient
    return (logits - shift).exp().sum(axis=1, keepdims=True).log() + shift


def _contrastive_one_way(logits: Value) -> Value:
    n = logits.shape[0]
    eye = np.eye(n)
    pos = (logits * eye).sum(axis=1, keepdims=True)
    return (_logsumexp_rows(logits) - pos).mean()


def infonce_loss(
    q: Value,
    k: Value,
    tau: float,
    symmetric: bool = False,
    normalize: bool = True,
) -> Value:
    """Temperature-scaled contrastive loss with in-batch negatives.

    Row b of ``q`` is positive with row b of ``k``; every other row of
    ``k`` is a negative.  The denominator includes the positive term.
    ``symmetric`` averages the two directions computed from one logit
    matrix, which makes the result exactly invariant to swapping q and k.
    """
    n = q.shape[0]
    if n < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    if q.shape != k.shape:
        raise ValueError(f"view shapes disagree: {q.shape} vs {k.shape}")
    if normalize:
        q = l2_normalize_rows(q)
        k = l2_normalize_rows(k)
    logits = (q @ k.T) * (1.0 / tau)
    loss = _contrastive_one_way(logits)
    if symmetric:
        loss = (loss + _contrastive_one_way(logits.T)) * 0.5
    return loss


def embedding_prediction_loss(pred: Value, target: Value) -> Value:
    """Cosine prediction loss, ``mean_b(2 - 2 <p_hat_b, t_hat_b>)``.

    Both sides are row-normalized here, so each row's value lies in
    [0, 4]: 0 when prediction and target align, 4 when anti-aligned.
    The caller is responsible for detaching the target branch.
    """
    if pred.shape != target.shape:
        raise ValueError(f"prediction {pred.shape} vs target {target.shape}")
    p_hat = l2_normalize_rows(pred)
    t_hat = l2_normalize_rows(target)
    cos = (p_hat * t_hat).sum(axis=1, keepdims=True)
    return (2.0 - 2.0 * cos).mean()


def cross_correlation_matrix(za: Value, zb: Value) -> Value:
    """Non-centered cross-correlation, each column scaled to unit norm.

    ``C[i, j] = sum_b za[b, i] zb[b, j] / (||za[:, i]|| ||zb[:, j]||)``.
    A zero column has no direction and raises.
    """
    if za.shape != zb.shape:
        raise ValueError(f"view shapes disagree: {za.shape} vs {zb.shape}")
    for tag, z in (("first", za), ("second", zb)):
        col_norms = np.linalg.norm(z.data, axis=0)
        if np.min(col_norms) <= _NORM_FLOOR:
            col = int(np.argmin(col_norms))
            raise DegenerateInputError(f"{tag} view column {col} is all zeros")
    na = (za * za).sum(axis=0, keepdims=True).sqrt()
    nb = (zb * zb).sum(axis=0, keepdims=True).sqrt()
    return (za / na).T @ (zb / nb)


def barlow_twins_loss(za: Value, zb: Value, lam: float) -> tuple[Value, dict[str, float]]:
    """Identity-matching penalty on the cross-correlation matrix.

    ``sum_i (1 - C_ii)^2 + lam * sum_{i != j} C_ij^2``.  The off-diagonal
    term is squared, so it is invariant to the sign of each correlation.
    """
    c = cross_correlation_matrix(za, zb)
    d = c.shape[0]
    eye = np.eye(d)
    diag = (c * eye).sum(axis=1, keepdims=True)
    on_term = ((1.0 - diag) * (1.0 - diag)).sum()
    off = c * (1.0 - eye)
    off_term = (off * off).sum()
    total = on_term + lam * off_term
    return total, {
        "on_diag": float(on_term.data),
        "off_diag": float(off_term.data) * lam,
    }


def vicreg_loss(
    q: Value,
    kp: Value,
    lambda_inv: float,
    lambda_var: float,
    lambda_cov: float,
    std_margin: float,
) -> tuple[Value, dict[str, float]]:
    """Invariance + variance floor + covariance suppression, both views.

    * invariance: mean squared difference over all entries,
    * variance: ``mean_d max(std_margin - std_d, 0)`` per view, where
      ``std_d = sqrt(population variance + 1e-4)``,
    * covariance: ``(1/D) sum_{i != j} Cov_ij^2`` per view with the
      ``1/(N-1)`` centered covariance.
    """
    n, d = q.shape
    if n < 2:
        raise ValueError("variance and covariance terms need a batch of at least 2")
    if q.shape != kp.shape:
        raise ValueError(f"view shapes disagree: {q.shape} vs {kp.shape}")

    diff = q - kp
    invariance = (diff * diff).mean()

    def variance_term(z: Value) -> Value:
        mu = z.mean(axis=0, keepdims=True)
        zc = z - mu
        var = (zc * zc).mean(axis=0, keepdims=True)
        std = (var + 1e-4).sqrt()
        return ((std_margin - std).maximum(0.0)).mean()

    def covariance_term(z: Value) -> Value:
        mu = z.mean(axis=0, keepdims=True)
        zc = z - mu
        cov = (zc.T @ zc) * (1.0 / (n - 1))
        off = cov * (1.0 - np.eye(d))
        return (off * off).sum() * (1.0 / d)

    var_total = variance_term(q) + variance_term(kp)
    cov_total = covariance_term(q) + covariance_term(kp)
    total = lambda_inv * invariance + lambda_var * var_total + lambda_cov * cov_total
    return total, {
        "invariance": lambda_inv * float(invariance.data),
        "variance": lambda_var * float(var_total.data),
        "covariance": lambda_cov * float(cov_total.data),
    }


def compute_loss(cfg: LossConfig, branches: LossBranches) -> LossOutput:
    """Dispatch to the configured objective and package the result."""
    m = cfg.method
    if m is Method.TRIPLET:
        if branches.negative is None:
            raise ValueError("triplet loss needs a negative branch")
        node = triplet_margin_loss(
            branches.query,
            branches.partner,
            branches.negative,
            cfg.margin,
            normalize=NORMALIZE_POLICY[m],
        )
        return LossOutput(float(node.data), node, {"triplet": float(node.data)})
    if m is Method.SIMCLR:
        node = infonce_loss(
            branches.query,
            branches.partner,
            cfg.tau,
            symmetric=cfg.symmetric,
            normalize=NORMALIZE_POLICY[m],
        )
        return LossOutput(float(node.data), node, {"contrastive": float(node.data)})
    if m is Method.MOCOV2:
        if branches.target_partner is None:
            raise ValueError("momentum contrastive needs a target partner branch")
        node = infonce_loss(
            branches.query,
            branches.target_partner,
            cfg.tau,
            symmetric=cfg.symmetric,
            normalize=NORMALIZE_POLICY[m],
        )
        return LossOutput(float(node.data), node, {"contrastive": float(node.data)})
    if m in (Method.BYOL, Method.SIMSIAM):
        if branches.pred_query is None or branches.target_partner is None:
            raise ValueError("prediction loss needs predictor and target branches")
        node = embedding_prediction_loss(branches.pred_query, branches.target_partner)
        if cfg.symmetric:
            if branches.pred_partner is None or branches.target_query is None:
                raise ValueError("symmetric prediction needs the reverse branches too")
            rev = embedding_prediction_loss(branches.pred_partner, branches.target_query)
            node = (node + rev) * 0.5
        return LossOutput(float(node.data), node, {"prediction": float(node.data)})
    if m is Method.BARLOW_TWINS:
        node, terms = barlow_twins_loss(branches.query, branches.partner, cfg.lambda_bt)
        return LossOutput(float(node.data), node, terms)
    if m is Method.VICREG:
        node, terms = vicreg_loss(
            branches.query,
            branches.partner,
            cfg.lambda_inv,
            cfg.lambda_var,
            cfg.lambda_cov,
            cfg.std_margin,
        )
        return LossOutput(float(node.data), node, terms)
    raise ValueError(f"unhandled method {m}")
