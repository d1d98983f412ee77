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

Inputs are the raw projection outputs.  The triplet, contrastive and
prediction objectives row-normalize them first; the decorrelation
objectives (redundancy reduction, VICReg) do not.

Objectives are composed from the autodiff primitives, except the row
normalization and the redundancy-reduction diagonal, which are one tape
node each whose backward replays the primitive chain's arithmetic (so
its gradients are that chain's bits).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autodiff import Value, _node, _unbroadcast

__all__ = [
    "Method",
    "LossConfig",
    "LossOutput",
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


# Which methods average the objective over both view directions.
SYMMETRIC_DEFAULT = {
    Method.BYOL: True,
    Method.SIMSIAM: True,
    Method.SIMCLR: False,
    Method.MOCOV2: False,
}


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        # Values may come straight from a JSON config, so check the type too.
        if not (_is_real(self.tau) and math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        for name in ("margin", "lambda_bt", "lambda_inv", "lambda_var", "lambda_cov",
                     "std_margin"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not (self.symmetric is None or isinstance(self.symmetric, bool)):
            raise ValueError(f"symmetric must be true, false or null, got {self.symmetric!r}")
        if self.symmetric is None:
            object.__setattr__(self, "symmetric", SYMMETRIC_DEFAULT.get(self.method, False))


@dataclass
class LossOutput:
    value: float
    node: Value
    per_term: dict[str, float] = field(default_factory=dict)


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
        g_sq = g_norms / (2.0 * norms) * xd
        x._accum(g_sq)  # x * x feeds the norm through both factors
        x._accum(g_sq)

    return _node(xd / norms, (x,), "l2_normalize_rows", bwd)


def _row_dist(a: Value, b: Value) -> Value:
    d = a - b
    return ((d * d).sum(axis=1, keepdims=True) + _DIST_EPS).sqrt()


def triplet_margin_loss(anchor: Value, positive: Value, negative: Value, margin: float) -> Value:
    """mean(max(d(a, p) - d(a, n) + margin, 0)) with L2 distances between
    the row-normalized embeddings."""
    anchor = l2_normalize_rows(anchor)
    positive = l2_normalize_rows(positive)
    negative = l2_normalize_rows(negative)
    gap = _row_dist(anchor, positive) - _row_dist(anchor, negative) + margin
    return gap.maximum(0.0).mean()


def _logsumexp_rows(logits: Value) -> Value:
    shift = np.max(logits.data, axis=1, keepdims=True)  # constant, exact gradient
    return (logits - shift).exp().sum(axis=1, keepdims=True).log() + shift


def _contrastive_one_way(logits: Value) -> Value:
    pos = _diagonal(logits, np.eye(logits.shape[0]))
    return (_logsumexp_rows(logits) - pos).mean()


def infonce_loss(
    q: Value,
    k: Value,
    tau: float,
    symmetric: bool = False,
) -> Value:
    """Temperature-scaled contrastive loss with in-batch negatives.

    Both views are row-normalized first.  Row b of ``q`` is positive with
    row b of ``k``; every other row of ``k`` is a negative.  The
    denominator includes the positive term.
    ``symmetric`` averages the two directions computed from one logit
    matrix, which makes the result exactly invariant to swapping q and k.
    """
    n = q.shape[0]
    if n < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    if q.shape != k.shape:
        raise ValueError(f"view shapes disagree: {q.shape} vs {k.shape}")
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


def _diagonal(c: Value, eye: np.ndarray) -> Value:
    """``(c * eye).sum(axis=1, keepdims=True)``, the (d, 1) diagonal of a
    square ``c``, as one tape node.

    Forward and closure replay the chain with its numpy operations: the
    sum node's backward broadcasts ``g`` over the rows, then the product
    node's multiplies by ``eye``; the product broadcasts ``g`` itself.
    """

    def bwd(g):
        c._accum(g * eye)

    return _node((c.data * eye).sum(axis=1, keepdims=True), (c,), "diagonal", bwd)


def barlow_twins_loss(za: Value, zb: Value, lam: float) -> tuple[Value, dict[str, float]]:
    """Identity-matching penalty on the cross-correlation matrix.

    ``sum_i (1 - C_ii)^2 + lam * sum_{i != j} C_ij^2``.  The off-diagonal
    term is squared, so it is invariant to the sign of each correlation.
    """
    c = cross_correlation_matrix(za, zb)
    d = c.shape[0]
    eye = np.eye(d)
    diag = _diagonal(c, eye)
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


def compute_loss(cfg: LossConfig, *views: Value) -> LossOutput:
    """Dispatch to the configured objective and package the result.

    ``views`` in order: (anchor, positive, negative) for the triplet;
    (query, key) for the contrastive, redundancy-reduction and VICReg
    objectives; (prediction, target) for embedding prediction, followed
    by the reverse (prediction, target) when ``cfg.symmetric``.
    """
    m = cfg.method
    if m is Method.TRIPLET:
        arity = 3
    elif m in (Method.BYOL, Method.SIMSIAM) and cfg.symmetric:
        arity = 4
    else:
        arity = 2
    if len(views) != arity:
        raise ValueError(f"{m.value} loss takes {arity} views, got {len(views)}")
    if m is Method.BARLOW_TWINS:
        node, terms = barlow_twins_loss(*views, cfg.lambda_bt)
        return LossOutput(float(node.data), node, terms)
    if m is Method.VICREG:
        node, terms = vicreg_loss(
            *views,
            cfg.lambda_inv,
            cfg.lambda_var,
            cfg.lambda_cov,
            cfg.std_margin,
        )
        return LossOutput(float(node.data), node, terms)
    if m is Method.TRIPLET:
        term, node = "triplet", triplet_margin_loss(*views, cfg.margin)
    elif m in (Method.SIMCLR, Method.MOCOV2):
        term, node = "contrastive", infonce_loss(*views, cfg.tau, symmetric=cfg.symmetric)
    else:
        term, node = "prediction", embedding_prediction_loss(*views[:2])
        if cfg.symmetric:
            node = (node + embedding_prediction_loss(*views[2:])) * 0.5
    return LossOutput(float(node.data), node, {term: float(node.data)})
