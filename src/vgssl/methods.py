"""Per-method assembly: which branches exist and how they feed the loss.

Each method is a combination of four mechanisms on top of the shared
encoder: a momentum-averaged target branch (ME), a stop-gradient on the
partner branch (SG), a prediction head on the online branch (PR), and
batchnorm inside the projection head (BN).

=============  ====  ====  ====  ====
method          ME    SG    PR    BN
=============  ====  ====  ====  ====
contrastive      0     0     0     0
momentum         1     0     0     0
prediction+EMA   1     1     1     1
prediction       0     1     1     1
decorrelation    0     0     0     1
var/inv/cov      0     0     0     1
=============  ====  ====  ====  ====

``method_batch_loss`` is the single wiring point used by the trainer,
the gradient checker, and the mechanism audit, so what is tested is
exactly what trains.  It returns the detached target arrays it used as
a tuple; for finite-difference checks that tuple is captured once and
re-fed (``frozen=``), keeping the stop-gradient branch constant while
parameters are perturbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Value, as_value
from .encoder import EncoderConfig, EncoderState, forward, predictor_forward
from .losses import (
    LossConfig,
    LossOutput,
    Method,
    compute_loss,
    l2_normalize_rows,
)
from .sampling import MiningConfig, MiningMode

__all__ = [
    "MechanismFlags",
    "TABLE_FLAGS",
    "MethodConfig",
    "method_config",
    "strategy_label",
    "method_batch_loss",
]


@dataclass(frozen=True)
class MechanismFlags:
    momentum_encoder: bool
    stop_gradient: bool
    predictor: bool
    projector_batchnorm: bool


TABLE_FLAGS: dict[Method, MechanismFlags] = {
    Method.SIMCLR: MechanismFlags(False, False, False, False),
    Method.MOCOV2: MechanismFlags(True, False, False, False),
    Method.BYOL: MechanismFlags(True, True, True, True),
    Method.SIMSIAM: MechanismFlags(False, True, True, True),
    Method.BARLOW_TWINS: MechanismFlags(False, False, False, True),
    Method.VICREG: MechanismFlags(False, False, False, True),
}

DISPLAY_NAMES = {
    Method.TRIPLET: "Triplet",
    Method.SIMCLR: "SimCLR",
    Method.MOCOV2: "MoCov2",
    Method.BYOL: "BYOL",
    Method.SIMSIAM: "SimSiam",
    Method.BARLOW_TWINS: "BT",
    Method.VICREG: "VICReg",
}


@dataclass(frozen=True)
class MethodConfig:
    method: Method
    loss: LossConfig
    encoder: EncoderConfig
    mining: MiningConfig
    eta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and non-negative, got {self.eta!r}")
        if self.method is not self.loss.method:
            raise ValueError("loss config belongs to a different method")
        if self.method is Method.TRIPLET:
            if self.encoder.has_target_branch or self.encoder.predictor:
                raise ValueError("triplet baseline uses the bare encoder")
        else:
            flags = TABLE_FLAGS[self.method]
            if self.encoder.momentum_target != flags.momentum_encoder:
                raise ValueError(f"{self.method.value}: momentum flag mismatch")
            expect_sg = flags.stop_gradient and not flags.momentum_encoder
            if self.encoder.stop_grad_target != expect_sg:
                raise ValueError(f"{self.method.value}: stop-gradient flag mismatch")
            if self.encoder.predictor != flags.predictor:
                raise ValueError(f"{self.method.value}: predictor flag mismatch")
            if self.encoder.proj_batchnorm != flags.projector_batchnorm:
                raise ValueError(f"{self.method.value}: projector batchnorm mismatch")


def method_config(
    method: Method,
    input_dim: int,
    hidden_dims: tuple[int, ...] = (64, 64),
    embed_dim: int = 64,
    proj_layers: int = 1,
    eta: float = 1.0,
    mining: MiningConfig | None = None,
    momentum: float = 0.99,
    **loss_overrides,
) -> MethodConfig:
    """Build a consistent method bundle from the mechanism table.

    ``proj_layers`` and ``embed_dim`` shape the projection head for the
    pair methods; the triplet baseline ignores them and embeds straight
    off the trunk.  ``mining`` belongs to the triplet baseline alone, and a
    pair method given one is an error.  Loss keyword overrides (``tau=``,
    ``margin=``, ...) pass through to ``LossConfig``.
    """
    if mining is not None and method is not Method.TRIPLET:
        raise ValueError(f"{method.value}: mining applies to the triplet baseline only")
    loss = LossConfig(method=method, **loss_overrides)
    if method is Method.TRIPLET:
        if not hidden_dims:
            # The triplet head is the identity, so the trunk is all it trains.
            raise ValueError(f"triplet needs a hidden layer, got hidden_dims={hidden_dims!r}")
        enc = EncoderConfig(
            input_dim=input_dim,
            hidden_dims=hidden_dims,
            embed_dim=hidden_dims[-1],
            identity_projection=True,
        )
        mining = mining or MiningConfig(mode=MiningMode.FULL_HNM)
        return MethodConfig(method=method, loss=loss, encoder=enc, mining=mining, eta=0.0)
    flags = TABLE_FLAGS[method]
    # Batchnorm sits between projection affines, so a single-layer head
    # has nowhere to put one; these methods are used with proj_layers >= 2.
    enc = EncoderConfig(
        input_dim=input_dim,
        hidden_dims=hidden_dims,
        embed_dim=embed_dim,
        proj_layers=proj_layers,
        proj_batchnorm=flags.projector_batchnorm,
        predictor=flags.predictor,
        momentum_target=flags.momentum_encoder,
        momentum=momentum,
        stop_grad_target=flags.stop_gradient and not flags.momentum_encoder,
    )
    return MethodConfig(
        method=method,
        loss=loss,
        encoder=enc,
        mining=mining or MiningConfig(mode=MiningMode.RANDOM),
        eta=eta,
    )


def strategy_label(mcfg: MethodConfig) -> str:
    """Human-readable run name, e.g. ``SimCLR-FC-1-2048-1``.

    Pair methods read ``<method>-FC-<projection layers>-<embed dim>-<eta>``.
    The triplet baseline is ``Triplet`` (full mining), ``Triplet-Random``,
    or ``Triplet-Partial``.
    """
    name = DISPLAY_NAMES[mcfg.method]
    if mcfg.method is Method.TRIPLET:
        suffix = {
            MiningMode.FULL_HNM: "",
            MiningMode.RANDOM: "-Random",
            MiningMode.PARTIAL_HNM: "-Partial",
        }[mcfg.mining.mode]
        return f"{name}{suffix}"
    eta = f"{mcfg.eta:g}"
    return f"{name}-FC-{mcfg.encoder.proj_layers}-{mcfg.encoder.embed_dim}-{eta}"


def method_batch_loss(
    state: EncoderState,
    mcfg: MethodConfig,
    anchors: np.ndarray,
    partners: np.ndarray,
    negatives: np.ndarray | None = None,
    frozen: tuple[np.ndarray, ...] | None = None,
) -> tuple[LossOutput, tuple[np.ndarray, ...]]:
    """One training step's loss for a batch of feature rows.

    ``anchors``/``partners`` hold one row per pair (identical-negative
    pairs repeat the same row); ``negatives`` only exists for triplets.
    The encoder's flags pick the views: an online view is the projection,
    passed through the predictor when there is one; with a target branch
    the views are online(anchors), target(partners) and, for a symmetric
    prediction loss, online(partners), target(anchors).  Returns the loss
    plus the detached target arrays in that order, so a finite-difference
    harness can pin them with ``frozen=``.

    The online views come first, anchors then partners.  Every target is
    a constant, by one rule: the pinned ``frozen`` array if given; else,
    on a stop-gradient branch, a copy of the online projection of the same
    rows when this step made it (a target forward normalizes by batch
    statistics and reads no running statistics, so it would give these
    bits); else the target forward.
    """
    enc = mcfg.encoder

    def online(rows) -> tuple[Value, Value]:
        """The projection of ``rows`` and the online view made of it."""
        z = forward(state, enc, rows)
        return z, predictor_forward(state, enc, l2_normalize_rows(z)) if enc.predictor else z

    if not enc.has_target_branch:
        rows = (anchors, partners)
        if mcfg.method is Method.TRIPLET:
            if negatives is None:
                raise ValueError("triplet batches need a negatives matrix")
            rows += (negatives,)
        return compute_loss(mcfg.loss, *[online(r)[1] for r in rows]), ()

    sides = (anchors, partners)
    views = [online(rows) for rows in sides[:2 if enc.predictor and mcfg.loss.symmetric else 1]]
    # View k is scored against a target of the other side's rows.
    targets, inputs = [], []
    for k, (_, view) in enumerate(views):
        other = 1 - k
        if frozen is not None:
            t = frozen[k]
        elif enc.stop_grad_target and other < len(views):
            t = views[other][0].data.copy()
        else:
            t = forward(state, enc, sides[other], branch="target").data
        targets.append(t)
        inputs += [view, as_value(t)]
    return compute_loss(mcfg.loss, *inputs), tuple(targets)
