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
    momentum: float = EncoderConfig.momentum,
    **loss_overrides,
) -> MethodConfig:
    """Build a consistent method bundle from the mechanism table.

    ``proj_layers`` and ``embed_dim`` shape the projection head for the
    pair methods; the triplet baseline ignores them and embeds straight
    off the trunk.  ``mining`` belongs to the triplet baseline alone, and a
    pair method given one is an error.  Loss keyword overrides (``tau=``,
    ``margin=``, ...) pass through to ``LossConfig``, which takes those
    the method's objective reads.  ``momentum`` away from its default is
    an error for a method without a momentum encoder.
    """
    if mining is not None and method is not Method.TRIPLET:
        raise ValueError(f"{method.value}: mining applies to the triplet baseline only")
    if momentum != EncoderConfig.momentum and not (
        method in TABLE_FLAGS and TABLE_FLAGS[method].momentum_encoder
    ):
        raise ValueError(f"{method.value} has no momentum encoder and does not read momentum")
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
    views: np.ndarray | Value,
    frozen: tuple[np.ndarray, ...] | None = None,
) -> tuple[LossOutput, tuple[np.ndarray, ...]]:
    """One training step's loss for a batch of feature rows.

    ``views`` stacks the batch's columns, (S, N, F): anchors and partners,
    one row per pair (identical-negative pairs repeat the same row), then
    the negatives for triplets.  The online views run through the encoder
    as one stack.  The encoder's flags pick the loss's inputs: without a
    target branch, the projections of every view, each from its own output
    layer (see ``vgssl.encoder.forward``'s ``per_view``); with one, the
    online view is the projection of the anchors (and of the partners too,
    for a symmetric prediction loss), passed through the predictor when
    there is one, and each is scored against a target of the other side's
    rows.  Returns the loss plus the detached target arrays, one per
    online view, so a finite-difference harness can pin them with
    ``frozen=``.

    Every target is a constant, by one rule: the pinned ``frozen`` arrays
    if given; else, on a stop-gradient branch, a copy of the online
    projection of the same rows when this step made it (a target forward
    normalizes by batch statistics and reads no running statistics, so it
    would give these bits); else the target forward.
    """
    enc = mcfg.encoder
    x = as_value(views)
    need = 3 if mcfg.method is Method.TRIPLET else 2
    if x.data.ndim != 3 or x.shape[0] != need:
        raise ValueError(f"{mcfg.method.value} batches take a stack of {need} views, "
                         f"got shape {x.shape}")

    if not enc.has_target_branch:
        return compute_loss(mcfg.loss, *forward(state, enc, x, per_view=True)), ()

    k = 2 if enc.predictor and mcfg.loss.symmetric else 1
    # Online view j is scored against a target of view 1 - j's rows.
    other = [1, 0][:k]
    z = forward(state, enc, x[:k], per_view=not enc.predictor)
    if frozen is not None:
        t = np.stack(frozen)
    elif enc.stop_grad_target and k == need:
        t = z.data[other]
    else:
        t = forward(state, enc, x.data[other], branch="target").data
    targets = tuple(t)
    if enc.predictor:
        online = predictor_forward(state, enc, l2_normalize_rows(z))
    else:  # the contrastive loss reads the one online view's own output layer
        (online,), t = z, t[0]
    return compute_loss(mcfg.loss, online, as_value(t)), targets
