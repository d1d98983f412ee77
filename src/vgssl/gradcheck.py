"""Finite-difference verification of every method's training gradient.

For each method a small random instance is built (encoder, batch, loss),
the tape gradient is computed once, and every parameter and input
coordinate is then perturbed centrally to compare.  Where the central
difference ``D(h)`` at ``h = FD_STEP`` misses half the tolerance, it is
Richardson-extrapolated to ``(4·D(h/2) − D(h)) / 3``, which cancels its h²
truncation term, so a curved loss cannot fail the check by truncation
alone.

Two preconditions make finite differences meaningful and are enforced by
resampling the instance, never by loosening the comparison:

* detached branches must stay fixed while coordinates move, otherwise
  the difference quotient measures a different function than the tape
  differentiates: the first call captures the detached target outputs
  and every subsequent call re-feeds them frozen;
* no hinge may flip inside a difference interval, where the two-sided
  quotient straddles the non-differentiable point: hinge inputs near
  their threshold at the base point are rejected up front, and every
  perturbed evaluation (both steps of a coordinate) additionally records
  which hinges are active, redrawing the instance whenever one of them
  disagrees with the base point (a step through batchnorm can be
  amplified by a small batch std, so a static margin alone is not
  enough).

Instances whose gradient vanishes identically (a triplet batch with
every hinge inactive) are also redrawn; a flat loss verifies nothing.

``audit_gradient_flow`` draws the same instances to check each pair
method's mechanism flags by the gradient flow they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Value, zero_grads
from .encoder import forward, init_state, momentum_update
from .losses import DegenerateInputError, LossOutput, Method
from .methods import TABLE_FLAGS, method_batch_loss, method_config

__all__ = [
    "GradCheckResult",
    "relative_error",
    "gradcheck_method",
    "gradcheck_all",
    "audit_gradient_flow",
    "ALL_METHODS",
]

ALL_METHODS = tuple(Method)

FD_STEP = 1e-5
# A perturbation of one coordinate moves a hinge input by at most a few
# times the step, so any input within 10 steps of its threshold gets the
# whole instance redrawn (a ReLU is a hinge at 0, fused into its affine
# node or not, so this covers dead units grazing zero as well as the loss
# hinges).
KINK_MARGIN = 1e-4
MAX_REDRAWS = 60


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst deviation measured against the gradient's own scale.

    The denominator is the largest finite-difference magnitude across the
    whole comparison, not per coordinate: a bias feeding a batchnorm is a
    structural null direction whose true gradient is zero, and dividing
    its rounding residue by itself would read as failure.
    """
    return float(np.max(np.abs(analytic - numeric)) / (np.max(np.abs(numeric)) + 1e-12))


@dataclass
class GradCheckResult:
    method: Method
    seed: int
    max_rel_err: float
    per_coord: dict[str, float] = field(default_factory=dict)
    passed: bool = False
    redraws: int = 0


def _hinges(loss_node: Value) -> list[tuple[np.ndarray, float]]:
    """(input, threshold) of every hinge on this tape, in topo order: each
    ``maximum`` node, and each affine node with a fused ReLU, whose
    ``_aux`` is its pre-activation."""
    out = []
    for node in loss_node._topo():
        if node._op == "maximum" and node._aux is not None:
            out.append((node._parents[0].data, node._aux))
        elif node._op == "affine_relu":
            out.append((node._aux, 0.0))
    return out


def _kink_margin(loss_node: Value) -> float:
    """Smallest distance of any hinge input to its threshold on this tape."""
    margin = np.inf
    for x, threshold in _hinges(loss_node):
        margin = min(margin, float(np.min(np.abs(x - threshold))))
    return margin


def _hinge_signature(loss_node: Value) -> np.ndarray:
    """Active/inactive pattern of every hinge on the tape, in topo order.

    The graph is rebuilt identically on every evaluation, so signatures
    from two evaluations align coordinate for coordinate; any mismatch
    between the two sides of a central difference means the interval
    contains a kink and the quotient is meaningless there.
    """
    parts = [(x > threshold).ravel() for x, threshold in _hinges(loss_node)]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def _build_instance(method: Method, seed: int):
    """Small random instance; dimensions stay within N <= 8, D <= 16."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    # Two squeezed layers keep the walk through trunk, projection and
    # predictor cheap; VICReg's hinge must be active but off the kink,
    # so its margin sits above the typical column std.
    overrides = {}
    if method is Method.VICREG:
        overrides["std_margin"] = 1.5
    if method is Method.TRIPLET:
        overrides["margin"] = 0.35
    mcfg = method_config(
        method,
        input_dim=5,
        hidden_dims=(6,),
        embed_dim=6,
        proj_layers=2,
        eta=0.0,
        **overrides,
    )
    state = init_state(mcfg.encoder, seed)
    anchors = Value(rng.normal(size=(n, 5)))
    partners = Value(rng.normal(size=(n, 5)) * 0.9 + anchors.data * 0.1)
    negatives = Value(rng.normal(size=(n, 5))) if method is Method.TRIPLET else None
    return mcfg, state, anchors, partners, negatives


def gradcheck_method(
    method: Method,
    seed: int = 0,
    tol: float = 1e-4,
    corrupt: bool = False,
) -> GradCheckResult:
    """Compare the tape gradient against central differences.

    Checks every trainable parameter and every input coordinate.
    ``corrupt`` flips the sign of one analytic gradient entry first; a
    healthy harness must then report failure (used to prove the check
    can actually catch a wrong gradient).
    """
    redraws = 0
    for attempt in range(MAX_REDRAWS):
        inst_seed = seed * 1009 + attempt
        try:
            mcfg, state, anchors, partners, negatives = _build_instance(method, inst_seed)
            out, used = method_batch_loss(
                state, mcfg, anchors, partners,
                negatives=negatives, frozen=None,
            )
        except DegenerateInputError:
            redraws += 1
            continue
        if _kink_margin(out.node) < KINK_MARGIN:
            redraws += 1
            continue
        leaves: dict[str, Value] = dict(state.params)
        leaves["input.anchors"] = anchors
        leaves["input.partners"] = partners
        if negatives is not None:
            leaves["input.negatives"] = negatives
        out.node.backward()
        analytic = {
            name: (v.grad.copy() if v.grad is not None else np.zeros_like(v.data))
            for name, v in leaves.items()
        }
        zero_grads(out.node._topo())
        analytic_scale = max(np.max(np.abs(g)) for g in analytic.values())
        if analytic_scale < 1e-8:
            # A flat instance (every hinge inactive) verifies nothing.
            redraws += 1
            continue

        if corrupt:
            # Flip the largest entry of the largest-gradient parameter.
            name = max(analytic, key=lambda k: np.max(np.abs(analytic[k])))
            flat = analytic[name].reshape(-1)
            idx = int(np.argmax(np.abs(flat)))
            flat[idx] = -flat[idx]

        # Reference hinge pattern on the frozen-target tape (the frozen
        # path skips target forwards, so its hinge count differs from the
        # full tape above; every perturbed evaluation must reproduce it).
        def frozen_loss() -> LossOutput:
            return method_batch_loss(state, mcfg, anchors, partners,
                                     negatives=negatives, frozen=used)[0]

        sig_base = _hinge_signature(frozen_loss().node)

        def side(flat: np.ndarray, i: int, x: float) -> float | None:
            """The loss with ``flat[i] = x``, or None if a hinge flipped."""
            flat[i] = x
            loss = frozen_loss()
            return loss.value if np.array_equal(_hinge_signature(loss.node), sig_base) else None

        # The h/2 step costs two more evaluations, so it is taken only where
        # the plain quotient misses half of ``tol`` against the analytic
        # scale: a coordinate kept plain then stays inside ``tol``.
        refine_at = 0.5 * tol * analytic_scale
        numeric: dict[str, np.ndarray] = {}
        crossed = False
        for name, v in leaves.items():
            g = np.zeros_like(v.data)
            flat = v.data.reshape(-1)
            gf = g.reshape(-1)
            af = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                d = []  # central differences D(h), then D(h/2)
                for step in (FD_STEP, FD_STEP / 2):
                    hi, lo = side(flat, i, orig + step), side(flat, i, orig - step)
                    flat[i] = orig
                    crossed = hi is None or lo is None
                    if crossed:
                        break
                    d.append((hi - lo) / (2.0 * step))
                    if abs(d[0] - af[i]) < refine_at:
                        break
                if crossed:
                    break
                # Richardson: D(h) = g + c·h² + O(h⁴), so (4·D(h/2) − D(h)) / 3
                # cancels the h² truncation term.
                gf[i] = d[0] if len(d) == 1 else (4.0 * d[1] - d[0]) / 3.0
            if crossed:
                break
            numeric[name] = g
        if crossed:
            redraws += 1
            continue
        break
    else:
        raise RuntimeError(f"{method.value}: no usable instance after {MAX_REDRAWS} draws")

    scale = max(np.max(np.abs(g)) for g in numeric.values()) + 1e-12
    per_coord = {
        name: float(np.max(np.abs(analytic[name] - numeric[name])) / scale)
        for name in leaves
    }
    max_err = max(per_coord.values())
    return GradCheckResult(
        method=method,
        seed=seed,
        max_rel_err=max_err,
        per_coord=per_coord,
        passed=max_err < tol,
        redraws=redraws,
    )


def gradcheck_all(
    methods=ALL_METHODS, instances: int = 20, seed0: int = 0, tol: float = 1e-4
) -> dict[Method, list[GradCheckResult]]:
    """``instances`` independent checks per method."""
    results: dict[Method, list[GradCheckResult]] = {}
    for method in methods:
        results[method] = [
            gradcheck_method(method, seed=seed0 + i, tol=tol) for i in range(instances)
        ]
    return results


# -- mechanism audit -----------------------------------------------------------


def audit_gradient_flow(method: Method, seed: int = 0) -> dict[str, bool]:
    """Verify each mechanism flag by direct inspection of gradient flow.

    Draws the method's gradcheck instance, runs its batch, backprops, and
    checks what the flags promise:

    * momentum encoder: a target copy exists, is EMA-moved, and holds
      plain arrays that can never accumulate gradient;
    * stop gradient: the loss target side is a detached constant; for
      the stop-grad (non-EMA) variant it is bit-identical to the online
      forward, for the EMA variant it lags behind it;
    * predictor: prediction-head parameters exist and receive gradient;
    * projector batchnorm: scale/shift parameters exist and receive
      gradient;
    * with no momentum encoder and no stop gradient, both views stay
      tape-connected and both inputs receive gradient.

    Returns the individual check results plus an ``ok`` aggregate.
    """
    if method is Method.TRIPLET:
        raise ValueError("the mechanism table covers the pair methods only")
    flags = TABLE_FLAGS[method]

    # A random init can kill a whole row through batchnorm + ReLU at these
    # widths, which the losses rightly reject; that says nothing about the
    # mechanism flags, so resample the instance and try again.
    last_err: Exception | None = None
    for attempt in range(20):
        mcfg, enc_state, anchors, partners, _ = _build_instance(method, seed + attempt)

        # Let the target lag the online parameters so EMA copies are
        # distinguishable from stopped online outputs.
        if mcfg.encoder.momentum_target:
            for p in enc_state.params.values():
                p.data += 0.05
            momentum_update(enc_state, mcfg.encoder)

        try:
            out, used = method_batch_loss(enc_state, mcfg, anchors, partners)
            out.node.backward()
            break
        except DegenerateInputError as err:
            last_err = err
    else:
        raise RuntimeError(f"audit could not find a usable instance: {last_err}")

    checks: dict[str, bool] = {}
    grads = {n: p.grad for n, p in enc_state.params.items()}

    def nonzero(name: str) -> bool:
        g = grads.get(name)
        return g is not None and bool(np.any(g != 0))

    # ME: target copy present, held as raw arrays, moved by EMA.
    if flags.momentum_encoder:
        checks["target_exists"] = enc_state.target is not None
        checks["target_not_trainable"] = all(
            isinstance(a, np.ndarray) for a in enc_state.target.values()
        )
        before = {n: a.copy() for n, a in enc_state.target.items()}
        momentum_update(enc_state, mcfg.encoder)
        m = mcfg.encoder.momentum
        moved_right = all(
            np.allclose(
                enc_state.target[n],
                m * before[n] + (1 - m) * enc_state.params[n].data,
            )
            for n in before
        )
        checks["target_ema_moves"] = moved_right
    else:
        checks["no_target_copy"] = enc_state.target is None or not mcfg.encoder.momentum_target

    # SG: the loss target side is a detached constant of the right provenance.
    target_used = bool(used)
    if flags.stop_gradient or flags.momentum_encoder:
        checks["target_side_detached"] = target_used
        online_view = forward(
            enc_state, mcfg.encoder, partners.data, branch="online", training=True
        ).data
        if flags.momentum_encoder:
            checks["target_is_lagged_copy"] = not np.allclose(used[0], online_view)
        else:
            checks["target_is_stopped_online"] = np.array_equal(used[0], online_view)
    else:
        checks["no_detached_branch"] = not target_used
        checks["both_views_tape_connected"] = (
            anchors.grad is not None
            and partners.grad is not None
            and bool(np.any(anchors.grad != 0))
            and bool(np.any(partners.grad != 0))
        )

    # Online branch always learns.
    checks["online_receives_gradient"] = nonzero("trunk.0.W")

    # PR: prediction head present and learning, or absent.
    if flags.predictor:
        checks["predictor_params_learn"] = nonzero("pred.0.W") and nonzero("pred.1.W")
    else:
        checks["no_predictor_params"] = not any(
            n.startswith("pred.") for n in enc_state.params
        )

    # BN: projector scale/shift present and learning, or absent.
    if flags.projector_batchnorm:
        checks["projector_bn_learns"] = nonzero("proj.0.bn.gamma") and nonzero(
            "proj.0.bn.beta"
        )
    else:
        checks["no_projector_bn"] = not any(
            ".bn.gamma" in n and n.startswith("proj.") for n in enc_state.params
        )

    checks["ok"] = all(checks.values())
    return checks
