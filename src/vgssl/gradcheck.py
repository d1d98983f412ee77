"""Finite-difference verification of every method's training gradient.

For each method a small random instance is built (encoder, batch, loss),
the tape gradient is computed once, and every parameter and input
coordinate is then perturbed centrally to compare.

Two preconditions make finite differences meaningful and are enforced by
resampling the instance, never by loosening the comparison:

* detached branches must stay fixed while coordinates move, otherwise
  the difference quotient measures a different function than the tape
  differentiates: the first call captures the detached target outputs
  and every subsequent call re-feeds them frozen;
* no hinge may flip inside a difference interval, where the two-sided
  quotient straddles the non-differentiable point: hinge inputs near
  their threshold at the base point are rejected up front, and every
  perturbed evaluation additionally records which hinges are active,
  redrawing the instance whenever the two sides of one quotient disagree
  (a step through batchnorm can be amplified by a small batch std, so a
  static margin alone is not enough).

Instances whose gradient vanishes identically (a triplet batch with
every hinge inactive) are also redrawn; a flat loss verifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Value, zero_grads
from .encoder import init_state
from .losses import DegenerateInputError, Method
from .methods import MethodConfig, method_batch_loss, method_config

__all__ = [
    "GradCheckResult",
    "relative_error",
    "gradcheck_method",
    "gradcheck_all",
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


def _loss_value(
    state,
    mcfg: MethodConfig,
    anchors: Value,
    partners: Value,
    negatives: Value | None,
    frozen,
) -> tuple[float, np.ndarray]:
    out, _ = method_batch_loss(
        state,
        mcfg,
        anchors,
        partners,
        negatives=negatives,
        frozen=frozen,
    )
    return out.value, _hinge_signature(out.node)


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
        if max(np.max(np.abs(g)) for g in analytic.values()) < 1e-8:
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
        # full tape above; all difference quotients must reproduce it).
        _, sig_base = _loss_value(state, mcfg, anchors, partners, negatives, used)

        numeric: dict[str, np.ndarray] = {}
        crossed = False
        for name, v in leaves.items():
            g = np.zeros_like(v.data)
            flat = v.data.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                hi, sig_hi = _loss_value(state, mcfg, anchors, partners, negatives, used)
                flat[i] = orig - FD_STEP
                lo, sig_lo = _loss_value(state, mcfg, anchors, partners, negatives, used)
                flat[i] = orig
                if not (np.array_equal(sig_hi, sig_base)
                        and np.array_equal(sig_lo, sig_base)):
                    crossed = True
                    break
                gf[i] = (hi - lo) / (2.0 * FD_STEP)
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
