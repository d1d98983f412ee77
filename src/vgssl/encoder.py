"""Two-branch embedding network built from the autodiff primitives.

The network is a ReLU MLP trunk followed by a projection head of ``L``
affine layers with ReLU between them (batchnorm after each hidden
projection affine when enabled), plus an optional two-layer predictor
and an optional momentum-averaged target copy.  ``forward`` runs either
the online branch (trainable) or the target branch: with a momentum
target the parameters are the EMA copies, with stop-grad the online
parameters are reused, so both branches share one code path and the
stop-grad target is bit-identical to the online forward.

Only an online forward in training mode records a tape.  A target-branch
forward and every eval-mode forward (``training=False``, the predictor's
included) wrap the parameters they read and their input rows as autodiff
constants and run the same layers: every result is then a constant, each
intermediate is freed as soon as the next layer has consumed it, and the
output has the bits a recorded forward would give.  No gradient reaches
the parameters or the input through such an output.  A raw input array
enters any forward as a constant, so no gradient is computed for it, and
no forward ever writes to it.

A forward takes one batch (N, D) or a stack of views (S, N, D) that
share the parameters, such as the two columns of a pair batch, and runs
each layer once over the whole stack; batchnorm normalizes each view by
its own batch statistics.  On the tape the layers of one run (trunk and
projection head, or the predictor; a per-view forward runs its output
layer once per view) are one node, whose backward replays each layer's
primitive chain (``h @ W + b`` and ``relu``; batch mean, centring,
population variance, scale and shift) with the same numpy operations
in the same order, view by view where a parameter's
contributions add up, so its gradients, including the terms through the
batch mean and variance, are exact and have the bits of a tape of
per-view chains.  Off the tape an affine layer writes one array: the
product, into which the bias is added and the ReLU applied in place.
In training mode batchnorm normalizes by batch statistics and updates the
running statistics; in eval mode it applies the stored running
statistics, in place in the affine's output, and then the ReLU.  An
eval-mode forward, with batchnorm or without, therefore writes one
(N, width) array per layer, and at most two of them are alive at once.

The layer layout is written once, in ``_layers``: ``init_state``,
``forward`` and ``predictor_forward`` all walk it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Value, _node, as_value

__all__ = [
    "EncoderConfig",
    "EncoderState",
    "ViewOutputs",
    "init_state",
    "forward",
    "predictor_forward",
    "momentum_update",
    "save_checkpoint",
    "load_checkpoint",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # fraction of the new batch statistic blended in
CHECKPOINT_VERSION = "VGSSL-CKPT-1"


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    embed_dim: int = 64
    proj_layers: int = 1
    proj_batchnorm: bool = False
    predictor: bool = False
    momentum_target: bool = False
    momentum: float = 0.99
    stop_grad_target: bool = False
    identity_projection: bool = False

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden widths must be positive")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.identity_projection:
            if self.embed_dim != self.trunk_out:
                raise ValueError(
                    f"identity projection needs embed_dim == trunk output "
                    f"({self.trunk_out}), got {self.embed_dim}"
                )
        elif self.proj_layers < 1:
            raise ValueError("projection head needs at least one layer")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {self.momentum}")

    @property
    def trunk_out(self) -> int:
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    @property
    def has_target_branch(self) -> bool:
        return self.momentum_target or self.stop_grad_target


@dataclass
class EncoderState:
    params: dict[str, Value]
    target: dict[str, np.ndarray] | None
    bn_running: dict[str, np.ndarray] = field(default_factory=dict)
    target_bn_running: dict[str, np.ndarray] | None = None


def _layers(cfg: EncoderConfig) -> list[tuple[str, int, int, str | None, bool]]:
    """The network's layers, then the predictor's, in forward order.

    Each is ``(prefix, fan_in, fan_out, bn, relu)``: the affine named
    ``prefix``, then the batchnorm named ``bn`` if there is one, then a
    ReLU if ``relu``.  Every batchnorm is followed by its ReLU.
    """
    layers = []
    prev = cfg.input_dim
    for i, h in enumerate(cfg.hidden_dims):
        layers.append((f"trunk.{i}", prev, h, None, True))
        prev = h
    if not cfg.identity_projection:
        for i in range(cfg.proj_layers):
            hidden = i < cfg.proj_layers - 1
            bn = f"proj.{i}.bn" if hidden and cfg.proj_batchnorm else None
            layers.append((f"proj.{i}", prev, cfg.embed_dim, bn, hidden))
            prev = cfg.embed_dim
    if cfg.predictor:
        d = cfg.embed_dim
        layers += [("pred.0", d, d, "pred.bn", True), ("pred.1", d, d, None, False)]
    return layers


def init_state(cfg: EncoderConfig, seed: int) -> EncoderState:
    """Fan-in uniform weights, zero biases, unit batchnorm, target = copy."""
    rng = np.random.default_rng(seed)
    layers = _layers(cfg)
    params: dict[str, Value] = {}
    for prefix, fi, fo, _, _ in layers:
        limit = 1.0 / np.sqrt(fi)
        params[f"{prefix}.W"] = Value(rng.uniform(-limit, limit, size=(fi, fo)))
        params[f"{prefix}.b"] = Value(np.zeros(fo))
    bn_running: dict[str, np.ndarray] = {}
    for _, _, width, bn, _ in layers:
        if bn is not None:
            params[f"{bn}.gamma"] = Value(np.ones((1, width)))
            params[f"{bn}.beta"] = Value(np.zeros((1, width)))
            bn_running[f"{bn}.mean"] = np.zeros((1, width))
            bn_running[f"{bn}.var"] = np.ones((1, width))
    target = target_bn = None
    if cfg.momentum_target:
        target = {n: v.data.copy() for n, v in params.items() if not n.startswith("pred.")}
        target_bn = {n: a.copy() for n, a in bn_running.items() if not n.startswith("pred.")}
    return EncoderState(params, target, bn_running, target_bn)


def _constants(params: dict[str, Value], predictor: bool) -> dict[str, Value]:
    """The current values of the predictor's parameters, or of all the
    others, as constants for a forward that records no tape."""
    return {
        name: as_value(v.data)
        for name, v in params.items()
        if name.startswith("pred.") == predictor
    }


def _add_views(p: Value, parts: np.ndarray, order) -> None:
    """Add one layer's contributions into ``p``'s gradient: one array for a
    single batch, else one per view, in ``order``."""
    if p._const:
        return
    if parts.ndim == p.data.ndim:
        p._accum(parts)
        return
    for s in order:
        p._accum(parts[s])


def _batchnorm_train(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Batch-statistics batchnorm of each view of ``x``, whose rows are axis
    -2: the output, and the batch mean, population variance, centred input,
    standard deviation and normalized input, each with its view axes."""
    n = x.shape[-2]
    if n < 2:
        raise ValueError("batchnorm in training mode needs a batch of at least 2")
    inv_n = 1.0 / n
    mu = x.sum(axis=-2, keepdims=True) * inv_n
    c = x - mu
    var = (c * c).sum(axis=-2, keepdims=True) * inv_n
    sd = np.sqrt(var + BN_EPS)
    xhat = c / sd
    return xhat * gamma + beta, (mu, var, c, sd, xhat)


def _split(x: Value, index, arrived: list) -> Value:
    """``x.data[index]``, a view or a run of views of a stack, as one node.

    Its gradient is written into ``x.grad[index]``, which starts at zero,
    and ``index`` appended to ``arrived``.  The views taken of ``x`` must
    be its only consumers, each taken once; ``arrived`` then lists them in
    the order their gradients reached ``x``.
    """
    def bwd(g):
        if x.grad is None:
            x.grad = np.zeros(x.shape)
        x.grad[index] = g
        arrived.append(index)

    return _node(x.data[index], (x,), "view", bwd)


class ViewOutputs(tuple):
    """A per-view forward's outputs: one (N, embed_dim) value per view.

    ``data`` stacks their arrays into the (S, N, embed_dim) array a stacked
    forward returns, so a caller that reads only ``.data`` (as the trace
    spans in ``benchmarks/`` do) takes either result.
    """

    @property
    def data(self) -> np.ndarray:
        return np.stack([v.data for v in self])


def _run(layers: list, params: dict[str, Value], x: Value, running: dict[str, np.ndarray],
         training: bool, update_running: bool, arrived: list | None = None) -> Value:
    """Run ``layers`` (entries of ``_layers``) on ``x``; with none, return ``x``.

    ``x`` is one batch (N, D) or a stack of views (S, N, D) that share the
    parameters; batchnorm normalizes each view by its own statistics, and
    the running statistics blend them in view by view.  Every layer runs
    as one numpy pass over the whole stack: a view's slice of each result
    has the bits a forward of that view alone would give.

    Off the tape (``x`` and every parameter a constant) each layer writes
    one array: the product, into which the bias is added and the ReLU or an
    eval-mode batchnorm applied in place.  On the tape the layers are one
    node, whose ``_aux`` lists every hinge input (the pre-activation of an
    affine with a fused ReLU, the batchnorm output ahead of its ReLU).  Its
    closure replays each layer's primitive chain backwards with the same
    numpy operations (``h @ W + b`` and ``relu``; batch mean, centring,
    population variance, scale and shift), so it has the per-view chains'
    bits.  A parameter takes one contribution per view.  When the views'
    gradients arrive one by one, through ``_split`` nodes that append them
    to ``arrived``, they are added in the order of arrival, which is the
    order a tape of per-view chains adds them; a stack's gradient arriving
    whole adds them in view order (with two views, as in every stacked
    training step, the order cannot change the bits).
    """
    names = [n for prefix, _, _, bn, _ in layers
             for n in (f"{prefix}.W", f"{prefix}.b",
                       *((f"{bn}.gamma", f"{bn}.beta") if bn else ()))]
    tape = not (x._const and all(params[n]._const for n in names))
    h = x.data
    saved = []  # on the tape, per layer: its input, pre-activation and batchnorm results
    for prefix, _, _, bn, relu in layers:
        h_in = h
        pre = h @ params[f"{prefix}.W"].data
        pre += params[f"{prefix}.b"].data
        norm = None
        if bn is None:
            h = np.maximum(pre, 0.0, out=None if tape else pre) if relu else pre
        elif training:
            y, (mu, var, *norm) = _batchnorm_train(
                pre, params[f"{bn}.gamma"].data, params[f"{bn}.beta"].data)
            if update_running:
                for key, stats in ((f"{bn}.mean", mu), (f"{bn}.var", var)):
                    for batch in stats if stats.ndim == 3 else (stats,):  # view by view
                        running[key] = (1 - BN_MOMENTUM) * running[key] + BN_MOMENTUM * batch
            norm = (y, *norm)
            h = np.maximum(y, 0.0, out=None if tape else y)
        else:  # eval mode, reached only off the tape: in place, ufunc by ufunc
            pre -= running[f"{bn}.mean"]
            pre /= np.sqrt(running[f"{bn}.var"] + BN_EPS)
            pre *= params[f"{bn}.gamma"].data
            pre += params[f"{bn}.beta"].data
            h = np.maximum(pre, 0.0, out=pre)
        if tape:
            saved.append((prefix, bn, relu, h_in, pre, norm))

    if not layers:
        out = x
    elif not tape:
        out = as_value(h)
    else:
        def bwd(g):
            order = arrived or range(x.shape[0])
            for i in range(len(saved) - 1, -1, -1):
                prefix, bn, relu, h_in, pre, norm = saved[i]
                if norm is not None:
                    bn_out, c, sd, xhat = norm
                    g = g * (bn_out > 0.0)
                    gamma = params[f"{bn}.gamma"]
                    _add_views(params[f"{bn}.beta"], g.sum(axis=-2, keepdims=True), order)
                    _add_views(gamma, (g * xhat).sum(axis=-2, keepdims=True), order)
                    inv_n = 1.0 / g.shape[-2]
                    g_xhat = g * gamma.data
                    g = g_xhat / sd
                    g_sd = (-g_xhat * c / (sd * sd)).sum(axis=-2, keepdims=True)
                    g_sq = g_sd / (2.0 * sd) * inv_n
                    g += g_sq * c  # c * c feeds the variance through both factors
                    g += g_sq * c
                    g += (-g).sum(axis=-2, keepdims=True) * inv_n  # through the mean
                elif relu:
                    g = g * (pre > 0.0)
                W = params[f"{prefix}.W"]
                _add_views(params[f"{prefix}.b"], g.sum(axis=-2), order)
                _add_views(W, np.matmul(h_in.swapaxes(-1, -2), g), order)
                if i or not x._const:
                    g = g @ W.data.T
            if not x._const:
                x._accum(g)

        out = _node(h, (x, *(params[n] for n in names)), "run", bwd)
        out._aux = [pre if norm is None else norm[0]
                    for _, _, relu, _, pre, norm in saved if relu]
    return out


def forward(
    state: EncoderState,
    cfg: EncoderConfig,
    batch: np.ndarray | Value,
    branch: str = "online",
    training: bool = True,
    per_view: bool = False,
) -> Value | ViewOutputs:
    """Embed a batch (N, input_dim) -> (N, embed_dim), or a stack of views
    (S, N, input_dim) -> (S, N, embed_dim) in one run.

    ``branch='target'`` requires a momentum target or stop-grad target.
    Only ``branch='online'`` with ``training=True`` records a tape; any
    other forward runs on constants and returns a leaf with no parents,
    through which no gradient reaches the parameters or the input.

    ``per_view`` takes a stack and returns the ``ViewOutputs`` of the
    views' (N, embed_dim) outputs: the layers below the output layer run
    once over the stack, and the output layer, which has no batchnorm, runs
    on each view's ``_split`` slice as a one-layer ``_run`` node of its
    own.  A loss that couples views reads those nodes, and the gradient
    each hands back reaches the output layer in its own memory layout.
    """
    x = as_value(batch)  # a raw array enters as a constant
    if x.data.ndim not in (2, 3) or x.shape[-1] != cfg.input_dim:
        raise ValueError(f"expected batch of shape (N, {cfg.input_dim}) or "
                         f"(S, N, {cfg.input_dim}), got {x.shape}")

    recording = branch == "online" and training
    if branch == "online":
        params = state.params if recording else _constants(state.params, False)
        running = state.bn_running
    elif branch == "target":
        if not cfg.has_target_branch:
            raise ValueError("this encoder has no target branch")
        if cfg.momentum_target:
            params = {name: as_value(a) for name, a in state.target.items()}
            running = state.target_bn_running
        else:  # stop-grad: the online parameters' values, off the tape
            params = _constants(state.params, False)
            running = state.bn_running
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if per_view and x.data.ndim != 3:
        raise ValueError(f"a per-view forward takes a stack of views, got {x.shape}")
    if not recording:
        x = as_value(x.data)  # a live input takes no gradient here

    layers = [layer for layer in _layers(cfg) if not layer[0].startswith("pred.")]
    # Only the recorded forward updates the running statistics.
    if not per_view:
        out = _run(layers, params, x, running, training, recording)
        # A net with no layer passes its input through; off the tape, cut it loose.
        return x.detach() if out is x and not recording else out
    if not layers:  # a net with no layer passes each view through
        return ViewOutputs(x[s] for s in range(len(x.data)))
    arrived: list = []  # the views, in the order their gradients reach the body
    body = _run(layers[:-1], params, x, running, training, recording, arrived)
    return ViewOutputs(_run(layers[-1:], params, _split(body, s, arrived), running,
                            training, recording) for s in range(len(x.data)))


def predictor_forward(
    state: EncoderState, cfg: EncoderConfig, z: Value, training: bool = True
) -> Value:
    """Two-layer head on top of an online embedding, batchnorm + ReLU inside;
    ``z`` is one batch or a stack of views, as for ``forward``.

    Like ``forward``, records a tape only in training mode; an eval-mode
    output is a constant with the same bits.
    """
    if not cfg.predictor:
        raise RuntimeError("encoder was built without a predictor")
    params = state.params
    if not training:
        params = _constants(params, True)
        z = as_value(z.data)
    layers = [layer for layer in _layers(cfg) if layer[0].startswith("pred.")]
    return _run(layers, params, z, state.bn_running, training, training)


def momentum_update(state: EncoderState, cfg: EncoderConfig) -> None:
    """EMA step: target <- m * target + (1 - m) * online, stats included."""
    if not cfg.momentum_target or state.target is None:
        raise RuntimeError("no momentum target to update")
    m = cfg.momentum
    for name, tgt in state.target.items():
        state.target[name] = m * tgt + (1 - m) * state.params[name].data
    for name, tgt in state.target_bn_running.items():
        state.target_bn_running[name] = m * tgt + (1 - m) * state.bn_running[name]


# -- checkpointing ---------------------------------------------------------


# A checkpoint tensor is named ``<group>.<key>``: the parameters, the
# momentum target, the running statistics, the target's running statistics
# and the caller's extra tensors, in this order.
_GROUPS = ("params", "target", "bn", "target_bn", "extra")


def _tensor_map(state: EncoderState, extra_tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    params = {name: v.data for name, v in state.params.items()}
    groups = (params, state.target, state.bn_running, state.target_bn_running, extra_tensors)
    return {
        f"{group}.{name}": a
        for group, tensors in zip(_GROUPS, groups)
        for name, a in (tensors or {}).items()
    }


def save_checkpoint(
    path: str | Path,
    state: EncoderState,
    cfg: EncoderConfig,
    meta: dict | None = None,
    extra_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    """Single-file binary checkpoint: JSON header plus raw float64 buffers.

    Layout: 4-byte little-endian header length, UTF-8 JSON header listing
    every tensor's name, shape and byte offset, then the concatenated
    little-endian float64 buffers in manifest order.  ``meta`` holds small
    JSON-safe values (epoch counters, optimizer step); ``extra_tensors``
    holds optimizer moments keyed by parameter name.  The file is written
    under a temporary name in the same directory and renamed over ``path``,
    so a reader sees the old checkpoint or the new one, never a partial
    write.
    """
    tensors = _tensor_map(state, extra_tensors or {})
    manifest = []
    offset = 0
    names = sorted(tensors)
    for name in names:
        a = tensors[name]
        manifest.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += a.size * 8
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "meta": meta or {},
        "tensors": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name in names:
                fh.write(tensors[name].astype("<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked_manifest(path, header: dict, body_len: int) -> list[tuple[str, str, tuple, int]]:
    """The header's tensor list as (group, key, shape, offset) tuples.

    Checks every entry once: unique string names of the form
    ``<group>.<key>`` with a group of ``_GROUPS`` and a non-empty key,
    shapes of non-negative ints, non-negative int offsets, every tensor
    inside the body; and a JSON-object ``meta``.  Each failure is a
    ``ValueError`` naming ``path``.
    """
    def malformed(what: str) -> ValueError:
        return ValueError(f"malformed checkpoint {path}: {what}")

    if not isinstance(header["meta"], dict):
        raise malformed("meta is not a JSON object")
    entries = header["tensors"]
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise malformed("tensors is not a list of JSON objects")
    manifest = []
    names: set[str] = set()
    need = 0
    for i, entry in enumerate(entries):
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str):
            raise malformed(f"tensor {i} name {name!r} is not a string")
        if name in names:
            raise malformed(f"tensor {name!r} is listed twice")
        names.add(name)
        group, _, key = name.partition(".")
        if group not in _GROUPS or not key:
            raise malformed(f"tensor {name!r} is not named <group>.<key> "
                            f"with a group in {_GROUPS}")
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
            raise malformed(f"tensor {name!r} shape {shape!r} is not a list of non-negative ints")
        if not _is_count(offset):
            raise malformed(f"tensor {name!r} offset {offset!r} is not a non-negative int")
        manifest.append((group, key, tuple(shape), offset))
        need = max(need, offset + 8 * math.prod(shape))
    if body_len < need:
        raise ValueError(
            f"truncated checkpoint {path}: tensor body has {body_len} bytes, "
            f"the header needs {need}"
        )
    return manifest


def load_checkpoint(path: str | Path):
    """Inverse of ``save_checkpoint``.

    Returns (state, cfg, meta, extra_tensors).  The parameter, target and
    running-statistic tensors must be, by name and shape, those that
    ``init_state`` builds for the checkpoint's own encoder config; any
    other file is a ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(4)
        if len(prefix) < 4:
            raise ValueError(
                f"truncated checkpoint {path}: {len(prefix)} bytes, "
                "the header length needs 4"
            )
        (hlen,) = struct.unpack("<I", prefix)
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise ValueError(
                f"truncated checkpoint {path}: header has {len(blob)} bytes, "
                f"its length prefix says {hlen}"
            )
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as err:  # UnicodeDecodeError or JSONDecodeError
            raise ValueError(f"malformed checkpoint {path}: header is not UTF-8 JSON: {err}") from None
        if not isinstance(header, dict):
            raise ValueError(f"malformed checkpoint {path}: header is not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {header.get('version')!r} in {path}"
            )
        missing = sorted({"config", "meta", "tensors"} - header.keys())
        if missing:
            raise ValueError(f"malformed checkpoint {path}: header lacks {missing}")
        body = fh.read()
    manifest = _checked_manifest(path, header, len(body))
    try:
        cfg = EncoderConfig(**header["config"])
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed checkpoint {path}: encoder config: {err}") from None
    want = {n: a.shape for n, a in _tensor_map(init_state(cfg, seed=0), {}).items()}
    got = {f"{group}.{key}": shape for group, key, shape, _ in manifest if group != "extra"}
    wrong = [f"{n} is missing" for n in sorted(want.keys() - got.keys())]
    wrong += [f"{n} is not in the layout" for n in sorted(got.keys() - want.keys())]
    wrong += [f"{n} has shape {got[n]}, the layout {want[n]}"
              for n in sorted(want.keys() & got.keys()) if got[n] != want[n]]
    if wrong:
        raise ValueError(f"malformed checkpoint {path}: tensors do not fit its encoder "
                         f"config: {'; '.join(wrong)}")
    groups: dict[str, dict[str, np.ndarray]] = {group: {} for group in _GROUPS}
    for group, key, shape, start in manifest:
        a = np.frombuffer(body, dtype="<f8", count=math.prod(shape), offset=start)
        groups[group][key] = a.reshape(shape).astype(np.float64)
    state = EncoderState(
        params={name: Value(a) for name, a in groups["params"].items()},
        target=groups["target"] or None,
        bn_running=groups["bn"],
        target_bn_running=groups["target_bn"] or None,
    )
    return state, cfg, header["meta"], groups["extra"]
