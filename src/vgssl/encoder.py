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
enters any forward as a constant, so no gradient is computed for it.

Each affine layer and each training-mode batchnorm is one tape node whose
backward replays the primitive chain it stands for (``h @ W + b``; batch
mean, centring, population variance, scale and shift) with the same
numpy operations in the same order, so its gradient, including the terms
through the batch mean and variance, is exact and has that chain's bits.
In training mode batchnorm normalizes by batch statistics and updates the
running statistics; in eval mode it applies the stored running
statistics.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Value, _node, _unbroadcast, as_value

__all__ = [
    "EncoderConfig",
    "EncoderState",
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


def _affine_names(cfg: EncoderConfig) -> list[tuple[str, int, int]]:
    """(prefix, fan_in, fan_out) for every affine, in forward order."""
    out: list[tuple[str, int, int]] = []
    prev = cfg.input_dim
    for i, h in enumerate(cfg.hidden_dims):
        out.append((f"trunk.{i}", prev, h))
        prev = h
    if not cfg.identity_projection:
        for i in range(cfg.proj_layers):
            out.append((f"proj.{i}", prev, cfg.embed_dim))
            prev = cfg.embed_dim
    if cfg.predictor:
        out.append(("pred.0", cfg.embed_dim, cfg.embed_dim))
        out.append(("pred.1", cfg.embed_dim, cfg.embed_dim))
    return out


def _bn_sites(cfg: EncoderConfig) -> list[tuple[str, int]]:
    """(prefix, width) for every batchnorm, in forward order."""
    sites: list[tuple[str, int]] = []
    if cfg.proj_batchnorm and not cfg.identity_projection:
        for i in range(cfg.proj_layers - 1):
            sites.append((f"proj.{i}.bn", cfg.embed_dim))
    if cfg.predictor:
        sites.append(("pred.bn", cfg.embed_dim))
    return sites


def init_state(cfg: EncoderConfig, seed: int) -> EncoderState:
    """Fan-in uniform weights, zero biases, unit batchnorm, target = copy."""
    rng = np.random.default_rng(seed)
    params: dict[str, Value] = {}
    for prefix, fi, fo in _affine_names(cfg):
        limit = 1.0 / np.sqrt(fi)
        params[f"{prefix}.W"] = Value(rng.uniform(-limit, limit, size=(fi, fo)))
        params[f"{prefix}.b"] = Value(np.zeros(fo))
    bn_running: dict[str, np.ndarray] = {}
    for prefix, width in _bn_sites(cfg):
        params[f"{prefix}.gamma"] = Value(np.ones((1, width)))
        params[f"{prefix}.beta"] = Value(np.zeros((1, width)))
        bn_running[f"{prefix}.mean"] = np.zeros((1, width))
        bn_running[f"{prefix}.var"] = np.ones((1, width))
    target = None
    target_bn = None
    if cfg.momentum_target:
        target = {
            name: v.data.copy()
            for name, v in params.items()
            if not name.startswith("pred.")
        }
        target_bn = {
            name: a.copy() for name, a in bn_running.items() if not name.startswith("pred.")
        }
    return EncoderState(
        params=params, target=target, bn_running=bn_running, target_bn_running=target_bn
    )


def _constants(params: dict[str, Value], predictor: bool) -> dict[str, Value]:
    """The current values of the predictor's parameters, or of all the
    others, as constants for a forward that records no tape."""
    return {
        name: as_value(v.data)
        for name, v in params.items()
        if name.startswith("pred.") == predictor
    }


def _affine(h: Value, W: Value, b: Value) -> Value:
    """``h @ W + b`` as one tape node.

    Its closure runs the add node's backward and then the matmul node's,
    with the same numpy operations, so the gradients are the chain's bits.
    """

    def bwd(g):
        if not b._const:
            b._accum(_unbroadcast(g, b.shape))
        if not h._const:
            h._accum(g @ W.data.T)
        if not W._const:
            W._accum(h.data.T @ g)

    return _node(h.data @ W.data + b.data, (h, W, b), "affine", bwd)


def _batchnorm_train(
    x: Value, gamma: Value, beta: Value
) -> tuple[Value, np.ndarray, np.ndarray]:
    """Batch-statistics batchnorm as one tape node, with the batch mean and
    population variance for the running statistics.

    Forward and backward replay the primitive chain ``mu = x.mean(0)``,
    ``c = x - mu``, ``var = (c * c).mean(0)``, ``xhat = c / sqrt(var +
    eps)``, ``xhat * gamma + beta`` with the same numpy operations, node
    by node in reverse, so the gradients are the chain's bits.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError("batchnorm in training mode needs a batch of at least 2")
    inv_n = 1.0 / n
    mu = x.data.sum(axis=0, keepdims=True) * inv_n
    c = x.data - mu
    var = (c * c).sum(axis=0, keepdims=True) * inv_n
    sd = np.sqrt(var + BN_EPS)
    xhat = c / sd

    def bwd(g):
        if not beta._const:
            beta._accum(_unbroadcast(g, beta.shape))
        if not gamma._const:
            gamma._accum(_unbroadcast(g * xhat, gamma.shape))
        if x._const:
            return
        g_xhat = g * gamma.data
        g_c = g_xhat / sd
        g_sd = _unbroadcast(-g_xhat * c / (sd * sd), sd.shape)
        g_sq = np.broadcast_to(g_sd / (2.0 * sd) * inv_n, c.shape)
        g_c += g_sq * c  # c * c feeds the variance through both factors
        g_c += g_sq * c
        x._accum(g_c)  # through c, then through mu = sum(x) / n
        g_sum = _unbroadcast(-g_c, mu.shape) * inv_n
        x._accum(np.broadcast_to(g_sum, x.shape))

    out = _node(xhat * gamma.data + beta.data, (x, gamma, beta), "batchnorm", bwd)
    return out, mu, var


def _batchnorm(
    x: Value,
    gamma: Value,
    beta: Value,
    running: dict[str, np.ndarray],
    prefix: str,
    training: bool,
    update_running: bool,
) -> Value:
    if training:
        out, mu, var = _batchnorm_train(x, gamma, beta)
        if update_running:
            running[f"{prefix}.mean"] = (
                (1 - BN_MOMENTUM) * running[f"{prefix}.mean"] + BN_MOMENTUM * mu
            )
            running[f"{prefix}.var"] = (
                (1 - BN_MOMENTUM) * running[f"{prefix}.var"] + BN_MOMENTUM * var
            )
        return out
    mean = running[f"{prefix}.mean"]
    var = running[f"{prefix}.var"]
    xhat = (x - mean) / np.sqrt(var + BN_EPS)
    return xhat * gamma + beta


def forward(
    state: EncoderState,
    cfg: EncoderConfig,
    batch: np.ndarray | Value,
    branch: str = "online",
    training: bool = True,
) -> Value:
    """Embed a batch (N, input_dim) -> (N, embed_dim).

    ``branch='target'`` requires a momentum target or stop-grad target.
    Only ``branch='online'`` with ``training=True`` records a tape; any
    other forward runs on constants and returns a leaf with no parents,
    through which no gradient reaches the parameters or the input.
    """
    x = as_value(batch)  # a raw array enters as a constant
    if x.data.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"expected batch of shape (N, {cfg.input_dim}), got {x.shape}")

    recording = branch == "online" and training
    if branch == "online":
        params = state.params if recording else _constants(state.params, False)
        running = state.bn_running
        update_running = training
    elif branch == "target":
        if not cfg.has_target_branch:
            raise ValueError("this encoder has no target branch")
        if cfg.momentum_target:
            params = {name: as_value(a) for name, a in state.target.items()}
            running = state.target_bn_running
        else:  # stop-grad: the online parameters' values, off the tape
            params = _constants(state.params, False)
            running = state.bn_running
        update_running = False
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if not recording:
        x = as_value(x.data)  # a live input takes no gradient here

    def affine(prefix: str, h: Value) -> Value:
        return _affine(h, params[f"{prefix}.W"], params[f"{prefix}.b"])

    inp = x
    for i in range(len(cfg.hidden_dims)):
        x = affine(f"trunk.{i}", x).relu()

    if not cfg.identity_projection:
        for i in range(cfg.proj_layers):
            x = affine(f"proj.{i}", x)
            if i < cfg.proj_layers - 1:
                if cfg.proj_batchnorm:
                    x = _batchnorm(
                        x,
                        params[f"proj.{i}.bn.gamma"],
                        params[f"proj.{i}.bn.beta"],
                        running,
                        f"proj.{i}.bn",
                        training,
                        update_running,
                    )
                x = x.relu()

    # A net with no layer passes its input through; off the tape, cut it loose.
    return inp.detach() if x is inp and not recording else x


def predictor_forward(
    state: EncoderState, cfg: EncoderConfig, z: Value, training: bool = True
) -> Value:
    """Two-layer head on top of an online embedding, batchnorm + ReLU inside.

    Like ``forward``, records a tape only in training mode; an eval-mode
    output is a constant with the same bits.
    """
    if not cfg.predictor:
        raise RuntimeError("encoder was built without a predictor")
    params = state.params
    if not training:
        params = _constants(params, True)
        z = as_value(z.data)
    h = _affine(z, params["pred.0.W"], params["pred.0.b"])
    h = _batchnorm(
        h,
        params["pred.bn.gamma"],
        params["pred.bn.beta"],
        state.bn_running,
        "pred.bn",
        training,
        update_running=training,
    )
    return _affine(h.relu(), params["pred.1.W"], params["pred.1.b"])


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


def _tensor_map(state: EncoderState, extra_tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for name, v in state.params.items():
        out[f"params.{name}"] = v.data
    if state.target is not None:
        for name, a in state.target.items():
            out[f"target.{name}"] = a
    for name, a in state.bn_running.items():
        out[f"bn.{name}"] = a
    if state.target_bn_running is not None:
        for name, a in state.target_bn_running.items():
            out[f"target_bn.{name}"] = a
    for name, a in extra_tensors.items():
        out[f"extra.{name}"] = a
    return out


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


def _checked_manifest(path, header: dict, body_len: int) -> list[tuple[str, tuple, int]]:
    """The header's tensor list as (name, shape, offset) triples.

    Checks every entry once: unique string names, shapes of non-negative
    ints, non-negative int offsets, every tensor inside the body; and a
    JSON-object ``meta``.  Each failure is a ``ValueError`` naming ``path``.
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
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
            raise malformed(f"tensor {name!r} shape {shape!r} is not a list of non-negative ints")
        if not _is_count(offset):
            raise malformed(f"tensor {name!r} offset {offset!r} is not a non-negative int")
        manifest.append((name, tuple(shape), offset))
        need = max(need, offset + 8 * math.prod(shape))
    if body_len < need:
        raise ValueError(
            f"truncated checkpoint {path}: tensor body has {body_len} bytes, "
            f"the header needs {need}"
        )
    return manifest


def load_checkpoint(path: str | Path):
    """Inverse of ``save_checkpoint``.

    Returns (state, cfg, meta, extra_tensors).
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
    tensors: dict[str, np.ndarray] = {}
    for name, shape, start in manifest:
        a = np.frombuffer(body, dtype="<f8", count=math.prod(shape), offset=start)
        tensors[name] = a.reshape(shape).astype(np.float64)
    params = {
        name[len("params."):]: Value(a)
        for name, a in tensors.items()
        if name.startswith("params.")
    }
    target = {
        name[len("target."):]: a.copy()
        for name, a in tensors.items()
        if name.startswith("target.")
    } or None
    bn = {
        name[len("bn."):]: a.copy() for name, a in tensors.items() if name.startswith("bn.")
    }
    target_bn = {
        name[len("target_bn."):]: a.copy()
        for name, a in tensors.items()
        if name.startswith("target_bn.")
    } or None
    extra = {
        name[len("extra."):]: a.copy()
        for name, a in tensors.items()
        if name.startswith("extra.")
    }
    state = EncoderState(
        params=params, target=target, bn_running=bn, target_bn_running=target_bn
    )
    return state, cfg, header["meta"], extra
