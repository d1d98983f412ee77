"""Optimization loop and multi-seed experiments.

One epoch is: draw the epoch's pairs (or mined triplets) from a
per-epoch seed, walk them in batches, backprop the method loss, take an
Adam step, and EMA-update the momentum target if the method has one.
Any trailing batch smaller than 2 is dropped because batch statistics
are undefined there.

Everything a run produces is reproducible from (method config, dataset,
train config, seed): per-epoch seeds are drawn from one master
generator, the optimizer is plain Adam with optional coupled or
decoupled weight decay, and evaluation embeds in eval mode only.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Value, zero_grads
from .costmodel import CostLedger
from .encoder import forward, init_state, momentum_update
from .geodata import GeoDataset
from .losses import Method
from .methods import MethodConfig, method_batch_loss, strategy_label
from .retrieval import RecallReport, check_recall_settings, evaluate_encoder
from .sampling import build_pairs, mine_triplets

__all__ = [
    "AdamState",
    "adam_init",
    "adam_step",
    "TrainConfig",
    "EpochRecord",
    "RunRecord",
    "TrainResult",
    "ExperimentResult",
    "default_lr",
    "train_epoch",
    "evaluate",
    "run_single",
    "run_experiment",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Per-method base learning rates; contrastive pairs train an order of
# magnitude cooler than the rest.
_METHOD_LR = {
    Method.SIMCLR: 1e-5,
    Method.MOCOV2: 1e-5,
    Method.BYOL: 1e-4,
    Method.SIMSIAM: 1e-4,
    Method.BARLOW_TWINS: 1e-4,
    Method.VICREG: 1e-4,
    Method.TRIPLET: 1e-4,
}


def default_lr(method: Method) -> float:
    return _METHOD_LR[method]


def _flatten(arrays: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """Copy ``arrays`` into one flat buffer in ``names`` order and replace
    each entry by a view of it, shaped as before."""
    flat = np.empty(sum(arrays[n].size for n in names))
    offset = 0
    for n in names:
        a = arrays[n]
        view = flat[offset:offset + a.size].reshape(a.shape)
        view[...] = a
        arrays[n] = view
        offset += a.size
    return flat


@dataclass
class AdamState:
    """Adam's moments and step count, each moment in one flat buffer.

    ``m`` and ``v`` map parameter names to views into the flat buffers,
    laid out in sorted-name order; checkpoints and resume read and build
    them by name.  The first step binds the parameters to two more flat
    buffers of the same layout: each parameter's ``.data`` becomes a view
    into one, and backward writes its gradient into its slice of the
    other.  Two scratch buffers of the same size hold a step's
    temporaries, so a step is a handful of in-place ops over whole
    buffers and allocates no parameter-sized array.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    _names: list[str] = field(init=False, repr=False, compare=False)
    _m: np.ndarray = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)
    # The bound parameters, their flat buffer, the flat gradient and the
    # two scratch buffers.
    _values: list[Value] | None = field(default=None, init=False, repr=False, compare=False)
    _p: np.ndarray = field(init=False, repr=False, compare=False)
    _g: np.ndarray = field(init=False, repr=False, compare=False)
    _scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._names = sorted(self.m)
        if sorted(self.v) != self._names:
            raise ValueError("Adam moments m and v name different parameters")
        self._m = _flatten(self.m, self._names)
        self._v = _flatten(self.v, self._names)

    def _bind(self, values: list[Value]) -> None:
        """Move the parameters' arrays into one flat buffer, and point their
        gradients to come at slices of another."""
        data = {n: p.data for n, p in zip(self._names, values)}
        grads = {n: np.zeros_like(a) for n, a in data.items()}
        self._p = _flatten(data, self._names)
        self._g = _flatten(grads, self._names)
        self._scratch = (np.empty_like(self._g), np.empty_like(self._g))
        for n, p in zip(self._names, values):
            p.data = data[n]
            p._grad_home = grads[n]
        self._values = values

    def _grad(self, params: dict[str, Value]) -> np.ndarray:
        """The flat gradient of ``params``, zero where a parameter has none.

        Binds ``params`` first unless they are the bound parameters.  A
        gradient that backward wrote is in place already; one set by hand
        is copied in.
        """
        values = [params[n] for n in self._names]
        if len(params) != len(values):
            raise ValueError(f"Adam state covers {self._names}, got {sorted(params)}")
        if self._values is None or any(
            a is not b or a.data.base is not self._p for a, b in zip(values, self._values)
        ):
            self._bind(values)
        for p in values:
            if p.grad is not p._grad_home:
                p._grad_home[...] = 0.0 if p.grad is None else p.grad
        return self._g

    def _name_at(self, index: int) -> str:
        """The parameter whose slice of the flat buffers holds ``index``."""
        ends = np.cumsum([self.m[n].size for n in self._names])
        return self._names[int(np.searchsorted(ends, index, side="right"))]


def adam_init(params: dict[str, Value]) -> AdamState:
    return AdamState(
        m={n: np.zeros_like(p.data) for n, p in params.items()},
        v={n: np.zeros_like(p.data) for n, p in params.items()},
    )


def adam_step(
    params: dict[str, Value],
    opt: AdamState,
    lr: float,
    weight_decay: float = 0.0,
    decoupled: bool = False,
) -> None:
    """One Adam update in place; parameters with no gradient get zero.

    Coupled weight decay adds ``wd * p`` to the gradient (the classic
    L2 form); decoupled subtracts ``lr * wd * p`` after the adaptive
    step.  The update runs over the flat buffers with the per-parameter
    expressions' operations in their order, so it has their bits:
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) (g g)`` and
    ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``.  Every temporary is
    written into the optimizer's two scratch buffers.
    """
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1**opt.t
    bc2 = 1.0 - ADAM_BETA2**opt.t
    g = opt._grad(params)  # read only: backward wrote the gradients there
    p, m, v = opt._p, opt._m, opt._v
    s1, s2 = opt._scratch
    if weight_decay and not decoupled:
        g = np.add(g, np.multiply(weight_decay, p, out=s1), out=s1)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=s2)
    sq = np.multiply(g, g, out=s2)
    sq *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += sq
    denom = np.divide(v, bc2, out=s2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = np.divide(m, bc1, out=s1)  # g is spent, decay included
    step *= lr
    step /= denom
    p -= step
    if weight_decay and decoupled:
        p -= np.multiply(lr * weight_decay, p, out=s1)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    queries_per_epoch: int = 256
    lr: float | None = None  # None: per-method default
    weight_decay: float = 1e-6
    decoupled_wd: bool = False
    seed: int = 0
    eval_every: int = 0  # 0: evaluate only after the final epoch
    recall_ns: tuple[int, ...] = (1, 5, 10)
    threshold_m: float = 25.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.queries_per_epoch < 1:
            raise ValueError("queries_per_epoch must be at least 1")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}"
            )
        if self.eval_every < 0:
            raise ValueError("eval_every cannot be negative")
        check_recall_settings(self.recall_ns, self.threshold_m)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    per_term: dict[str, float]
    ledger: dict[str, int]
    recall: RecallReport | None = None


@dataclass
class RunRecord:
    label: str
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    wall_seconds: float = 0.0  # in-memory timing; never written to csv bodies

    @property
    def final_recall(self) -> RecallReport | None:
        for rec in reversed(self.epochs):
            if rec.recall is not None:
                return rec.recall
        return None

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss


@dataclass
class TrainResult:
    record: RunRecord
    state: object  # EncoderState
    adam: AdamState


def _epoch_m_q(ds: GeoDataset, tcfg: TrainConfig, need_negatives: bool) -> int:
    eligible = len(ds.eligible_queries(need_negatives))
    if eligible == 0:
        raise ValueError("no usable queries in the dataset")
    return min(tcfg.queries_per_epoch, eligible)


def _check_finite(loss: float, params: dict[str, Value], adam: AdamState, batch: int) -> None:
    """Raise before a non-finite loss or gradient reaches the parameters.

    One ``isfinite`` over the flat gradient; the parameter is looked up
    only to name it in the error.
    """
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss!r} at batch {batch}")
    finite = np.isfinite(adam._grad(params))
    if not finite.all():
        name = adam._name_at(int(np.argmin(finite)))
        raise FloatingPointError(
            f"non-finite gradient of {name} at batch {batch} (loss {loss!r})"
        )


def train_epoch(
    enc_state,
    adam: AdamState,
    mcfg: MethodConfig,
    ds: GeoDataset,
    tcfg: TrainConfig,
    epoch_seed: int,
    ledger: CostLedger,
) -> tuple[float, dict[str, float]]:
    """One pass over freshly drawn pairs or triplets.

    Returns (mean loss, per-term means), both weighted by batch size.
    Raises ``FloatingPointError`` naming the batch when a loss or a
    parameter gradient is not finite, before the Adam step applies it.
    """
    lr = tcfg.lr if tcfg.lr is not None else default_lr(mcfg.method)
    if mcfg.method is Method.TRIPLET:
        m_q = _epoch_m_q(ds, tcfg, need_negatives=True)

        def embed(feats: np.ndarray) -> np.ndarray:
            return forward(enc_state, mcfg.encoder, feats, training=False).data

        ids = mine_triplets(ds, m_q, mcfg.mining, embed, epoch_seed, ledger)
    else:
        m_q = _epoch_m_q(ds, tcfg, need_negatives=False)
        ids = build_pairs(ds, m_q, mcfg.eta, epoch_seed, ledger)

    total_loss = 0.0
    total_n = 0
    term_sums: dict[str, float] = {}
    for start in range(0, len(ids), tcfg.batch_size):
        batch = ids[start:start + tcfg.batch_size]
        n = len(batch)
        if n < 2:
            continue  # batch statistics are undefined on a single pair
        # The columns as one stack of views: anchors, partners and any negatives.
        out, _ = method_batch_loss(enc_state, mcfg, ds.features(batch.T))
        out.node.backward()
        _check_finite(out.value, enc_state.params, adam, start // tcfg.batch_size)
        adam_step(
            enc_state.params,
            adam,
            lr,
            weight_decay=tcfg.weight_decay,
            decoupled=tcfg.decoupled_wd,
        )
        zero_grads(enc_state.params.values())
        if mcfg.encoder.momentum_target:
            momentum_update(enc_state, mcfg.encoder)
        total_loss += out.value * n
        total_n += n
        for key, val in out.per_term.items():
            term_sums[key] = term_sums.get(key, 0.0) + val * n
    if total_n == 0:
        raise ValueError(
            f"epoch produced no trainable batch: {len(ids)} items at "
            f"batch_size {tcfg.batch_size}"
        )
    return total_loss / total_n, {k: v / total_n for k, v in term_sums.items()}


def evaluate(
    enc_state,
    mcfg: MethodConfig,
    ds: GeoDataset,
    n_values: tuple[int, ...] = (1, 5, 10),
    threshold_m: float = 25.0,
) -> RecallReport:
    """Recall over every dataset query, eval-mode embeddings."""
    return evaluate_encoder(enc_state, mcfg.encoder, ds, n_values, threshold_m)


def run_single(
    mcfg: MethodConfig,
    ds: GeoDataset,
    tcfg: TrainConfig,
    enc_state=None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    ledger: CostLedger | None = None,
) -> TrainResult:
    """Train seed ``tcfg.seed`` end to end; resumable via (enc_state, adam,
    start_epoch, ledger), the ledger holding the counts spent so far."""
    t0 = time.perf_counter()
    if enc_state is None:
        enc_state = init_state(mcfg.encoder, tcfg.seed)
    if adam is None:
        adam = adam_init(enc_state.params)
    ledger = ledger or CostLedger()
    record = RunRecord(label=strategy_label(mcfg), seed=tcfg.seed)
    master = np.random.default_rng(tcfg.seed)
    epoch_seeds = master.integers(0, 2**62, size=start_epoch + tcfg.epochs)
    for epoch in range(start_epoch, start_epoch + tcfg.epochs):
        try:
            loss, terms = train_epoch(
                enc_state, adam, mcfg, ds, tcfg, int(epoch_seeds[epoch]), ledger
            )
        except FloatingPointError as err:
            raise FloatingPointError(f"epoch {epoch}: {err}") from err
        is_last = epoch == start_epoch + tcfg.epochs - 1
        want_eval = is_last or (tcfg.eval_every > 0 and (epoch + 1) % tcfg.eval_every == 0)
        recall = (
            evaluate(enc_state, mcfg, ds, tcfg.recall_ns, tcfg.threshold_m)
            if want_eval
            else None
        )
        record.epochs.append(
            EpochRecord(
                epoch=epoch,
                loss=loss,
                per_term=terms,
                ledger=ledger.snapshot(),
                recall=recall,
            )
        )
    record.wall_seconds = time.perf_counter() - t0
    return TrainResult(record=record, state=enc_state, adam=adam)


@dataclass
class ExperimentResult:
    label: str
    seeds: tuple[int, ...]
    runs: list[RunRecord]
    recall_mean: dict[int, float]
    recall_std: dict[int, float]

    @classmethod
    def from_runs(cls, runs: list[RunRecord]) -> "ExperimentResult":
        """Mean and population std of final recall across runs of one label."""
        finals = [r.final_recall for r in runs]
        if any(f is None for f in finals):
            raise RuntimeError("every run must end with an evaluation")
        recall_mean: dict[int, float] = {}
        recall_std: dict[int, float] = {}
        for n in finals[0].n_values:
            vals = np.array([f.as_dict()[n] for f in finals])
            recall_mean[n] = float(vals.mean())
            recall_std[n] = float(vals.std())  # population std across seeds
        return cls(
            label=runs[0].label,
            seeds=tuple(r.seed for r in runs),
            runs=runs,
            recall_mean=recall_mean,
            recall_std=recall_std,
        )

    def summary_line(self) -> str:
        parts = [
            f"R@{n}={self.recall_mean[n]:.3f}+/-{self.recall_std[n]:.3f}"
            for n in sorted(self.recall_mean)
        ]
        return f"{self.label}: " + " ".join(parts)


def run_experiment(
    mcfg: MethodConfig, ds: GeoDataset, tcfg: TrainConfig, n_seeds: int = 3,
    resume: tuple | None = None,
) -> Iterator[TrainResult]:
    """Train seeds ``tcfg.seed .. tcfg.seed + n_seeds - 1`` in order, yielding
    each seed's result once it is trained; ``resume`` is the (enc_state,
    adam, start_epoch, ledger) that a single seed continues from.  A diverged seed
    raises ``FloatingPointError`` naming its label and seed."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    if resume is not None and n_seeds != 1:
        raise ValueError("resume applies to a single seed; set n_seeds to 1")
    for seed in range(tcfg.seed, tcfg.seed + n_seeds):
        try:
            yield run_single(mcfg, ds, replace(tcfg, seed=seed), *resume or ())
        except FloatingPointError as err:
            raise FloatingPointError(f"{strategy_label(mcfg)} seed {seed}: {err}") from err
