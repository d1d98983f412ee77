"""Boundary tracing: spans around vgssl's layer entry points.

Nothing here instruments the program from inside.  ``Patches`` rebinds a
function at the module (or class) attributes its callers look it up
through, and ``Tracer`` wraps each entry point so that a call records a
span: name, parent span, trace id, start, end and a small attribute.
A span opened while no other span is open starts a new trace, so every
span of one top-level call (one op) shares its trace id.  Spans stay in
memory until ``write`` dumps them.

A span's self time is its duration minus the part covered by its child
spans.  Calls are single-threaded and nested, so children never overlap
and the covered part is the sum of their durations.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import vgssl.cli
import vgssl.encoder
import vgssl.geodata
import vgssl.losses
import vgssl.methods
import vgssl.retrieval
import vgssl.sampling
import vgssl.trainer
from vgssl.autodiff import Value

MODULES = (
    vgssl.cli,
    vgssl.encoder,
    vgssl.geodata,
    vgssl.losses,
    vgssl.methods,
    vgssl.retrieval,
    vgssl.sampling,
    vgssl.trainer,
)

# Span record fields, in order.
NAME, PARENT, TRACE, START, END, ATTR = range(6)


class Patches:
    """Attribute rebindings that are undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, fn, replacement) -> int:
        """Replace ``fn`` wherever a vgssl module holds it; return the count."""
        hits = 0
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _forward_attr(training_pos: int):
    """(training flag, rows embedded) of an encoder forward call."""

    def attr(args, kwargs, out):
        training = kwargs.get("training", args[training_pos]
                              if len(args) > training_pos else True)
        return (bool(training), int(out.data.shape[0]))

    return attr


def _knn_attr(args, kwargs, out):
    index, queries = args[0], args[1]
    # The (Q, M, D) float64 difference tensor knn materialises, computed
    # from the shapes rather than measured.
    return len(queries) * index.size * index.dim * 8


def _ledger_before(args, kwargs):
    ledger = args[6] if len(args) > 6 else kwargs["ledger"]
    return ledger, ledger.extractions, ledger.comparisons


def _ledger_delta(before, out):
    ledger, ext, cmp = before
    return (ledger.extractions - ext, ledger.comparisons - cmp)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._traces = 0
        self.distance_calls = 0

    def wrap(self, name: str, fn, attr=None, before=None, after=None):
        """``fn`` with a span; ``attr(args, kwargs, out)`` or
        ``after(before(args, kwargs), out)`` fills the span attribute."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if open_:
                parent = open_[-1]
                trace = spans[parent][TRACE]
            else:
                parent = -1
                self._traces += 1
                trace = self._traces
            ctx = before(args, kwargs) if before else None
            rec = [name, parent, trace, perf_counter(), 0.0, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                open_.pop()
            if attr is not None:
                rec[ATTR] = attr(args, kwargs, out)
            elif after is not None:
                rec[ATTR] = after(ctx, out)
            return out

        return traced

    def install(self, patches: Patches) -> None:
        """Rebind every layer entry point the per-layer metrics read."""
        geo, enc, trn = vgssl.geodata, vgssl.encoder, vgssl.trainer

        def span(fn, name, **hooks):
            if patches.rebind(fn, self.wrap(name, fn, **hooks)) == 0:
                raise RuntimeError(f"no caller looks up {fn.__qualname__}")

        span(geo.save_csv, "geodata.csv_save")
        span(geo.load_csv, "geodata.csv_load")
        span(vgssl.sampling.build_pairs, "sampling.build_pairs",
             attr=lambda a, k, out: len(out))
        span(vgssl.sampling.mine_triplets, "sampling.mine_triplets")
        span(trn.train_epoch, "trainer.epoch", before=_ledger_before, after=_ledger_delta)
        span(trn.adam_step, "trainer.adam")
        span(trn.evaluate, "trainer.evaluate")
        span(trn.run_single, "trainer.run_single")
        span(vgssl.methods.method_batch_loss, "methods.batch_loss")
        span(enc.forward, "encoder.forward", attr=_forward_attr(4))
        span(enc.predictor_forward, "encoder.forward", attr=_forward_attr(3))
        span(enc.momentum_update, "encoder.ema")
        span(enc.save_checkpoint, "encoder.checkpoint_save",
             attr=lambda a, k, out: os.path.getsize(a[0]))
        span(enc.load_checkpoint, "encoder.checkpoint_load")
        span(vgssl.losses.compute_loss, "losses.compute")
        span(vgssl.retrieval.build_index, "retrieval.build_index")
        span(vgssl.retrieval.knn, "retrieval.knn", attr=_knn_attr)
        span(vgssl.retrieval.recall_at_n, "retrieval.recall")
        span(vgssl.cli.main, "cli.main")
        span(vgssl.cli.cmd_train, "cli.train")

        for method in ("positive_set", "negative_set"):
            fn = getattr(geo.GeoDataset, method)
            patches.set(geo.GeoDataset, method, self.wrap("geodata.radius", fn))
        patches.set(Value, "backward", self.wrap("autodiff.backward", Value.backward))

        topo = Value._topo
        spans, open_ = self.spans, self._open

        def counted_topo(node):
            order = topo(node)
            if open_ and spans[open_[-1]][NAME] == "autodiff.backward":
                spans[open_[-1]][ATTR] = len(order)
            return order

        patches.set(Value, "_topo", counted_topo)

        distance = geo.distance_m

        def counted_distance(p, q):
            self.distance_calls += 1
            return distance(p, q)

        patches.rebind(distance, counted_distance)

    def write(self, path) -> None:
        """One JSON array per span: name, parent, trace, start_s, end_s, attr."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "trace", "start_s",
                                            "end_s", "attr"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[list], first_op_span: int, ops: int,
                  distance_calls: int) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Spans from ``first_op_span`` on belong to the ``ops`` timed ops and
    give the per-op figures; per-call figures (CSV and checkpoint round
    trips, tape size) average over every call, set-up included.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    total = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    eval_rows = 0
    ledger = [0, 0]
    pairs = 0
    for i in range(first_op_span, len(spans)):
        rec = spans[i]
        name, dur = rec[NAME], rec[END] - rec[START]
        if rec[ATTR] is None:
            pass  # the call raised, or its span carries no attribute
        elif name == "encoder.forward":
            training, rows = rec[ATTR]
            name = "encoder.forward_train" if training else "encoder.forward_eval"
            if not training:
                eval_rows += rows
        elif name == "trainer.epoch":
            ledger[0] += rec[ATTR][0]
            ledger[1] += rec[ATTR][1]
        elif name == "sampling.build_pairs":
            pairs += rec[ATTR]
        total[name] += dur
        self_[name] += dur - child[i]
        calls[name] += 1

    def per_call(name, of_attr=False):
        """Mean duration in ms, or mean attribute, over every call of ``name``."""
        recs = [r for r in spans if r[NAME] == name]
        if of_attr:
            vals = [r[ATTR] for r in recs if r[ATTR] is not None]
        else:
            vals = [1e3 * (r[END] - r[START]) for r in recs]
        return float(sum(vals) / len(vals)) if vals else 0.0

    def max_attr(name):
        return float(max((r[ATTR] for r in spans
                          if r[NAME] == name and r[ATTR] is not None), default=0))

    ms = 1e3 / ops
    return {
        "geodata.radius_ms": total["geodata.radius"] * ms,
        "geodata.radius_calls": calls["geodata.radius"] / ops,
        "geodata.distance_calls": distance_calls / ops,
        "geodata.csv_save_ms": per_call("geodata.csv_save"),
        "geodata.csv_load_ms": per_call("geodata.csv_load"),
        "sampling.build_pairs_self_ms": self_["sampling.build_pairs"] * ms,
        "sampling.mine_triplets_self_ms": self_["sampling.mine_triplets"] * ms,
        "sampling.pairs": pairs / ops,
        "costmodel.extractions": ledger[0] / ops,
        "costmodel.comparisons": ledger[1] / ops,
        "trainer.epoch_self_ms": self_["trainer.epoch"] * ms,
        "trainer.adam_ms": total["trainer.adam"] * ms,
        "trainer.steps": calls["trainer.adam"] / ops,
        "trainer.evaluate_self_ms": self_["trainer.evaluate"] * ms,
        "methods.batch_loss_self_ms": self_["methods.batch_loss"] * ms,
        "encoder.forward_train_ms": total["encoder.forward_train"] * ms,
        "encoder.forward_eval_ms": total["encoder.forward_eval"] * ms,
        "encoder.forward_eval_rows": eval_rows / ops,
        "encoder.ema_ms": total["encoder.ema"] * ms,
        "encoder.checkpoint_save_ms": per_call("encoder.checkpoint_save"),
        "encoder.checkpoint_bytes": per_call("encoder.checkpoint_save", of_attr=True),
        "encoder.checkpoint_load_ms": per_call("encoder.checkpoint_load"),
        "losses.compute_self_ms": self_["losses.compute"] * ms,
        "autodiff.backward_ms": total["autodiff.backward"] * ms,
        "autodiff.tape_nodes": per_call("autodiff.backward", of_attr=True),
        "retrieval.build_index_self_ms": self_["retrieval.build_index"] * ms,
        "retrieval.knn_ms": total["retrieval.knn"] * ms,
        "retrieval.knn_temp_bytes": max_attr("retrieval.knn"),
        "retrieval.recall_self_ms": self_["retrieval.recall"] * ms,
        "cli.train_self_ms": self_["cli.train"] * ms,
    }
