"""The benchmark workloads: set-up, one round of ops, output gates.

Each workload derives every input (world seeds, init seeds) from the
workload seed, so the program sees only generated inputs.  A round is a
fixed list of ops; the timed phase runs whole rounds, so every run times
the same mix.  Every op's output is checked against a reference the
benchmark computes itself, and each failed check is counted by ``Gate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import vgssl.cli
import vgssl.encoder
import vgssl.geodata
import vgssl.retrieval
import vgssl.trainer
from vgssl.costmodel import CostLedger, assert_ledger, predict_cost
from vgssl.losses import Method
from vgssl.methods import method_config

from spans import Patches

# Criterion 5's relative slack on the mining ledger.
COST_SLACK = 0.05


class Gate:
    """Counts ops attempted and outputs that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        self.check(ok, what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


class Workload:
    """Interface of a workload; ``run_round(r, op_ms, seg_ms)`` appends the
    wall time of each op, and the wall time of its calls into vgssl cut
    into segments at op boundaries, and reports each op's output to the
    gate.  Every round runs the same ops and calls in the same order, so
    it appends the same number of each."""

    name: str
    setup_repeats: int  # set-ups per run, spread over it; setup_s is their median
    trace_rounds: int  # rounds replayed under tracing

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first op, e.g. references."""

    def run_round(self, r: int, op_ms: list[float], seg_ms: list[float]) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Run-level checks after the last op; returns figures for the log."""
        return {}


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


class CollapseTrain(Workload):
    """Criterion 7's world and training config, one CLI ``train`` per cell.

    An op is one epoch, timed around ``vgssl.trainer.train_epoch``; the
    segments of a ``vgssl train`` run are its epochs and the stretches
    before, between and after them.
    """

    name = "collapse_train"
    CELLS = (  # (cell, method, eta); pair cells first, triplet last
        ("simsiam-eta0", "simsiam", 0.0),
        ("simsiam-eta1", "simsiam", 1.0),
        ("bt-eta0", "barlow_twins", 0.0),
        ("bt-eta1", "barlow_twins", 1.0),
        ("byol-eta1", "byol", 1.0),
        ("triplet-full", "triplet", 0.0),
    )
    FULL = dict(n_places=30, db_per_place=8, epochs=20, queries_per_epoch=10,
                batch_size=20, min_rounds=10)
    TINY = dict(n_places=6, db_per_place=3, epochs=2, queries_per_epoch=3,
                batch_size=4, min_rounds=1)
    setup_repeats = 45
    trace_rounds = 2

    def __init__(self, seed: int, work: Path, gate: Gate, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.work = work
        self.gate = gate
        self.world_seed, *self.cell_seeds = _seeds(seed, 1 + len(self.CELLS))
        self.rerun_cell = seed % len(self.CELLS)
        self.reference: dict[str, bytes] = {}
        self.final_r1: dict[str, float] = {}

    def setup(self) -> None:
        s = self.size
        ds = vgssl.geodata.synth_dataset(
            seed=self.world_seed, n_places=s["n_places"], db_per_place=s["db_per_place"],
            feature_dim=32, view_noise=1.75,
        )
        csv_path = self.work / "world.csv"
        vgssl.geodata.save_csv(ds, csv_path)
        self.n_db = len(ds.database)
        self.n_queries = len(ds.queries)
        self.configs = []
        for (cell, method, eta), train_seed in zip(self.CELLS, self.cell_seeds):
            cfg = {
                "dataset": str(csv_path), "method": method, "eta": eta,
                "proj_layers": 2, "embed_dim": 64, "epochs": s["epochs"],
                "batch_size": s["batch_size"],
                "queries_per_epoch": s["queries_per_epoch"], "lr": 3e-3,
                "seed": train_seed,
            }
            if method == "triplet":
                cfg["mining"] = {"mode": "full_hnm"}
            path = self.work / f"{cell}.json"
            path.write_text(json.dumps(cfg))
            self.configs.append((cell, method, eta, path))

    def _expected(self, method: str, eta: float) -> CostLedger:
        m_q = min(self.size["queries_per_epoch"], self.n_queries)
        if method == "triplet":
            per_place = self.size["db_per_place"]
            return predict_cost("full_hnm", m_q, n_k=self.n_db, n_kn=self.n_db - per_place)
        n_pairs = m_q + int(round(eta * m_q))
        return predict_cost("pair_only", n_pairs, n_kp=n_pairs)

    def _train(self, cell: str, method: str, eta: float, cfg: Path, op_ms: list[float],
               seg_ms: list[float], out: Path) -> bytes:
        """One ``vgssl train`` run; returns its epochs.csv bytes."""
        expected = self._expected(method, eta)
        orig = vgssl.trainer.train_epoch
        gate = self.gate
        marks: list[float] = []

        def timed_epoch(*args):
            ledger = args[6]
            before = ledger.extractions, ledger.comparisons
            t0 = perf_counter()
            loss, terms = orig(*args)
            t1 = perf_counter()
            op_ms.append((t1 - t0) * 1e3)
            marks.extend((t0, t1))
            finite = math.isfinite(loss) and all(math.isfinite(v) for v in terms.values())
            delta = CostLedger(ledger.extractions - before[0],
                               ledger.comparisons - before[1], ledger.peak_cached)
            if method == "triplet":
                cost_ok, _ = assert_ledger(delta, expected, slack=COST_SLACK)
            else:
                cost_ok = delta == expected
            gate.op(finite and cost_ok,
                    f"{cell}: loss={loss!r} ledger={delta} expected={expected}")
            return loss, terms

        with Patches() as p, contextlib.redirect_stdout(io.StringIO()):
            p.set(vgssl.trainer, "train_epoch", timed_epoch)
            start = perf_counter()
            try:
                rc = vgssl.cli.main(["train", "--config", str(cfg), "--out", str(out)])
            except Exception as exc:  # a crashing run is a failed check, not a crash
                rc = repr(exc)
            bounds = [start, *marks, perf_counter()]
        seg_ms.extend((b - a) * 1e3 for a, b in zip(bounds, bounds[1:]))
        found = sorted(out.glob("*/epochs.csv"))
        self.gate.check(rc == 0 and len(found) == 1, f"{cell}: vgssl train exited {rc}")
        return found[0].read_bytes() if found else b""

    def run_round(self, r: int, op_ms: list[float], seg_ms: list[float]) -> None:
        for cell, method, eta, cfg in self.configs:
            body = self._train(cell, method, eta, cfg, op_ms, seg_ms, self.work / cell)
            if cell not in self.reference:
                self.reference[cell] = body
                self._check_first(cell, body)
            else:
                self.gate.check(body == self.reference[cell],
                                f"{cell}: rerun changed epochs.csv")

    def _check_first(self, cell: str, body: bytes) -> None:
        lines = body.decode().splitlines() or [""]
        header, last = lines[0].split(","), lines[-1].split(",")
        ok = len(lines) == 1 + self.size["epochs"] and "recall_at_1" in header
        r1 = float(last[header.index("recall_at_1")]) if ok else math.nan
        self.gate.check(ok and 0.0 <= r1 <= 1.0, f"{cell}: bad epochs.csv")
        self.final_r1[cell] = r1

    def finish(self) -> dict:
        cell, method, eta, cfg = self.configs[self.rerun_cell]
        body = self._train(cell, method, eta, cfg, [], [], self.work / "rerun")
        self.gate.check(body == self.reference[cell],
                        f"{cell}: rerun into a fresh directory changed epochs.csv")
        return {"recall_at_1": float(np.mean(list(self.final_r1.values())))}


def _oracle_knn(vectors: np.ndarray, ids: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Brute force on one query: direct differences, ties to the smaller id."""
    dists = np.linalg.norm(vectors - q, axis=1)
    return ids[np.lexsort((ids, dists))[:k]]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class EvalLarge(Workload):
    """``trainer.evaluate`` of a seed-initialised encoder on a 5000-row database.

    Set-up round-trips the world through CSV and the encoder through a
    checkpoint; an op is one ``evaluate`` call.
    """

    name = "eval_large"
    FULL = dict(n_places=100, db_per_place=50, min_rounds=10)
    TINY = dict(n_places=10, db_per_place=4, min_rounds=1)
    N_VALUES = (1, 5, 10)
    THRESHOLD_M = 25.0
    setup_repeats = 9
    trace_rounds = 5

    def __init__(self, seed: int, work: Path, gate: Gate, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.work = work
        self.gate = gate
        self.world_seed, self.init_seed = _seeds(seed, 2)

    def setup(self) -> None:
        s = self.size
        ds = vgssl.geodata.synth_dataset(
            seed=self.world_seed, n_places=s["n_places"], db_per_place=s["db_per_place"],
            feature_dim=32,
        )
        csv_path = self.work / "world.csv"
        vgssl.geodata.save_csv(ds, csv_path)
        self.ds = vgssl.geodata.load_csv(csv_path)
        self.mcfg = method_config(Method.SIMCLR, input_dim=32, embed_dim=64,
                                  proj_layers=1, eta=1.0)
        state = vgssl.encoder.init_state(self.mcfg.encoder, self.init_seed)
        ckpt = self.work / "encoder.ckpt"
        vgssl.encoder.save_checkpoint(ckpt, state, self.mcfg.encoder)
        self.state, enc_cfg, _, _ = vgssl.encoder.load_checkpoint(ckpt)
        ok = enc_cfg == self.mcfg.encoder and all(
            np.array_equal(v.data, self.state.params[n].data) for n, v in state.params.items()
        ) and all(
            a.id == b.id and a.position == b.position
            and np.array_equal(a.features, b.features)
            for a, b in zip(ds.database + ds.queries, self.ds.database + self.ds.queries)
        )
        self.gate.check(ok, "CSV or checkpoint round trip changed its input")

    def prepare(self) -> None:
        """Brute-force reference for every query, computed once."""
        db = sorted(self.ds.database, key=lambda s: s.id)
        queries = sorted(self.ds.queries, key=lambda s: s.id)
        enc = self.mcfg.encoder

        def embed(samples):
            feats = np.stack([s.features for s in samples])
            return vgssl.encoder.forward(self.state, enc, feats, training=False).data

        vectors, q_emb = _unit_rows(embed(db)), _unit_rows(embed(queries))
        ids = np.array([s.id for s in db], dtype=np.int64)
        k = min(max(self.N_VALUES), len(db))
        self.oracle_ids = np.stack([_oracle_knn(vectors, ids, q, k) for q in q_emb])
        pos = {s.id: (s.position.a, s.position.b) for s in db}
        hits = np.array([
            [math.hypot(pos[int(i)][0] - q.position.a, pos[int(i)][1] - q.position.b)
             <= self.THRESHOLD_M for i in row]
            for q, row in zip(queries, self.oracle_ids)
        ])
        any_hit = np.cumsum(hits, axis=1) > 0
        self.oracle_recalls = tuple(
            int(any_hit[:, min(n, k) - 1].sum()) / len(queries) for n in self.N_VALUES
        )

    def run_round(self, r: int, op_ms: list[float], seg_ms: list[float]) -> None:
        orig = vgssl.retrieval.knn
        seen = []

        def captured_knn(*args, **kwargs):
            out = orig(*args, **kwargs)
            seen.append(out[0])
            return out

        with Patches() as p:
            p.set(vgssl.retrieval, "knn", captured_knn)
            t0 = perf_counter()
            try:
                report = vgssl.trainer.evaluate(self.state, self.mcfg, self.ds,
                                                self.N_VALUES, self.THRESHOLD_M)
            except Exception as exc:  # a raising op is a failed op, not a crash
                report = exc
            op_ms.append((perf_counter() - t0) * 1e3)
        seg_ms.append(op_ms[-1])
        ok = (len(seen) == 1 and np.array_equal(seen[0], self.oracle_ids)
              and getattr(report, "recalls", None) == self.oracle_recalls)
        self.gate.op(ok, f"evaluate gave {report!r}, oracle recall {self.oracle_recalls}")

    def finish(self) -> dict:
        return {"recall_at_1": self.oracle_recalls[0]}


WORKLOADS = {w.name: w for w in (CollapseTrain, EvalLarge)}
