"""Bookkeeping and closed-form prediction of mining cost.

Three counters describe what a sampling strategy spends per epoch:

* ``extractions``  -- forward passes run to produce embeddings,
* ``comparisons``  -- embedding-distance evaluations during matching,
* ``peak_cached``  -- the largest number of embeddings held at once.

Pair-only sampling never compares embeddings (partners come from the
geometry), full mining embeds the entire database and compares every
query against all of its eligible negatives, and partial mining restricts
matching to a fixed-size candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostLedger", "predict_cost", "assert_ledger"]


@dataclass
class CostLedger:
    extractions: int = 0
    comparisons: int = 0
    peak_cached: int = 0

    def add_extractions(self, n: int) -> None:
        if n < 0:
            raise ValueError("extraction count cannot be negative")
        self.extractions += n

    def add_comparisons(self, n: int) -> None:
        if n < 0:
            raise ValueError("comparison count cannot be negative")
        self.comparisons += n

    def note_cached(self, n: int) -> None:
        if n < 0:
            raise ValueError("cache size cannot be negative")
        self.peak_cached = max(self.peak_cached, n)

    def snapshot(self) -> dict[str, int]:
        return {
            "extractions": self.extractions,
            "comparisons": self.comparisons,
            "peak_cached": self.peak_cached,
        }


_MODES = ("pair_only", "full_hnm", "partial_hnm", "random")


def predict_cost(
    mode: str,
    n_q: int,
    n_k: int = 0,
    n_kp: int = 0,
    n_kn: int = 0,
    pool: int = 0,
) -> CostLedger:
    """Closed-form per-epoch cost for one sampling strategy.

    ``n_q`` queries are mined against a database of ``n_k`` samples, of
    which ``n_kn`` are eligible negatives per query (pass the average if
    it varies) and ``n_kp`` positive partners are extracted.  ``pool`` is
    the partial candidate-pool size.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mining mode {mode!r}; expected one of {_MODES}")
    if min(n_q, n_k, n_kp, n_kn, pool) < 0:
        raise ValueError("cost inputs cannot be negative")
    led = CostLedger()
    if n_q == 0:
        return led
    if mode == "pair_only":
        led.extractions = n_q + n_kp
        led.comparisons = 0
        led.peak_cached = n_q + n_kp
    elif mode == "full_hnm":
        led.extractions = n_q + n_k
        led.comparisons = n_q * n_kn if n_kn else n_q * n_k
        led.peak_cached = n_q + n_k
    elif mode == "partial_hnm":
        if pool <= 0:
            raise ValueError("partial_hnm requires a positive pool size")
        led.extractions = n_q + pool + n_kp
        led.comparisons = n_q * pool
        led.peak_cached = n_q + pool + n_kp
    else:  # random: no mining work at all
        led.extractions = 0
        led.comparisons = 0
        led.peak_cached = 0
    return led


def assert_ledger(
    measured: CostLedger, predicted: CostLedger, slack: float = 0.05
) -> tuple[bool, dict[str, float]]:
    """Check each measured counter against prediction within relative slack.

    Returns (ok, deltas) where deltas maps counter name to the signed
    relative error (measured - predicted) / max(predicted, 1).  ``slack``
    must be finite and not negative; 0 asks for an exact match.
    """
    if not 0.0 <= slack < float("inf"):
        raise ValueError(f"slack must be finite and not negative, got {slack!r}")
    deltas: dict[str, float] = {}
    ok = True
    for name in ("extractions", "comparisons", "peak_cached"):
        m = getattr(measured, name)
        p = getattr(predicted, name)
        rel = (m - p) / max(p, 1)
        deltas[name] = rel
        if abs(rel) > slack:
            ok = False
    return ok, deltas
