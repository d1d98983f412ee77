"""Smoke self-test of the benchmark at tiny sizes; runs in a few seconds.

    python3 benchmarks/selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit
for each workload, untraced and traced; that each workload's per-layer
metrics move on the layers it runs and read 0 on some it does not; that
count metrics repeat exactly between two traced runs at one seed; and
that tampered outputs trip the gate: a permuted knn row on eval_large and
a NaN loss on collapse_train.
Exits non-zero on the first failed check.
"""

import math
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import vgssl.retrieval  # noqa: E402
import vgssl.trainer  # noqa: E402
from spans import Patches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3

# Per-layer metrics each workload must move, and ones it must leave at 0.
REACHES = {
    "collapse_train": ["geodata.radius_ms", "geodata.csv_save_ms", "geodata.csv_load_ms",
                       "sampling.pairs", "costmodel.extractions", "trainer.adam_ms",
                       "encoder.ema_ms", "encoder.checkpoint_bytes", "autodiff.tape_nodes",
                       "retrieval.knn_temp_bytes", "cli.train_self_ms"],
    "eval_large": ["geodata.csv_save_ms", "geodata.distance_calls",
                   "encoder.forward_eval_rows", "encoder.checkpoint_load_ms",
                   "retrieval.knn_ms", "retrieval.recall_self_ms"],
}
UNTOUCHED = {
    "collapse_train": ["encoder.checkpoint_load_ms"],
    "eval_large": ["autodiff.backward_ms", "trainer.steps", "sampling.pairs"],
}


def tiny_run(name: str, trace: bool, work) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result, _ = run.bench(name, SEED, 0.0, trace, work, tiny=True)
    return result


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def emits_declared(result: dict, section: str) -> bool:
    declared = run.declared_units(section)
    got = result["metrics"]
    return set(got) == set(declared) and all(
        got[k]["unit"] == unit and isinstance(got[k]["value"], float)
        and math.isfinite(got[k]["value"])
        for k, unit in declared.items()
    )


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if "ms" not in m["unit"] and m["unit"] != "%"}


def main() -> int:
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for name in WORKLOADS:
            plain = tiny_run(name, False, work)
            check(plain["correct"] and plain["attempted"] > 0, f"{name}: outputs pass the gate")
            check(emits_declared(plain, "end_to_end"), f"{name}: every end-to-end metric, with unit")
            traced = tiny_run(name, True, work)
            check(traced["correct"], f"{name}: traced outputs pass the gate")
            check(emits_declared(traced, "per_layer"), f"{name}: every per-layer metric, with unit")
            values = {k: m["value"] for k, m in traced["metrics"].items()}
            check(all(values[k] > 0 for k in REACHES[name])
                  and all(values[k] == 0 for k in UNTOUCHED[name]),
                  f"{name}: per-layer metrics move on the layers it runs")
            again = tiny_run(name, True, work)
            check(counts(traced) == counts(again), f"{name}: count metrics repeat exactly")

        knn = vgssl.retrieval.knn

        def permuted_knn(*args, **kwargs):
            ids, dists = knn(*args, **kwargs)
            ids = ids.copy()
            ids[0] = ids[0][::-1]
            return ids, dists

        with Patches() as p:
            p.set(vgssl.retrieval, "knn", permuted_knn)
            result = tiny_run("eval_large", False, work)
        check(not result["correct"] and result["failed"] == result["attempted"],
              "eval_large: a permuted knn row fails every op")

        epoch = vgssl.trainer.train_epoch

        def nan_epoch(*args):
            _, terms = epoch(*args)
            return math.nan, terms

        with Patches() as p:
            p.set(vgssl.trainer, "train_epoch", nan_epoch)
            result = tiny_run("collapse_train", False, work)
        check(not result["correct"] and result["failed"] >= result["attempted"],
              "collapse_train: a NaN loss fails every op")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
