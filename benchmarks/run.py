"""Benchmark for vgssl: two workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload collapse_train --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` replays the first rounds
under boundary tracing and reports the per-layer metrics instead.  The
exit code is 0 only when every output passed its check.  See README.md
in this directory.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: the load
# model is one closed-loop client on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VGSSL_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Measure past --seconds until the workload's ``min_rounds`` ran, so that
# every op has that many repeats, but never past this multiple of it.
OVERRUN_CAP = 1.5


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def near_best(samples: list[float], rounds: int) -> list[float]:
    """Each op's 2.5th-percentile time over the rounds.

    Every round repeats the same ops in the same order, so sample ``i`` of
    one round is the same work as sample ``i`` of any other.  The speed of
    the shared host swings by tens of percent within seconds, and by as
    much between minutes; the fast end of many repeats of the same work is
    the program's own cost with those swings taken out.  Up to 40 repeats
    that is the fastest; past 40, the 2.5th percentile lets the few
    fastest repeats of a long run, which catch the host's rare fastest
    moments, fall out.
    """
    n = len(samples) // rounds
    return [percentile(samples[i::n], 2.5) for i in range(n)]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(),
    }


def timed_setup(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def measure(workload, seconds: float):
    """The timed phase: whole rounds until ``seconds`` have passed and
    ``min_rounds`` ran, or until ``OVERRUN_CAP`` times ``seconds``.

    Set-up runs once before the first op and again between rounds at even
    intervals, ``setup_repeats`` times in all, so that its median samples
    the same stretch of machine time as the ops; when a round is longer
    than the interval, the set-ups it owes run back to back after it.  The
    repeated set-ups are left out of the phase's wall time.

    Returns (per-op ms, per-segment ms, rounds, wall seconds, seconds of
    each set-up).
    """
    setups = [timed_setup(workload)]
    workload.prepare()
    spacing = seconds / workload.setup_repeats
    min_rounds = workload.size["min_rounds"]
    op_ms: list[float] = []
    seg_ms: list[float] = []
    rounds = 0
    start = perf_counter()
    while True:
        workload.run_round(rounds, op_ms, seg_ms)
        rounds += 1
        wall = perf_counter() - start - sum(setups[1:])
        if wall >= seconds and (rounds >= min_rounds or wall >= OVERRUN_CAP * seconds):
            return op_ms, seg_ms, rounds, wall, setups
        while len(setups) < workload.setup_repeats and wall >= spacing * len(setups):
            setups.append(timed_setup(workload))


def bench(name: str, seed: int, seconds: float, trace: bool, work: Path,
          tiny: bool = False, spans_out: Path | None = None) -> tuple[dict, dict]:
    """One run; returns (result line, log record)."""
    # Imported here: both import vgssl, which main() puts on sys.path.
    from spans import Patches, Tracer, layer_metrics
    from workloads import WORKLOADS, Gate

    gate = Gate()
    workload = WORKLOADS[name](seed, work, gate, tiny=tiny)
    op_ms, seg_ms, rounds, wall, setup_times = measure(workload, seconds)
    log = {"setup_s_each": setup_times, "rounds": rounds, "op_samples": len(op_ms),
           # What the timed phase saw, host drift included.
           "wall_ops_per_s": len(op_ms) / wall,
           "wall_op_ms.p50": percentile(op_ms, 50),
           "wall_op_ms.p90": percentile(op_ms, 90)}

    if not trace:
        fast_op = near_best(op_ms, rounds)
        fast_seg = near_best(seg_ms, rounds)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(fast_op) / (sum(fast_seg) / 1e3),
            "op_ms.p50": percentile(fast_op, 50),
            "op_ms.p90": percentile(fast_op, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = declared_units("end_to_end")
    else:
        # Replay the first rounds untraced, then set-up and the same rounds
        # under tracing; the two back-to-back replays give the overhead.
        n = workload.trace_rounds
        plain: list[float] = []
        for r in range(n):
            workload.run_round(r, plain, [])
        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            workload.setup()
            first_op_span = len(tracer.spans)
            tracer.distance_calls = 0
            traced: list[float] = []
            for r in range(n):
                workload.run_round(r, traced, [])
        metrics = layer_metrics(tracer.spans, first_op_span, len(traced),
                                tracer.distance_calls)
        metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
        units = declared_units("per_layer")
        log.update(traced_ops=len(traced), spans=len(tracer.spans))
        if spans_out is not None:
            tracer.write(spans_out)

    log.update(workload.finish())
    log["error_rate"] = gate.failed / max(gate.attempted, 1)
    log["failures"] = gate.messages
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("collapse_train", "eval_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vgssl" / "__init__.py").is_file():
        print(f"error: no vgssl sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result, log = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                            work, spans_out=spans_out if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env))
    for key, m in result["metrics"].items():
        print(f"{key:34s} {m['value']:14.6g} {m['unit']}")
    print("log " + json.dumps(log))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
