"""Byte identity of every CLI output, pinned by SHA-256.

Runs ``vgssl synth``, ``train``, ``eval`` and ``bench-mining`` on small
fixed configs and compares each output file's digest with
``tests/digests.json``.  A change that keeps behaviour keeps every digest;
one that changes an output bit fails here, naming the output.  The
results of ``gradcheck_method`` for seeds 0-1 of every method are pinned
the same way, as one digest over their reprs.

The bits depend on numpy and its BLAS, so both are stored next to the
digests and a different environment fails with a message that names the
difference.  Re-pinning is deliberate: run this file as a script to print
the current digests as JSON, and log the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from vgssl.cli import main
from vgssl.gradcheck import ALL_METHODS, gradcheck_method

PINNED = Path(__file__).with_name("digests.json")

# Criterion 7's world, with annulus samples that are neither positive nor
# negative for their place's query.
WORLD = {"seed": 0, "n_places": 30, "db_per_place": 8, "feature_dim": 32,
         "view_noise": 1.75, "buffer_per_place": 1}

TRAIN = {"epochs": 50, "eval_every": 10, "batch_size": 20, "queries_per_epoch": 10,
         "lr": 3e-3, "proj_layers": 2, "embed_dim": 64, "seed": 0}

PAIR_METHODS = ("simclr", "mocov2", "byol", "simsiam", "barlow_twins", "vicreg")
MINING = {"full": {"mode": "full_hnm"},
          "partial": {"mode": "partial_hnm", "pool_size": 32},
          "random": {"mode": "random"}}

BENCH = {"n_q": [5, 10], "n_k": [50, 100], "pool": 16, "seed": 3}

GRADCHECK_SEEDS = (0, 1)


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _run(tmp: Path, command: str, name: str, config: dict, out: Path) -> None:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"vgssl {command} ({name}) exited {code}")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def current_digests(tmp: Path) -> dict[str, str]:
    """Digest of every output, keyed ``<command>/<run>/<file>``."""
    digests = {}
    world_dir = tmp / "world"
    _run(tmp, "synth", "synth", WORLD, world_dir)
    dataset = world_dir / "dataset.csv"
    for f in ("dataset.csv", "dataset.meta.json"):
        digests[f"synth/{f}"] = _sha(world_dir / f)

    runs = {f"{m}-eta{eta:g}": {"method": m, "eta": eta}
            for m in PAIR_METHODS for eta in (0.0, 1.0)}
    runs.update({f"triplet-{k}": {"method": "triplet", "mining": v} for k, v in MINING.items()})
    checkpoints = {}
    for name, over in runs.items():
        out = tmp / "train" / name
        _run(tmp, "train", name, {**TRAIN, **over, "dataset": str(dataset)}, out)
        (run_dir,) = out.iterdir()
        for f in ("epochs.csv", "checkpoint.ckpt"):
            digests[f"train/{name}/{f}"] = _sha(run_dir / f)
        checkpoints[name] = run_dir / "checkpoint.ckpt"

    eval_dir = tmp / "eval"
    _run(tmp, "eval", "eval", {"checkpoint": str(checkpoints["simsiam-eta1"]),
                               "dataset": str(dataset), "n_values": [1, 5, 10]}, eval_dir)
    digests["eval/recall.csv"] = _sha(eval_dir / "recall.csv")

    bench_dir = tmp / "bench"
    _run(tmp, "bench-mining", "bench", BENCH, bench_dir)
    digests["bench-mining/bench.csv"] = _sha(bench_dir / "bench.csv")
    return digests


def gradcheck_digest() -> str:
    """One digest over ``max_rel_err``, ``redraws`` and the sorted
    per-coordinate errors of every method's checks, as reprs."""
    h = hashlib.sha256()
    for method in ALL_METHODS:
        for seed in GRADCHECK_SEEDS:
            r = gradcheck_method(method, seed=seed)
            h.update(f"{method.value} {seed} {r.max_rel_err!r} {r.redraws!r}\n".encode())
            for name, err in sorted(r.per_coord.items()):
                h.update(f"{name} {err!r}\n".encode())
    return h.hexdigest()


def _pinned() -> dict:
    pinned = json.loads(PINNED.read_text())
    env = environment()
    differs = [f"{k} is {env[k]!r} here, pinned under {pinned[k]!r}"
               for k in env if env[k] != pinned[k]]
    assert not differs, "digests were pinned in another environment: " + "; ".join(differs)
    return pinned


def test_outputs_match_pinned_digests(tmp_path):
    pinned = _pinned()
    got = current_digests(tmp_path)
    want = pinned["digests"]
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"outputs differ from {PINNED.name}: changed {changed}, "
        f"no longer produced {missing}, not pinned {extra}"
    )


def test_gradcheck_matches_pinned_digest():
    assert gradcheck_digest() == _pinned()["gradcheck_method"], (
        f"gradcheck_method results differ from {PINNED.name}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        payload = {**environment(), "digests": current_digests(Path(tmp)),
                   "gradcheck_method": gradcheck_digest()}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
