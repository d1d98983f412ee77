"""Command-line front end: JSON configs in, CSV artifacts out.

Every command is deterministic given config + seed; CSV bodies contain
no timestamps, so a rerun reproduces them byte for byte.  Wall-clock
readings live in the run manifest only.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import inspect
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .costmodel import _MODES, CostLedger, assert_ledger, predict_cost
from .encoder import _is_count, load_checkpoint, save_checkpoint
from .geodata import load_csv, save_csv, synth_dataset
from .gradcheck import ALL_METHODS, gradcheck_all
from .losses import LossConfig, Method
from .methods import method_config, strategy_label
from .retrieval import evaluate_encoder
from .sampling import MiningConfig, MiningMode, build_pairs, mine_triplets
from .trainer import AdamState, ExperimentResult, TrainConfig, run_experiment

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# The default of a key that a config must set.
_REQUIRED = inspect.Parameter.empty


class _Config:
    """Dict wrapper that hard-errors on unrecognized keys.

    A typo in a hyperparameter name must fail loudly, not silently train
    with the default.
    """

    def __init__(self, raw: dict, where: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: expected a JSON object, got {type(raw).__name__}")
        self._raw = raw
        self._where = where
        self._used: set[str] = set()

    def get(self, key: str, default=_REQUIRED):
        self._used.add(key)
        if key in self._raw:
            return self._raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self._where}: missing required key {key!r}")
        return default

    def get_int(self, key: str, default=_REQUIRED) -> int:
        """An integer key: a JSON integer or an integral float; bools,
        strings and fractions are errors, never truncated."""
        return self._int(self.get(key, default), key)

    def get_ints(self, key: str, default) -> tuple[int, ...]:
        """A list of integers, each item checked as by ``get_int``."""
        value = self.get(key, default)
        if not isinstance(value, list):
            raise ConfigError(f"{self._where}: {key} must be a list of integers, got {value!r}")
        return tuple(self._int(v, f"{key}[{i}]") for i, v in enumerate(value))

    def get_float(self, key: str, default: float | None) -> float | None:
        """A float key: a JSON number.  Bools, strings and null are errors,
        except that null stands for a null default."""
        value = self.get(key, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self._where}: {key} must be a number, got {value!r}")
        return float(value)

    def get_choice(self, key: str, choices: type[enum.Enum]) -> enum.Enum:
        """A required key whose value names a member of ``choices``."""
        return self.choice(key, self.get(key), choices)

    def choice(self, key: str, value, choices: type[enum.Enum]) -> enum.Enum:
        """The member of ``choices`` that ``value``, read from ``key``, names."""
        valid = [c.value for c in choices]
        if value not in valid:
            raise ConfigError(f"{self._where}: unknown {key} {value!r}; "
                              f"expected one of: {', '.join(valid)}")
        return choices(value)

    def get_str(self, key: str, default=_REQUIRED) -> str | None:
        """A path key: a JSON string; null stands for a null default."""
        value = self.get(key, default)
        if isinstance(value, str) or (value is None and default is None):
            return value
        raise ConfigError(f"{self._where}: {key} must be a string, got {value!r}")

    def get_bool(self, key: str, default: bool | None) -> bool | None:
        """A boolean key: JSON true or false; null stands for a null default."""
        value = self.get(key, default)
        if isinstance(value, bool) or (value is None and default is None):
            return value
        allowed = "true, false or null" if default is None else "true or false"
        raise ConfigError(f"{self._where}: {key} must be {allowed}, got {value!r}")

    def _int(self, value, name: str) -> int:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{self._where}: {name} must be an integer, got {value!r}")

    def args_for(self, owner, skip: tuple[str, ...] = (), **fallbacks) -> dict:
        """Keyword arguments for ``owner`` from the keys that name its
        parameters, each read by the getter its annotation picks.  ``skip``
        names the parameters the command supplies.  A key the config leaves
        out takes its ``fallbacks`` value, else ``owner``'s default, else is
        an error."""
        args = {}
        for name, hint, default in _parameters(owner):
            if name in skip:
                continue
            default = fallbacks.get(name, default)
            if name in self._raw or name in fallbacks or default is _REQUIRED:
                args[name] = _GETTERS[hint](self, name, default)
        return args

    def sub(self, key: str) -> "_Config":
        self._used.add(key)
        return _Config(self._raw.get(key, {}), f"{self._where}.{key}")

    def finish(self) -> None:
        unknown = sorted(set(self._raw) - self._used)
        if unknown:
            raise ConfigError(f"{self._where}: unknown keys {unknown}")


_GETTERS = {
    int: _Config.get_int,
    float: _Config.get_float,
    bool: _Config.get_bool,
    tuple[int, ...]: _Config.get_ints,
    float | None: _Config.get_float,
    bool | None: _Config.get_bool,
}


@functools.cache
def _parameters(owner) -> tuple[tuple[str, object, object], ...]:
    """Name, annotation and default of each named parameter of ``owner``."""
    hints = typing.get_type_hints(owner)
    return tuple((p.name, hints.get(p.name), p.default)
                 for p in inspect.signature(owner).parameters.values()
                 if p.kind is p.POSITIONAL_OR_KEYWORD)


def _load_config(path: str | None, command: str) -> _Config:
    if path is None:
        return _Config({}, command)
    with open(path) as fh:
        return _Config(json.load(fh), command)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x) -> str:
    """CSV cell; repr keeps float round-trips byte-stable."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# -- synth --------------------------------------------------------------------


def cmd_synth(cfg: _Config, out_dir: Path, seed: int) -> int:
    ds = synth_dataset(**cfg.args_for(synth_dataset, seed=seed))
    filename = cfg.get_str("filename", "dataset.csv")
    cfg.finish()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    save_csv(ds, path)
    print(f"wrote {path} ({len(ds.db_ids)} database, {len(ds.query_ids)} queries, "
          f"dim {ds.feature_dim})")
    return 0


# -- train --------------------------------------------------------------------


def _mining_from_config(sub: _Config) -> MiningConfig | None:
    if not sub._raw:
        return None
    mode = sub.get_choice("mode", MiningMode)
    args = sub.args_for(MiningConfig, skip=("mode",))
    sub.finish()
    return MiningConfig(mode=mode, **args)


def _epoch_rows(record) -> tuple[list[str], list[list[str]]]:
    term_keys = sorted(record.epochs[0].per_term)
    ns = record.epochs[-1].recall.n_values if record.epochs[-1].recall else ()
    header = (
        ["epoch", "loss"]
        + [f"term_{k}" for k in term_keys]
        + ["extractions", "comparisons", "peak_cached"]
        + [f"recall_at_{n}" for n in ns]
    )
    rows = []
    for ep in record.epochs:
        row = [_fmt(ep.epoch), _fmt(ep.loss)]
        row += [_fmt(ep.per_term[k]) for k in term_keys]
        row += [_fmt(ep.ledger["extractions"]), _fmt(ep.ledger["comparisons"]),
                _fmt(ep.ledger["peak_cached"])]
        if ep.recall is not None:
            row += [_fmt(r) for r in ep.recall.recalls]
        else:
            row += [""] * len(ns)
        rows.append(row)
    return header, rows


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _resume_point(path, mcfg, seed: int) -> tuple:
    """The encoder state, Adam state, next epoch and cost ledger stored in
    a training checkpoint, checked against the train config, whose run is
    seed ``seed``, before any epoch runs."""
    state, enc_cfg, meta, extra = load_checkpoint(path)
    if enc_cfg != mcfg.encoder:
        raise ConfigError(f"checkpoint {path}: encoder config does not match the train config")
    for key in ("epoch_next", "adam_t"):
        if not _is_count(meta.get(key)):
            raise ConfigError(
                f"checkpoint {path}: meta {key} must be a non-negative int, got {meta.get(key)!r}"
            )
    counts = meta.get("ledger")
    if not (isinstance(counts, dict) and counts.keys() == CostLedger().snapshot().keys()
            and all(_is_count(n) for n in counts.values())):
        raise ConfigError(
            f"checkpoint {path}: meta ledger must map extractions, comparisons and "
            f"peak_cached to non-negative ints, got {counts!r}"
        )
    # A resume continues one run: the same seed's epoch seeds, the same label.
    for key, want in (("seed", seed), ("label", strategy_label(mcfg))):
        if meta.get(key) != want:
            raise ConfigError(f"checkpoint {path}: meta {key} {meta.get(key)!r} does not "
                              f"match the train config's {key} {want!r}")
    shapes = {name: v.shape for name, v in state.params.items()}
    moments = {}
    for kind in ("m", "v"):
        prefix = f"adam.{kind}."
        moments[kind] = {k[len(prefix):]: a for k, a in extra.items() if k.startswith(prefix)}
        if {name: a.shape for name, a in moments[kind].items()} != shapes:
            raise ConfigError(
                f"checkpoint {path}: the {prefix}* moments do not match the encoder's "
                f"parameters {sorted(shapes)} in names and shapes"
            )
    adam = AdamState(m=moments["m"], v=moments["v"], t=meta["adam_t"])
    return state, adam, meta["epoch_next"], CostLedger(**counts)


def cmd_train(cfg: _Config, out_dir: Path, seed: int) -> int:
    dataset_path = cfg.get_str("dataset")
    method = cfg.get_choice("method", Method)
    mining = _mining_from_config(cfg.sub("mining"))
    ds = load_csv(dataset_path)

    loss_cfg = cfg.sub("loss")
    loss = loss_cfg.args_for(LossConfig, skip=("method",))
    loss_cfg.finish()
    mcfg = method_config(
        method, ds.feature_dim, mining=mining, **loss,
        **cfg.args_for(method_config, skip=("method", "input_dim", "mining")),
    )
    tcfg = TrainConfig(**cfg.args_for(TrainConfig, seed=seed))
    n_seeds = cfg.get_int("n_seeds", 1)
    resume = cfg.get_str("resume", None)
    cfg.finish()

    label = strategy_label(mcfg)
    seeds = list(range(tcfg.seed, tcfg.seed + n_seeds))
    point = None if resume is None else _resume_point(resume, mcfg, tcfg.seed)
    records = []
    for tres in run_experiment(mcfg, ds, tcfg, n_seeds, point):
        records.append(tres.record)
        run_seed = tres.record.seed
        run_dir = out_dir / f"{label}-seed{run_seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        header, rows = _epoch_rows(tres.record)
        _write_csv(run_dir / "epochs.csv", header, rows)
        last = tres.record.epochs[-1]
        save_checkpoint(
            run_dir / "checkpoint.ckpt",
            tres.state,
            mcfg.encoder,
            meta={
                "epoch_next": last.epoch + 1,
                "seed": run_seed,
                "label": label,
                "adam_t": tres.adam.t,
                "ledger": last.ledger,
            },
            extra_tensors={
                **{f"adam.m.{k}": v for k, v in tres.adam.m.items()},
                **{f"adam.v.{k}": v for k, v in tres.adam.v.items()},
            },
        )
        _write_json(run_dir / "manifest.json", {
            "command": "train",
            "version": __version__,
            "label": label,
            "seed": run_seed,
            "seeds": seeds,
            "config": cfg._raw,
            "start_epoch": tres.record.epochs[0].epoch,
            "outputs": ["epochs.csv", "checkpoint.ckpt"],
            "wall_seconds": tres.record.wall_seconds,
        })
        final = tres.record.final_recall
        print(f"{label} seed {run_seed}: loss={tres.record.final_loss:.4f} "
              + " ".join(f"R@{n}={r:.3f}" for n, r in zip(final.n_values, final.recalls)))

    if len(records) > 1:
        print(ExperimentResult.from_runs(records).summary_line())
    return 0


# -- eval ---------------------------------------------------------------------


def cmd_eval(cfg: _Config, out_dir: Path, seed: int) -> int:
    ckpt_path = cfg.get_str("checkpoint")
    dataset_path = cfg.get_str("dataset")
    recall = cfg.args_for(evaluate_encoder, skip=("state", "cfg", "ds"))
    cfg.finish()

    state, enc_cfg, meta, _ = load_checkpoint(ckpt_path)
    ds = load_csv(dataset_path)
    if enc_cfg.input_dim != ds.feature_dim:
        raise ConfigError(
            f"checkpoint expects {enc_cfg.input_dim}-dim features, "
            f"dataset provides {ds.feature_dim}"
        )
    report = evaluate_encoder(state, enc_cfg, ds, **recall)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [_fmt(n), _fmt(r), _fmt(report.threshold_m), _fmt(report.n_queries)]
        for n, r in zip(report.n_values, report.recalls)
    ]
    _write_csv(out_dir / "recall.csv", ["N", "recall", "threshold_m", "n_queries"], rows)
    for n, r in zip(report.n_values, report.recalls):
        print(f"R@{n}={r:.3f}")
    print(f"wrote {out_dir / 'recall.csv'}")
    return 0


# -- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(cfg: _Config, seed: int) -> int:
    names = cfg.get("methods", None)
    args = cfg.args_for(gradcheck_all, skip=("methods",), seed=seed)
    cfg.finish()
    if names is not None and not isinstance(names, list):
        raise ConfigError(f"gradcheck: methods must be a list of method names, got {names!r}")
    methods = ALL_METHODS if names is None else tuple(
        cfg.choice("methods", n, Method) for n in names)

    results = gradcheck_all(methods, **args)
    print(f"{'method':14s} {'instances':>9s} {'worst rel err':>14s}  verdict")
    failed = []
    for method, runs in results.items():
        worst = max(r.max_rel_err for r in runs)
        ok = all(r.passed for r in runs)
        if not ok:
            failed.append(method.value)
        print(f"{method.value:14s} {len(runs):9d} {worst:14.3e}  "
              f"{'pass' if ok else 'FAIL'}")
    if failed:
        print(f"gradcheck failed for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# -- bench-mining -------------------------------------------------------------


def _raw_features(x: np.ndarray) -> np.ndarray:
    """Mining cost is counted per call, so any embedding will do."""
    return x


def _bench_cell(ds, mode: str, n_q: int, n_k: int, per_place: int,
                pool: int, seed: int) -> tuple[CostLedger, CostLedger, int]:
    """Measured and predicted cost of one mode (``predict_cost`` reads the
    sizes its mode uses), and the pool size."""
    led = CostLedger()
    p = min(pool, n_k) if mode == "partial_hnm" else 0
    if mode == "pair_only":
        build_pairs(ds, m_q=n_q, eta=0.0, rng_seed=seed, ledger=led)
    else:
        mine_triplets(ds, n_q, MiningConfig(mode=MiningMode(mode), pool_size=p),
                      _raw_features, seed, ledger=led)
    pred = predict_cost(mode, n_q, n_k=n_k, n_kp=n_q, n_kn=n_k - per_place, pool=p)
    return led, pred, p


def cmd_bench_mining(cfg: _Config, out_dir: Path, seed: int) -> int:
    n_q_list = cfg.get_ints("n_q", [10, 50, 100])
    n_k_list = cfg.get_ints("n_k", [100, 1000, 5000])
    pool = cfg.get_int("pool", 64)
    slack = cfg.get_float("slack", 0.05)
    base = cfg.get_int("seed", seed)
    cfg.finish()
    for key, values in (("n_q", n_q_list), ("n_k", n_k_list)):
        if not values:
            raise ConfigError(f"bench-mining: {key} must list at least one value")
        if any(v < 1 for v in values):
            raise ConfigError(f"bench-mining: every {key} must be at least 1, got {list(values)}")

    header = ["mode", "n_q", "n_k", "pool",
              "extractions", "comparisons", "peak_cached",
              "predicted_extractions", "predicted_comparisons",
              "predicted_peak_cached", "pass"]
    rows = []
    all_ok = True
    for n_q in n_q_list:
        for n_k in n_k_list:
            if n_k % n_q != 0:
                raise ConfigError(
                    f"grid cell n_q={n_q}, n_k={n_k}: n_k must be a multiple of n_q"
                )
            per_place = n_k // n_q
            ds = synth_dataset(
                seed=base, n_places=n_q, db_per_place=per_place,
                feature_dim=8, view_noise=0.1,
            )
            for mode in _MODES:
                led, pred, p = _bench_cell(ds, mode, n_q, n_k, per_place, pool, base)
                ok, _ = assert_ledger(led, pred, slack=slack)
                all_ok = all_ok and ok
                rows.append([
                    mode, _fmt(n_q), _fmt(n_k), _fmt(p),
                    _fmt(led.extractions), _fmt(led.comparisons), _fmt(led.peak_cached),
                    _fmt(pred.extractions), _fmt(pred.comparisons), _fmt(pred.peak_cached),
                    "true" if ok else "false",
                ])

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "bench.csv", header, rows)
    print(f"wrote {out_dir / 'bench.csv'} ({len(rows)} rows)")
    if not all_ok:
        bad = [r for r in rows if r[-1] == "false"]
        print(f"{len(bad)} rows outside {slack:.0%} slack", file=sys.stderr)
        return 1
    return 0


# -- entry point --------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument("--seed", metavar="N", type=int, default=0)

    parser = argparse.ArgumentParser(prog="vgssl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "eval", "gradcheck", "bench-mining"):
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        out = Path(args.out)
        if args.command == "synth":
            return cmd_synth(cfg, out, args.seed)
        if args.command == "train":
            return cmd_train(cfg, out, args.seed)
        if args.command == "eval":
            return cmd_eval(cfg, out, args.seed)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.seed)
        return cmd_bench_mining(cfg, out, args.seed)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # a diverged run, named by its label and seed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
