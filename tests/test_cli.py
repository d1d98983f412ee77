import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import vgssl.trainer
from vgssl.cli import _epoch_rows, _write_csv, main
from vgssl.encoder import load_checkpoint, save_checkpoint
from vgssl.geodata import load_csv, save_csv, synth_dataset
from vgssl.losses import Method
from vgssl.methods import method_config
from vgssl.retrieval import evaluate_encoder
from vgssl.trainer import ExperimentResult, TrainConfig, run_experiment, run_single


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def world(tmp_path):
    cfg = write_config(tmp_path / "synth.json", {
        "n_places": 10, "db_per_place": 3, "feature_dim": 8,
        "view_noise": 0.4, "seed": 3,
    })
    out = tmp_path / "data"
    assert run("synth", "--config", cfg, "--out", str(out)) == 0
    return out / "dataset.csv"


def train_config(world, **over):
    base = {
        "dataset": str(world), "method": "simclr", "hidden_dims": [16],
        "embed_dim": 8, "proj_layers": 1, "eta": 0.5, "epochs": 2,
        "batch_size": 8, "queries_per_epoch": 4, "lr": 1e-3, "seed": 1,
    }
    base.update(over)
    return base


class TestConfigGuard:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"n_places": 5, "n_plcaes": 6})
        assert run("synth", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "n_plcaes" in capsys.readouterr().err

    def test_unknown_nested_loss_key_rejected(self, tmp_path, world):
        cfg = write_config(
            tmp_path / "t.json",
            train_config(world, loss={"lambda2": 25.0}),
        )
        assert run("train", "--config", cfg, "--out", str(tmp_path / "r")) == 2

    def test_normalize_inputs_is_not_a_loss_key(self, tmp_path, world, capsys):
        # Row normalization is part of each method's definition, not a knob.
        cfg = write_config(
            tmp_path / "t.json",
            train_config(world, loss={"normalize_inputs": True}),
        )
        assert run("train", "--config", cfg, "--out", str(tmp_path / "r")) == 2
        assert "loss: unknown keys ['normalize_inputs']" in capsys.readouterr().err

    def test_bad_method_name(self, tmp_path, world, capsys):
        cfg = write_config(tmp_path / "t.json", train_config(world, method="simclrr"))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "r")) == 2
        assert "simclrr" in capsys.readouterr().err


class TestSynth:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"n_places": 6, "db_per_place": 2})
        out = tmp_path / "d"
        assert run("synth", "--config", cfg, "--out", str(out)) == 0
        assert (out / "dataset.csv").exists()
        assert (out / "dataset.meta.json").exists()

    def test_spacing_constraint_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"spacing_m": 30.0})
        assert run("synth", "--config", cfg, "--out", str(tmp_path)) == 2
        assert "spacing" in capsys.readouterr().err

    def test_fractional_count_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"n_places": 6.5})
        out = tmp_path / "d"
        assert run("synth", "--config", cfg, "--out", str(out)) == 2
        assert "synth: n_places must be an integer, got 6.5" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"n_places": 6, "db_per_place": 2, "seed": 9})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--config", cfg, "--out", str(a)) == 0
        assert run("synth", "--config", cfg, "--out", str(b)) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


class TestTrain:
    def test_run_directory_and_artifacts(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", train_config(world))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 0
        run_dir = out / "SimCLR-FC-1-8-0.5-seed1"
        assert run_dir.is_dir()
        assert (run_dir / "epochs.csv").exists()
        assert (run_dir / "checkpoint.ckpt").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert manifest["config"]["method"] == "simclr"

    def test_epochs_csv_shape(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", train_config(world, epochs=3))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 0
        with open(out / "SimCLR-FC-1-8-0.5-seed1" / "epochs.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["epoch", "loss"]
        assert "recall_at_1" in rows[0]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        # only the final epoch carries a recall entry by default
        rcol = rows[0].index("recall_at_1")
        assert rows[1][rcol] == "" and rows[3][rcol] != ""

    def test_missing_dataset_fails(self, tmp_path):
        cfg = write_config(tmp_path / "t.json",
                           train_config(tmp_path / "nope.csv"))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "r")) == 2

    def test_rerun_byte_identical_csv(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", train_config(world))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", cfg, "--out", str(a)) == 0
        assert run("train", "--config", cfg, "--out", str(b)) == 0
        name = "SimCLR-FC-1-8-0.5-seed1/epochs.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_resume_continues_numbering_and_matches_straight(self, tmp_path, world):
        short = write_config(tmp_path / "s.json", train_config(world, epochs=1))
        full = write_config(tmp_path / "f.json", train_config(world, epochs=2))
        p1, p2, ref = tmp_path / "p1", tmp_path / "p2", tmp_path / "ref"
        assert run("train", "--config", short, "--out", str(p1)) == 0
        ckpt = p1 / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        resume = write_config(
            tmp_path / "r.json", train_config(world, epochs=1, resume=str(ckpt))
        )
        assert run("train", "--config", resume, "--out", str(p2)) == 0
        assert run("train", "--config", full, "--out", str(ref)) == 0

        with open(p2 / "SimCLR-FC-1-8-0.5-seed1" / "epochs.csv") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["1"]

        a, _, meta_a, ex_a = load_checkpoint(p2 / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt")
        b, _, meta_b, ex_b = load_checkpoint(ref / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt")
        assert meta_a["epoch_next"] == meta_b["epoch_next"] == 2
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)
        for k in ex_a:
            assert np.array_equal(ex_a[k], ex_b[k])

    @pytest.mark.parametrize("over, message", [
        ({"recall_ns": []}, "n_values must be"),
        ({"recall_ns": [10, 1]}, "n_values must be"),
        ({"threshold_m": -5}, "threshold_m must be"),
        ({"n_seeds": 0}, "n_seeds must be at least 1"),
        ({"lr": float("nan")}, "lr must be finite and positive"),
        ({"weight_decay": -1}, "weight_decay must be finite and non-negative"),
        ({"loss": {"tau": float("inf")}}, "tau must be finite and positive"),
        ({"loss": {"margin": float("nan")}}, "margin must be finite and non-negative"),
        ({"loss": {"std_margin": -1}}, "std_margin must be finite and non-negative"),
        ({"loss": {"tau": "0.1"}}, "train.loss: tau must be a number, got '0.1'"),
        ({"method": "triplet", "hidden_dims": []},
         "triplet needs a hidden layer, got hidden_dims=()"),
    ])
    def test_impossible_settings_fail_before_training(
        self, tmp_path, world, capsys, monkeypatch, over, message
    ):
        epochs = []
        monkeypatch.setattr(vgssl.trainer, "train_epoch",
                            lambda *a, **k: epochs.append(a) or (0.0, {}))
        cfg = write_config(tmp_path / "t.json", train_config(world, **over))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert epochs == [] and not out.exists()

    @pytest.mark.parametrize("over, message", [
        ({"eta": float("inf")}, "eta must be finite and non-negative, got inf"),
        ({"eta": float("nan")}, "eta must be finite and non-negative, got nan"),
        ({"hidden_dims": "ab"}, "train: hidden_dims must be a list of integers, got 'ab'"),
        ({"hidden_dims": [16, 8.5]}, "train: hidden_dims[1] must be an integer, got 8.5"),
        ({"recall_ns": [1.5]}, "train: recall_ns[0] must be an integer, got 1.5"),
        ({"embed_dim": 4.5}, "train: embed_dim must be an integer, got 4.5"),
        ({"epochs": 2.7}, "train: epochs must be an integer, got 2.7"),
        ({"batch_size": True}, "train: batch_size must be an integer, got True"),
        ({"seed": "1"}, "train: seed must be an integer, got '1'"),
        ({"method": "triplet", "mining": {"mode": "partial_hnm", "pool_size": 2.5}},
         "train.mining: pool_size must be an integer, got 2.5"),
        ({"eta": "0.5"}, "train: eta must be a number, got '0.5'"),
        ({"eta": True}, "train: eta must be a number, got True"),
        ({"lr": "abc"}, "train: lr must be a number, got 'abc'"),
        ({"momentum": None}, "train: momentum must be a number, got None"),
        ({"decoupled_wd": "false"}, "train: decoupled_wd must be true or false, got 'false'"),
        ({"decoupled_wd": 0}, "train: decoupled_wd must be true or false, got 0"),
        ({"method": "simsiam", "proj_layers": 2, "loss": {"symmetric": "no"}},
         "train.loss: symmetric must be true, false or null, got 'no'"),
        # File descriptor 0 is stdin, not a checkpoint.
        ({"resume": 0}, "train: resume must be a string, got 0"),
        ({"resume": ["a.ckpt"]}, "train: resume must be a string, got ['a.ckpt']"),
    ], ids=["eta_inf", "eta_nan", "hidden_dims_str", "hidden_dims_frac", "recall_ns_frac",
            "embed_dim_frac", "epochs_frac", "batch_size_bool", "seed_str", "pool_size_frac",
            "eta_str", "eta_bool", "lr_str", "momentum_null", "decoupled_wd_str",
            "decoupled_wd_int", "symmetric_str", "resume_int", "resume_list"])
    def test_non_integer_keys_fail_before_training(
        self, tmp_path, world, capsys, monkeypatch, over, message
    ):
        epochs = []
        monkeypatch.setattr(vgssl.trainer, "train_epoch",
                            lambda *a, **k: epochs.append(a) or (0.0, {}))
        cfg = write_config(tmp_path / "t.json", train_config(world, **over))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert epochs == [] and not out.exists()

    def test_integral_float_keys_train_as_integers(self, tmp_path, world):
        ints = write_config(tmp_path / "i.json", train_config(world, recall_ns=[1, 5]))
        floats = write_config(tmp_path / "f.json", train_config(
            world, epochs=2.0, embed_dim=8.0, hidden_dims=[16.0], recall_ns=[1.0, 5.0]))
        assert run("train", "--config", ints, "--out", str(tmp_path / "a")) == 0
        assert run("train", "--config", floats, "--out", str(tmp_path / "b")) == 0
        for name in ("epochs.csv", "checkpoint.ckpt"):
            run_file = Path("SimCLR-FC-1-8-0.5-seed1") / name
            a, b = (tmp_path / side / run_file for side in "ab")
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("case", ["empty_csv", "header_only", "no_mode", "r_pos_string"])
    def test_malformed_dataset_named(self, tmp_path, world, capsys, case):
        meta_path = world.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        if case == "empty_csv":
            world.write_text("")
            where, message = world, "empty file, expected a header row"
        elif case == "header_only":
            world.write_text(world.read_text().splitlines()[0] + "\n")
            where, message = world, "database must be non-empty"
        elif case == "no_mode":
            del meta["mode"]
            where, message = meta_path, "missing key 'mode'"
        else:
            meta["r_pos"] = "x"
            where, message = meta_path, "need numbers 0 < r_pos < r_neg, got 'x', 25.0"
        meta_path.write_text(json.dumps(meta))
        cfg = write_config(tmp_path / "t.json", train_config(world))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not out.exists()

    def test_readme_train_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A minimal train config:\s*```json\n(.*?)```", readme, re.S)
        payload = json.loads(block.group(1))
        save_csv(synth_dataset(seed=0), tmp_path / "dataset.csv")
        payload["dataset"] = str(tmp_path / "dataset.csv")
        cfg = write_config(tmp_path / "t.json", payload)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "runs")) == 0

    def test_multi_seed_writes_one_dir_per_seed(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", train_config(world, n_seeds=2))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 0
        assert (out / "SimCLR-FC-1-8-0.5-seed1").is_dir()
        assert (out / "SimCLR-FC-1-8-0.5-seed2").is_dir()

    def test_multi_seed_summary_matches_run_experiment(self, tmp_path, world, capsys):
        payload = train_config(world, n_seeds=2)
        cfg = write_config(tmp_path / "t.json", payload)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "runs")) == 0
        printed = capsys.readouterr().out.splitlines()

        ds = load_csv(world)
        mcfg = method_config(
            Method(payload["method"]), input_dim=ds.feature_dim,
            hidden_dims=tuple(payload["hidden_dims"]), embed_dim=payload["embed_dim"],
            proj_layers=payload["proj_layers"], eta=payload["eta"],
        )
        tcfg = TrainConfig(
            epochs=payload["epochs"], batch_size=payload["batch_size"],
            queries_per_epoch=payload["queries_per_epoch"], lr=payload["lr"],
            seed=payload["seed"],
        )
        expected = ExperimentResult.from_runs(
            [r.record for r in run_experiment(mcfg, ds, tcfg, n_seeds=2)]).summary_line()
        assert printed[-1] == expected


    def test_diverged_seed_is_one_error_line(self, tmp_path, world, capsys, monkeypatch):
        epoch = vgssl.trainer.train_epoch

        def diverging(*args):
            if args[4].seed == 2:  # the second of seeds 1, 2 and 3
                raise FloatingPointError("non-finite loss nan at batch 0")
            return epoch(*args)

        monkeypatch.setattr(vgssl.trainer, "train_epoch", diverging)
        cfg = write_config(tmp_path / "t.json", train_config(world, n_seeds=3))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 1
        printed = capsys.readouterr()
        assert printed.err == ("error: SimCLR-FC-1-8-0.5 seed 2: epoch 0: "
                               "non-finite loss nan at batch 0\n")
        assert printed.out.startswith("SimCLR-FC-1-8-0.5 seed 1: ")
        # The seed that finished first keeps its directory.
        assert [p.name for p in out.iterdir()] == ["SimCLR-FC-1-8-0.5-seed1"]
        assert (out / "SimCLR-FC-1-8-0.5-seed1" / "epochs.csv").exists()


class TestLibraryDefaults:
    """A key that a config leaves out takes the library's own default."""

    def test_empty_synth_config_writes_the_default_world(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {})
        out = tmp_path / "d"
        assert run("synth", "--config", cfg, "--out", str(out)) == 0
        save_csv(synth_dataset(seed=0), tmp_path / "ref.csv")
        for got, ref in (("dataset.csv", "ref.csv"), ("dataset.meta.json", "ref.meta.json")):
            assert (out / got).read_bytes() == (tmp_path / ref).read_bytes()

    def test_minimal_train_config_is_the_default_run(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", {
            "dataset": str(world), "method": "simclr", "epochs": 2, "queries_per_epoch": 4,
        })
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 0
        ds = load_csv(world)
        res = run_single(method_config(Method.SIMCLR, input_dim=ds.feature_dim), ds,
                         TrainConfig(epochs=2, queries_per_epoch=4))
        expected = tmp_path / "expected.csv"
        _write_csv(expected, *_epoch_rows(res.record))
        (run_dir,) = out.iterdir()
        assert run_dir.name == "SimCLR-FC-1-64-1-seed0"
        assert (run_dir / "epochs.csv").read_bytes() == expected.read_bytes()
        state, _, _, _ = load_checkpoint(run_dir / "checkpoint.ckpt")
        for name, p in res.state.params.items():
            assert np.array_equal(state.params[name].data, p.data)

    def test_eval_without_recall_keys_uses_the_defaults(self, tmp_path, world):
        tcfg = write_config(tmp_path / "t.json", train_config(world))
        assert run("train", "--config", tcfg, "--out", str(tmp_path / "runs")) == 0
        ckpt = tmp_path / "runs" / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        ecfg = write_config(tmp_path / "e.json", {"checkpoint": str(ckpt), "dataset": str(world)})
        assert run("eval", "--config", ecfg, "--out", str(tmp_path / "ev")) == 0
        state, enc_cfg, _, _ = load_checkpoint(ckpt)
        report = evaluate_encoder(state, enc_cfg, load_csv(world))
        with open(tmp_path / "ev" / "recall.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [[str(n), repr(r), repr(report.threshold_m), str(report.n_queries)]
                            for n, r in zip(report.n_values, report.recalls)]
        assert [r[0] for r in rows[1:]] == ["1", "5", "10"]


def _drop_moment(extra, kind):
    del extra[min(k for k in extra if k.startswith(f"adam.{kind}."))]


class TestResumeGuard:
    """A resume checkpoint that cannot continue training fails before any
    epoch runs, naming the checkpoint, and writes no run directory."""

    @pytest.fixture()
    def saved(self, tmp_path, world):
        cfg = write_config(tmp_path / "t.json", train_config(world, epochs=1))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "first")) == 0
        return load_checkpoint(tmp_path / "first" / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt")

    def resume(self, tmp_path, world, capsys, monkeypatch, ckpt, **over):
        epochs = []
        monkeypatch.setattr(vgssl.trainer, "train_epoch",
                            lambda *a, **k: epochs.append(a) or (0.0, {}))
        cfg = write_config(tmp_path / "r.json", train_config(world, resume=str(ckpt), **over))
        out = tmp_path / "runs"
        assert run("train", "--config", cfg, "--out", str(out)) == 2
        assert epochs == [] and not out.exists()
        return capsys.readouterr().err

    def test_checkpoint_without_training_meta(self, tmp_path, world, capsys, monkeypatch, saved):
        state, enc_cfg, _, _ = saved
        ckpt = tmp_path / "bare.ckpt"
        save_checkpoint(ckpt, state, enc_cfg)
        err = self.resume(tmp_path, world, capsys, monkeypatch, ckpt)
        assert err == (f"error: checkpoint {ckpt}: meta epoch_next must be a "
                       "non-negative int, got None\n")

    @pytest.mark.parametrize("key, value", [
        ("epoch_next", -1), ("epoch_next", 1.0), ("adam_t", "3"), ("adam_t", True),
    ])
    def test_counters_must_be_non_negative_ints(
        self, tmp_path, world, capsys, monkeypatch, saved, key, value
    ):
        state, enc_cfg, meta, extra = saved
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, state, enc_cfg, meta={**meta, key: value}, extra_tensors=extra)
        err = self.resume(tmp_path, world, capsys, monkeypatch, ckpt)
        assert err == (f"error: checkpoint {ckpt}: meta {key} must be a "
                       f"non-negative int, got {value!r}\n")

    @pytest.mark.parametrize("kind, edit", [
        ("m", lambda extra: _drop_moment(extra, "m")),
        ("v", lambda extra: _drop_moment(extra, "v")),
        ("m", lambda extra: extra.update({"adam.m.junk.W": np.zeros((2, 2))})),
        ("v", lambda extra: extra.update({"adam.v.proj.0.b": np.zeros(3)})),
    ], ids=["m_missing", "v_missing", "m_unknown", "v_shape"])
    def test_moments_must_name_the_parameters(
        self, tmp_path, world, capsys, monkeypatch, saved, kind, edit
    ):
        state, enc_cfg, meta, extra = saved
        edit(extra)
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, state, enc_cfg, meta=meta, extra_tensors=extra)
        err = self.resume(tmp_path, world, capsys, monkeypatch, ckpt)
        assert err == (f"error: checkpoint {ckpt}: the adam.{kind}.* moments do not match "
                       f"the encoder's parameters {sorted(state.params)} in names and shapes\n")

    def test_encoder_config_must_match(self, tmp_path, world, capsys, monkeypatch, saved):
        ckpt = tmp_path / "first" / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        err = self.resume(tmp_path, world, capsys, monkeypatch, ckpt, embed_dim=16)
        assert err == (f"error: checkpoint {ckpt}: encoder config does not match "
                       "the train config\n")

    def test_resume_takes_a_single_seed(self, tmp_path, world, capsys, monkeypatch, saved):
        ckpt = tmp_path / "first" / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        err = self.resume(tmp_path, world, capsys, monkeypatch, ckpt, n_seeds=2)
        assert err == "error: resume applies to a single seed; set n_seeds to 1\n"

    def test_unchanged_checkpoint_resumes(self, tmp_path, world, saved):
        state, enc_cfg, meta, extra = saved
        ckpt = tmp_path / "same.ckpt"
        save_checkpoint(ckpt, state, enc_cfg, meta=meta, extra_tensors=extra)
        cfg = write_config(tmp_path / "r.json", train_config(world, resume=str(ckpt)))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "runs")) == 0


class TestEval:
    def test_recall_csv(self, tmp_path, world):
        tcfg = write_config(tmp_path / "t.json", train_config(world))
        out = tmp_path / "runs"
        assert run("train", "--config", tcfg, "--out", str(out)) == 0
        ckpt = out / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        ecfg = write_config(tmp_path / "e.json", {
            "checkpoint": str(ckpt), "dataset": str(world), "n_values": [1, 5],
        })
        edir = tmp_path / "ev"
        assert run("eval", "--config", ecfg, "--out", str(edir)) == 0
        with open(edir / "recall.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "recall", "threshold_m", "n_queries"]
        assert [r[0] for r in rows[1:]] == ["1", "5"]
        assert rows[1][3] == "10"  # every query evaluated

    def test_dim_mismatch_fails(self, tmp_path, world):
        tcfg = write_config(tmp_path / "t.json", train_config(world))
        out = tmp_path / "runs"
        assert run("train", "--config", tcfg, "--out", str(out)) == 0
        other = write_config(tmp_path / "s2.json", {
            "n_places": 6, "db_per_place": 2, "feature_dim": 5,
        })
        d2 = tmp_path / "d2"
        assert run("synth", "--config", other, "--out", str(d2)) == 0
        ecfg = write_config(tmp_path / "e.json", {
            "checkpoint": str(out / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"),
            "dataset": str(d2 / "dataset.csv"),
        })
        assert run("eval", "--config", ecfg, "--out", str(tmp_path / "ev")) == 2


    def test_fractional_n_values_rejected(self, tmp_path, world, capsys):
        ecfg = write_config(tmp_path / "e.json", {
            "checkpoint": str(tmp_path / "none.ckpt"), "dataset": str(world),
            "n_values": [1, "5"],
        })
        out = tmp_path / "ev"
        assert run("eval", "--config", ecfg, "--out", str(out)) == 2
        assert "eval: n_values[1] must be an integer, got '5'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_checkpoint_named(self, tmp_path, world, capsys):
        tcfg = write_config(tmp_path / "t.json", train_config(world))
        assert run("train", "--config", tcfg, "--out", str(tmp_path / "runs")) == 0
        ckpt = tmp_path / "runs" / "SimCLR-FC-1-8-0.5-seed1" / "checkpoint.ckpt"
        raw = ckpt.read_bytes()
        end = 4 + int.from_bytes(raw[:4], "little")
        ecfg = write_config(tmp_path / "e.json", {"checkpoint": str(ckpt), "dataset": str(world)})
        # An encoder config field that does not exist, a negative offset and
        # a tensor outside every checkpoint group.
        for edit in (lambda h: h["config"].update(width=3),
                     lambda h: h["tensors"][0].update(offset=-8),
                     lambda h: h["tensors"][0].update(name="junk.x")):
            header = json.loads(raw[4:end])
            edit(header)
            blob = json.dumps(header).encode()
            ckpt.write_bytes(len(blob).to_bytes(4, "little") + blob + raw[end:])
            assert run("eval", "--config", ecfg, "--out", str(tmp_path / "ev")) == 2
            assert capsys.readouterr().err.startswith(f"error: malformed checkpoint {ckpt}: ")


@pytest.mark.parametrize("command, payload, message", [
    ("synth", {"view_noise": "0.5"}, "synth: view_noise must be a number, got '0.5'"),
    ("synth", {"r_pos": False}, "synth: r_pos must be a number, got False"),
    ("eval", {"checkpoint": "c", "dataset": "d", "threshold_m": "25"},
     "eval: threshold_m must be a number, got '25'"),
    ("gradcheck", {"methods": [], "tol": "1e-4"}, "gradcheck: tol must be a number, got '1e-4'"),
    ("gradcheck", {"methods": "simclr"},
     "gradcheck: methods must be a list of method names, got 'simclr'"),
    ("bench-mining", {"slack": True}, "bench-mining: slack must be a number, got True"),
    ("bench-mining", {"n_q": [0]}, "bench-mining: every n_q must be at least 1, got [0]"),
    ("bench-mining", {"n_q": [5], "n_k": [-5]},
     "bench-mining: every n_k must be at least 1, got [-5]"),
    ("bench-mining", {"n_q": []}, "bench-mining: n_q must list at least one value"),
    ("bench-mining", {"n_q": [5], "n_k": []}, "bench-mining: n_k must list at least one value"),
    ("synth", {"filename": 5}, "synth: filename must be a string, got 5"),
    ("synth", {"feature_dim": 0}, "feature_dim must be at least 1, got 0"),
    ("synth", {"view_noise": -1}, "view_noise cannot be negative, got -1.0"),
    ("train", {"dataset": 5, "method": "simclr", "epochs": 1},
     "train: dataset must be a string, got 5"),
    ("eval", {"checkpoint": 7, "dataset": "d"}, "eval: checkpoint must be a string, got 7"),
    ("eval", {"checkpoint": "c", "dataset": None}, "eval: dataset must be a string, got None"),
    ("gradcheck", {"instances": 0}, "gradcheck: instances must be at least 1, got 0"),
    ("gradcheck", {"instances": -2}, "gradcheck: instances must be at least 1, got -2"),
    ("gradcheck", {"tol": math.inf},
     "gradcheck: tol must be a finite number above 0, got inf"),
    ("gradcheck", {"tol": 0}, "gradcheck: tol must be a finite number above 0, got 0.0"),
    ("bench-mining", {"slack": math.inf},
     "bench-mining: slack must be a finite number above 0, got inf"),
    ("bench-mining", {"slack": -0.05},
     "bench-mining: slack must be a finite number above 0, got -0.05"),
], ids=["synth_str", "synth_bool", "eval_str", "gradcheck_tol_str", "gradcheck_methods_str",
        "bench_slack_bool", "bench_n_q_zero", "bench_n_k_negative", "bench_n_q_empty",
        "bench_n_k_empty", "synth_filename_int", "synth_feature_dim_zero",
        "synth_view_noise_negative", "train_dataset_int", "eval_checkpoint_int",
        "eval_dataset_null", "gradcheck_instances_zero", "gradcheck_instances_negative",
        "gradcheck_tol_inf", "gradcheck_tol_zero", "bench_slack_inf", "bench_slack_negative"])
def test_bad_values_exit_2_naming_the_key(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestGradcheckCommand:
    def test_empty_method_list_rejected(self, tmp_path, capsys):
        # An empty table would pass with no check run.
        cfg = write_config(tmp_path / "g.json", {"methods": []})
        assert run("gradcheck", "--config", cfg) == 2
        assert capsys.readouterr().err == (
            "error: gradcheck: methods must list at least one method\n")

    def test_single_method_passes(self, tmp_path):
        cfg = write_config(tmp_path / "g.json", {"methods": ["simclr"], "instances": 2})
        assert run("gradcheck", "--config", cfg) == 0


    def test_failed_method_exits_1(self, tmp_path, capsys):
        # No difference quotient meets a tolerance of 1e-300.
        cfg = write_config(tmp_path / "g.json",
                           {"methods": ["simclr"], "instances": 1, "tol": 1e-300})
        assert run("gradcheck", "--config", cfg) == 1
        out = capsys.readouterr()
        assert out.err == "gradcheck failed for: simclr\n"
        assert out.out.splitlines()[1].split()[-1] == "FAIL"


class TestBenchMining:
    def test_grid_rows_and_invariants(self, tmp_path):
        cfg = write_config(tmp_path / "b.json", {
            "n_q": [10, 100], "n_k": [100], "pool": 32,
        })
        out = tmp_path / "bench"
        assert run("bench-mining", "--config", cfg, "--out", str(out)) == 0
        with open(out / "bench.csv") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert len(body) == 2 * 1 * 4
        assert header[0] == "mode" and header[-1] == "pass"
        by_mode = {}
        for r in body:
            by_mode.setdefault(r[0], []).append(r)
            assert r[-1] == "true"
        comp = header.index("comparisons")
        assert all(r[comp] == "0" for r in by_mode["pair_only"])
        full = sorted(int(r[comp]) for r in by_mode["full_hnm"])
        assert full[1] >= 10 * full[0]

    def test_indivisible_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "b.json", {"n_q": [30], "n_k": [100]})
        assert run("bench-mining", "--config", cfg, "--out", str(tmp_path)) == 2

    def test_row_outside_slack_exits_1(self, tmp_path, capsys):
        # Partial mining with a one-row pool falls back to a fresh negative
        # once here, one extraction more than the closed form predicts.
        cfg = write_config(tmp_path / "b.json", {"n_q": [5], "n_k": [10], "pool": 1, "seed": 3})
        out = tmp_path / "bench"
        assert run("bench-mining", "--config", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err == "1 rows outside 5% slack\n"
        with open(out / "bench.csv") as fh:
            failing = [r["mode"] for r in csv.DictReader(fh) if r["pass"] == "false"]
        assert failing == ["partial_hnm"]
