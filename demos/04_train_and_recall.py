#!/usr/bin/env python3
"""Train one method end to end on a desk-scale world and watch recall move.

Runs in a few seconds. The world is deliberately noisy enough that the
untrained encoder misses a third of its queries; training closes the gap.
"""

from vgssl.geodata import synth_dataset
from vgssl.losses import Method
from vgssl.methods import method_config
from vgssl.trainer import TrainConfig, evaluate, run_single
from vgssl.encoder import init_state

ds = synth_dataset(seed=5, n_places=20, db_per_place=8, feature_dim=32, view_noise=1.0)

mcfg = method_config(
    Method.SIMCLR,
    input_dim=ds.feature_dim,
    hidden_dims=(64,),
    embed_dim=64,
    proj_layers=1,
    eta=1.0,
)

before = evaluate(init_state(mcfg.encoder, seed=0), mcfg, ds)
print("untrained:", "  ".join(f"R@{n}={r:.3f}" for n, r in zip(before.n_values, before.recalls)))

tcfg = TrainConfig(epochs=60, batch_size=64, queries_per_epoch=10, lr=1e-3, seed=0, eval_every=20)
res = run_single(mcfg, ds, tcfg)

for ep in res.record.epochs:
    if ep.recall is not None:
        print(f"epoch {ep.epoch + 1:3d}: loss={ep.loss:8.4f}  R@1={ep.recall.recalls[0]:.3f}")

final = res.record.final_recall
print("trained:  ", "  ".join(f"R@{n}={r:.3f}" for n, r in zip(final.n_values, final.recalls)))
