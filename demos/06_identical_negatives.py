#!/usr/bin/env python3
"""What identical-negative pairs do to a self-distillation method.

At ratio eta, every epoch mixes round(eta * m_q) identical pairs into the
pair stream: the same database row on both branches. For losses that score
whole-batch statistics those rows are inert. For a predictor method they
are a curriculum for the identity map, and a predictor that has learned
the identity stops regulating the embedding: spread decays, and on a long
enough horizon retrieval order decays with it.

This script shows the early-warning signals in under a minute. The recall
gap itself needs thousands of epochs; tests pin that trend separately.
"""

import numpy as np

from vgssl.encoder import forward, predictor_forward
from vgssl.geodata import synth_dataset
from vgssl.losses import Method, l2_normalize_rows
from vgssl.methods import method_config
from vgssl.trainer import TrainConfig, run_single


def diagnostics(enc_state, mcfg, ds):
    feats = np.stack([s.features for s in ds.database])
    z = forward(enc_state, mcfg.encoder, feats, training=False)
    zn = l2_normalize_rows(z)
    p = predictor_forward(enc_state, mcfg.encoder, zn, training=False)
    pn = l2_normalize_rows(p)
    # how close is the predictor to the identity on the data it sees?
    pred_id = float(np.mean(np.sum(pn.data * zn.data, axis=1)))
    # spread of the normalized embeddings: mean distance to the centroid
    c = zn.data.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(zn.data - c, axis=1)))
    return pred_id, spread


for eta in (0.0, 1.0):
    ds = synth_dataset(seed=0, n_places=30, db_per_place=8, feature_dim=32, view_noise=1.75)
    mcfg = method_config(Method.SIMSIAM, input_dim=32, embed_dim=64, proj_layers=2, eta=eta)
    tcfg = TrainConfig(epochs=800, batch_size=16, queries_per_epoch=10, lr=3e-3, seed=0)
    res = run_single(mcfg, ds, tcfg)
    pred_id, spread = diagnostics(res.state, mcfg, ds)
    print(f"eta={eta:.0f}: cos(pred(z), z) = {pred_id:.4f}   spread = {spread:.4f}")

print("\nhigher cos toward 1.0 and lower spread under eta=1 is the collapse precursor")
