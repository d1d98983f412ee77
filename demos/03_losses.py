#!/usr/bin/env python3
# Evaluate every pair loss on one random batch and print the term breakdown.

import numpy as np

from vgssl.autodiff import Value
from vgssl.losses import LossConfig, Method, compute_loss, l2_normalize_rows

rng = np.random.default_rng(3)
N, D = 6, 8

anchor = Value(rng.normal(size=(N, D)))
partner = Value(0.8 * rng.normal(size=(N, D)) + 0.2 * anchor.data)
negative = Value(rng.normal(size=(N, D)))

for method in Method:
    cfg = LossConfig(method=method)
    if method is Method.TRIPLET:
        views = (anchor, partner, negative)
    elif method in (Method.BYOL, Method.SIMSIAM):
        # self-distillation compares predicted online rows to detached targets,
        # in both directions, each a stack of the two directions' views; here
        # the "predictor" is a plain normalize so the numbers stay readable
        both = Value(np.stack([anchor.data, partner.data]))
        views = (l2_normalize_rows(both), l2_normalize_rows(Value(both.data[::-1].copy())))
    else:
        views = (anchor, partner)
    out = compute_loss(cfg, *views)
    terms = "  ".join(f"{k}={v:.4f}" for k, v in sorted(out.per_term.items()))
    print(f"{method.value:>12}: loss={out.value:8.4f}   {terms}")

# A batch of one pair duplicated N times is a worst case for InfoNCE: every
# duplicate is a perfect decoy in every row's denominator.
one = rng.normal(size=(1, D))
dup_a = Value(np.repeat(one, N, axis=0))
dup_p = Value(np.repeat(one, N, axis=0))
dup = compute_loss(LossConfig(method=Method.SIMCLR), dup_a, dup_p)

ortho = np.eye(N, D)
distinct = compute_loss(
    LossConfig(method=Method.SIMCLR),
    Value(ortho.copy()),
    Value(ortho.copy()),
)
print(f"\nInfoNCE, duplicated pair:  {dup.value:.4f}")
print(f"InfoNCE, orthogonal pairs: {distinct.value:.4f}")
