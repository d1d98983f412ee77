#!/usr/bin/env python3
"""Tour of the reverse-mode tape: forward, backward, finite-difference check.

The tape records n-d array ops into a graph of Value nodes; backward()
walks it once in reverse topological order. Everything below is the same
machinery the training loop uses, just small enough to read.
"""

import numpy as np

from vgssl.autodiff import Value

rng = np.random.default_rng(0)

# A tiny two-layer computation by hand: relu(x W1) W2, then a scalar readout.
x = Value(rng.normal(size=(4, 3)))
W1 = Value(rng.normal(size=(3, 5)) * 0.5)
W2 = Value(rng.normal(size=(5, 2)) * 0.5)

h = (x @ W1).relu()
y = h @ W2
loss = (y * y).sum() / y.data.size

loss.backward()
print(f"loss = {loss.item():.6f}")
print(f"dL/dW1 shape {W1.grad.shape}, dL/dW2 shape {W2.grad.shape}")

# Check one coordinate against central differences.
i, j = 1, 3
eps = 1e-5
W1.data[i, j] += eps
up = ((x @ W1).relu() @ W2)
up = (up * up).sum().item() / y.data.size
W1.data[i, j] -= 2 * eps
dn = ((x @ W1).relu() @ W2)
dn = (dn * dn).sum().item() / y.data.size
W1.data[i, j] += eps

fd = (up - dn) / (2 * eps)
print(f"analytic dL/dW1[{i},{j}] = {W1.grad[i, j]:.8f}")
print(f"numeric  dL/dW1[{i},{j}] = {fd:.8f}")

# detach() is the stop-gradient: the target branch contributes value but no
# gradient.
a = Value(rng.normal(size=(3,)))
b = (a * 2.0).detach()
out = (a * b).sum()
out.backward()
print(f"\nd(a * sg(2a))/da = {a.grad}  (just b, no chain through the 2a)")
