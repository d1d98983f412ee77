#!/usr/bin/env python3
# Why pair-only sampling wins on preparation cost.
#
# Hard-negative mining pays twice: it embeds the candidate set, then scores
# every query against every candidate. Pair sampling embeds the pairs and
# stops. The ledger below counts both, measured against the closed form.


from vgssl.costmodel import CostLedger, predict_cost
from vgssl.geodata import synth_dataset
from vgssl.sampling import MiningConfig, MiningMode, build_pairs, mine_triplets

n_q, per_place = 20, 50
ds = synth_dataset(seed=1, n_places=n_q, db_per_place=per_place, feature_dim=8)
n_k = len(ds.database)

def embed(x):
    return x  # cost is counted per call, the embedding itself is irrelevant

rows = []
for cfg in (MiningConfig(MiningMode.FULL_HNM), MiningConfig(MiningMode.PARTIAL_HNM, 64),
            MiningConfig(MiningMode.RANDOM)):
    led = CostLedger()
    mine_triplets(ds, n_q, cfg, embed, rng_seed=0, ledger=led)
    rows.append((cfg.mode.value, led))

led = CostLedger()
build_pairs(ds, n_q, eta=0.0, rng_seed=0, ledger=led)
rows.append(("pair_only", led))

print(f"{n_q} queries, database of {n_k}\n")
print(f"{'strategy':>12} {'extract':>8} {'compare':>9} {'peak':>6}")
for name, led in rows:
    print(f"{name:>12} {led.extractions:>8} {led.comparisons:>9} {led.peak_cached:>6}")

pred = predict_cost("full_hnm", n_q=n_q, n_k=n_k, n_kn=n_k - per_place)
print(f"\nfull_hnm closed form: extract {pred.extractions}, compare {pred.comparisons}")
