#!/usr/bin/env python3
# Build a small synthetic geo-world and poke at its geometry.
#
# Each place is a point on a metric grid. Database entries and queries are
# noisy views of the place's latent feature vector, jittered a few meters
# around the place center. Positives live within r_pos meters of a query;
# anything past r_neg is fair game as a negative.


import os
import tempfile

from vgssl.geodata import distance_m, load_csv, save_csv, synth_dataset

ds = synth_dataset(seed=7, n_places=12, db_per_place=5, feature_dim=8, view_noise=0.5)

print(f"queries:   {len(ds.queries)}")
print(f"database:  {len(ds.database)}")
print(f"f-dim:     {ds.feature_dim}")

q = ds.queries[0]
print(f"\nquery {q.id} at ({q.position.a:.1f}, {q.position.b:.1f}) m")

pos = ds.positive_set(q.id)
neg = ds.negative_set(q.id)
print(f"positives: {pos}")
print(f"negatives: {len(neg)} ids, first few {neg[:5]}")

# positives must sit inside the positive radius, negatives beyond the buffer
for pid in pos:
    d = distance_m(q.position, ds.sample(pid).position)
    print(f"  db {pid}: {d:5.1f} m from query")

worst = min(distance_m(q.position, ds.sample(nid).position) for nid in neg)
print(f"nearest negative: {worst:.1f} m (must exceed the exclusion buffer)")

# roundtrip through the on-disk format, in a directory removed afterwards
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_world.csv")
    save_csv(ds, path)
    back = load_csv(path)
same = all(
    (a.id == b.id and a.features.tolist() == b.features.tolist())
    for a, b in zip(ds.queries + ds.database, back.queries + back.database)
)
print(f"\nwrote and reloaded {os.path.basename(path)}, reload matches: {same}")
