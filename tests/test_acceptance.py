"""Acceptance gate: one test per criterion, one printed verdict line each.

Verdict lines are replayed in the terminal summary after the run; add
``-s`` to also see each one the moment its criterion finishes.
"""

import time

import conftest
import numpy as np

from vgssl.autodiff import Value
from vgssl.costmodel import CostLedger, assert_ledger, predict_cost
from vgssl.geodata import Position, PositionMode, distance_m, synth_dataset
from vgssl.gradcheck import ALL_METHODS, gradcheck_method
from vgssl.losses import LossConfig, Method, compute_loss
from vgssl.methods import method_config
from vgssl.retrieval import EmbeddingIndex, knn, recall_at_n
from vgssl.sampling import MiningConfig, MiningMode, build_pairs, mine_triplets
from vgssl.trainer import TrainConfig, audit_gradient_flow, evaluate, run_single
from vgssl.encoder import init_state


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    line = f"[criterion {num}] {name}: {verdict}{tail}"
    print(f"\n{line}")
    # stdout is captured under a plain `pytest` run; the conftest hook
    # replays registered lines in the terminal summary, which capture
    # cannot swallow
    conftest.CRITERION_LINES.append(line)


# -- 1: gradient correctness ---------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = {}
    for method in ALL_METHODS:
        errs = [gradcheck_method(method, seed=i).max_rel_err for i in range(20)]
        worst[method.value] = max(errs)
    wall = time.perf_counter() - t0
    ok = all(e < 1e-4 for e in worst.values()) and wall < 60.0
    detail = "worst " + ", ".join(f"{m}={e:.1e}" for m, e in worst.items())
    report(1, "gradient correctness", ok, f"{detail}; {wall:.1f}s")
    assert all(e < 1e-4 for e in worst.values()), worst
    assert wall < 60.0, f"gradcheck took {wall:.1f}s"


# -- 2: loss identities ---------------------------------------------------------


def test_criterion_2_loss_identities():
    checks = {}

    # triplet with the negative far beyond margin: hinge inactive, loss 0
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = compute_loss(
        LossConfig(method=Method.TRIPLET),
        Value(q), Value(q.copy()), Value(-q),
    )
    checks["triplet_zero"] = out.value == 0.0

    # embedding prediction with pred == target: 0; range within [0, 4]
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 6))
    same = compute_loss(
        LossConfig(method=Method.SIMSIAM, symmetric=False),
        Value(z), Value(z.copy()),
    )
    checks["embpred_zero"] = abs(same.value) < 1e-12
    in_range = True
    for trial in range(50):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        v = compute_loss(
            LossConfig(method=Method.SIMSIAM, symmetric=False),
            Value(a), Value(b),
        ).value
        in_range &= -1e-12 <= v <= 4.0 + 1e-12
    checks["embpred_range"] = in_range

    # BT at C = identity exactly: identical branches pin the diagonal at 1,
    # and sign-design columns (Hadamard, all-ones column dropped) are
    # zero-mean and mutually orthogonal, so every off-diagonal entry is 0
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h8 = np.kron(np.kron(h2, h2), h2)
    d = h8[:, 1:6]
    bt = compute_loss(
        LossConfig(method=Method.BARLOW_TWINS),
        Value(d), Value(d.copy()),
    )
    checks["bt_identity_zero"] = abs(bt.value) < 1e-12

    # and the converse direction: any correlated pair of columns costs loss
    skew = np.column_stack([h8[:, 1], h8[:, 1], h8[:, 2]])
    bt_off = compute_loss(
        LossConfig(method=Method.BARLOW_TWINS),
        Value(skew), Value(skew.copy()),
    )
    checks["bt_nonidentity_positive"] = bt_off.value > 1e-3

    # VICReg constructed zero: identical branches (invariance 0), columns
    # orthogonal with zero mean (covariance 0), scaled so the regularized
    # std lands exactly on the hinge threshold (variance 0)
    cols = np.array([
        [2.0, 2.0], [-2.0, 2.0], [2.0, -2.0], [-2.0, -2.0],
    ])
    z = cols * np.sqrt((1.0 - 1e-4) / 4.0)
    vic = compute_loss(
        LossConfig(method=Method.VICREG),
        Value(z), Value(z.copy()),
    )
    checks["vicreg_zero"] = abs(vic.value) < 1e-6

    # symmetric InfoNCE is invariant under swapping the two views
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(5, 7))
    cfg = LossConfig(method=Method.SIMCLR, symmetric=True)
    fwd = compute_loss(cfg, Value(a), Value(b)).value
    rev = compute_loss(cfg, Value(b), Value(a)).value
    checks["infonce_swap"] = abs(fwd - rev) < 1e-12

    ok = all(checks.values())
    report(2, "loss identities", ok, ", ".join(f"{k}={v}" for k, v in checks.items()))
    assert ok, checks


# -- 3: sampler contract ---------------------------------------------------------


def test_criterion_3_sampler_contract():
    ds = synth_dataset(seed=11, n_places=30, db_per_place=6, feature_dim=4)
    rng = np.random.default_rng(202)
    count_ok = True
    collision_free = True
    for trial in range(1000):
        m_q = int(rng.integers(2, 9))
        eta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        pairs = build_pairs(ds, m_q=m_q, eta=eta, rng_seed=int(rng.integers(2**31)))
        count_ok &= len(pairs) == m_q + round(eta * m_q)
        identical = pairs[:, 0] == pairs[:, 1]  # an identical negative repeats its id
        banned = set()
        for anchor in pairs[~identical, 0].tolist():
            banned.update(ds.positive_set(anchor))
        for anchor in pairs[identical, 0].tolist():
            collision_free &= anchor not in banned

    a = build_pairs(ds, m_q=7, eta=1.0, rng_seed=99)
    b = build_pairs(ds, m_q=7, eta=1.0, rng_seed=99)
    deterministic = np.array_equal(a, b)
    ok = count_ok and collision_free and deterministic
    report(3, "sampler contract", ok,
           f"counts={count_ok}, no-collision={collision_free}, deterministic={deterministic}")
    assert ok


# -- 4: retrieval oracle equivalence ---------------------------------------------


def brute_force_knn(vectors, ids, q, k):
    dists = np.linalg.norm(vectors - q, axis=1)
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))
    return [ids[i] for i in order[:k]]


def test_criterion_4_retrieval_oracle():
    rng = np.random.default_rng(404)
    knn_ok = True
    recall_ok = True
    monotone_ok = True
    for trial in range(100):
        m = int(rng.integers(5, 201))
        nq = int(rng.integers(1, 51))
        dim = int(rng.integers(2, 9))
        vecs = rng.normal(size=(m, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = rng.permutation(m * 3)[:m].astype(np.int64)
        positions = [
            Position(PositionMode.PLANAR,
                     float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            for _ in range(m)
        ]
        index = EmbeddingIndex(ids=ids, vectors=vecs, positions=positions)
        qs = rng.normal(size=(nq, dim))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        k = int(rng.integers(1, m + 1))
        got_ids, _ = knn(index, qs, k)
        for r in range(nq):
            knn_ok &= list(got_ids[r]) == brute_force_knn(vecs, ids, qs[r], k)

        qpos = [positions[int(rng.integers(m))] for _ in range(nq)]
        ns = tuple(sorted(set(int(x) for x in rng.integers(1, m + 1, size=3))))
        rep = recall_at_n(index, qs, qpos, ns, threshold_m=25.0)
        id_to_pos = dict(zip(ids.tolist(), positions))
        for j, n in enumerate(ns):
            hits = 0
            for r in range(nq):
                top = brute_force_knn(vecs, ids, qs[r], n)
                if any(distance_m(id_to_pos[t], qpos[r]) <= 25.0 for t in top):
                    hits += 1
            recall_ok &= abs(rep.recalls[j] - hits / nq) < 1e-15
        monotone_ok &= all(
            rep.recalls[j] <= rep.recalls[j + 1] for j in range(len(ns) - 1)
        )
    ok = knn_ok and recall_ok and monotone_ok
    report(4, "retrieval oracle equivalence", ok,
           f"knn={knn_ok}, recall={recall_ok}, monotone={monotone_ok}")
    assert ok


# -- 5: mining cost reproduction --------------------------------------------------


def test_criterion_5_cost_reproduction():
    t0 = time.perf_counter()
    full_ok = True
    partial_ok = True
    pair_ok = True
    for n_q in (10, 50, 100):
        for n_k in (100, 1000, 5000):
            per = n_k // n_q
            ds = synth_dataset(seed=5, n_places=n_q, db_per_place=per,
                               feature_dim=4, view_noise=0.1)

            led = CostLedger()
            mine_triplets(ds, n_q, MiningConfig(mode=MiningMode.FULL_HNM),
                          lambda x: x, 7, ledger=led)
            pred = predict_cost("full_hnm", n_q, n_k=n_k, n_kn=n_k - per)
            ok, _ = assert_ledger(led, pred, slack=0.05)
            full_ok &= ok

            pool = min(64, n_k)
            led = CostLedger()
            mine_triplets(
                ds, n_q,
                MiningConfig(mode=MiningMode.PARTIAL_HNM, pool_size=pool),
                lambda x: x, 7, ledger=led,
            )
            pred = predict_cost("partial_hnm", n_q, n_kp=n_q, pool=pool)
            ok, _ = assert_ledger(led, pred, slack=0.05)
            partial_ok &= ok

            led = CostLedger()
            build_pairs(ds, m_q=n_q, eta=0.0, rng_seed=7, ledger=led)
            pair_ok &= led.comparisons == 0
            pair_ok &= led.extractions == n_q + n_q  # n_q queries + n_kp positives
    wall = time.perf_counter() - t0
    ok = full_ok and partial_ok and pair_ok and wall < 120.0
    report(5, "mining cost reproduction", ok,
           f"full={full_ok}, partial={partial_ok}, pair_only={pair_ok}, {wall:.1f}s")
    assert ok


# -- 6: learnability at desk scale -------------------------------------------------


def learn_world(seed):
    # view_noise 1.0 measures ~0.70 median untrained R@1 on this layout
    return synth_dataset(seed=seed, n_places=20, db_per_place=8,
                         feature_dim=32, view_noise=1.0)


def test_criterion_6_learnability():
    untrained = []
    for seed in range(3):
        ds = learn_world(seed)
        mcfg = method_config(Method.SIMCLR, input_dim=32, embed_dim=64,
                             proj_layers=1, eta=1.0)
        st = init_state(mcfg.encoder, seed + 100)
        untrained.append(evaluate(st, mcfg, ds, n_values=(1,)).recalls[0])
    untrained_med = float(np.median(untrained))

    results = {}
    times = {}
    for name, method, proj in (
        ("SimCLR-FC-1-64-1", Method.SIMCLR, 1),
        ("BT-FC-2-64-1", Method.BARLOW_TWINS, 2),
    ):
        t0 = time.perf_counter()
        finals = []
        for seed in range(3):
            ds = learn_world(seed)
            mcfg = method_config(method, input_dim=32, embed_dim=64,
                                 proj_layers=proj, eta=1.0)
            tcfg = TrainConfig(epochs=100, batch_size=64, queries_per_epoch=10,
                               lr=1e-3, seed=seed)
            res = run_single(mcfg, ds, tcfg, seed)
            finals.append(res.record.final_recall.recalls[0])
        times[name] = time.perf_counter() - t0
        results[name] = float(np.median(finals))

    ok = (
        0.55 <= untrained_med <= 0.85
        and all(v >= 0.95 for v in results.values())
        and all(t < 300.0 for t in times.values())
    )
    detail = f"untrained R@1={untrained_med:.2f}, " + ", ".join(
        f"{k}={v:.3f} ({times[k]:.0f}s)" for k, v in results.items()
    )
    report(6, "learnability at desk scale", ok, detail)
    assert 0.55 <= untrained_med <= 0.85, untrained_med
    for k, v in results.items():
        assert v >= 0.95, (k, v)
        assert times[k] < 300.0, (k, times[k])


# -- 7: collapse trend -------------------------------------------------------------

# Identical pairs teach the predictor the identity map; once it stops
# regulating the embedding, a long horizon on a noisy world sends the
# self-distillation method into collapse while a batch-statistics method
# shrugs the same pairs off. Shorter horizons only show the precursors
# (predictor identity drift, spread shrink): recall is scale invariant,
# so it holds until cluster merging actually starts.
COLLAPSE_EPOCHS = 5000


def collapse_world():
    return synth_dataset(seed=0, n_places=30, db_per_place=8,
                         feature_dim=32, view_noise=1.75)


def _final_r1(method, eta, seed):
    ds = collapse_world()
    mcfg = method_config(method, input_dim=32, embed_dim=64,
                         proj_layers=2, eta=eta)
    tcfg = TrainConfig(epochs=COLLAPSE_EPOCHS, batch_size=20,
                       queries_per_epoch=10, lr=3e-3, seed=seed)
    res = run_single(mcfg, ds, tcfg, seed)
    return evaluate(res.state, mcfg, ds, n_values=(1,)).recalls[0]


def test_criterion_7_collapse_trend():
    t0 = time.perf_counter()
    med = {}
    for method, tag in ((Method.SIMSIAM, "SimSiam-FC-2-64"),
                        (Method.BARLOW_TWINS, "BT-FC-2-64")):
        for eta in (0.0, 1.0):
            finals = [_final_r1(method, eta, seed) for seed in range(3)]
            med[tag, eta] = float(np.median(finals))
    wall = time.perf_counter() - t0

    ss_gap = med["SimSiam-FC-2-64", 0.0] - med["SimSiam-FC-2-64", 1.0]
    bt_hold = med["BT-FC-2-64", 1.0] >= med["BT-FC-2-64", 0.0] - 0.02
    ok = ss_gap >= 0.05 and bt_hold
    detail = (
        f"SimSiam eta0={med['SimSiam-FC-2-64', 0.0]:.3f} "
        f"eta1={med['SimSiam-FC-2-64', 1.0]:.3f} (gap {ss_gap:+.3f}), "
        f"BT eta0={med['BT-FC-2-64', 0.0]:.3f} "
        f"eta1={med['BT-FC-2-64', 1.0]:.3f}; {wall:.0f}s"
    )
    report(7, "collapse trend", ok, detail)
    assert ss_gap >= 0.05, detail
    assert bt_hold, detail


# -- 8: mechanism flag audit --------------------------------------------------------


# Independent oracle: (momentum encoder, stop gradient, predictor,
# projector batchnorm) per method.
FLAG_TABLE = {
    Method.SIMCLR: (0, 0, 0, 0),
    Method.MOCOV2: (1, 0, 0, 0),
    Method.BYOL: (1, 1, 1, 1),
    Method.SIMSIAM: (0, 1, 1, 1),
    Method.BARLOW_TWINS: (0, 0, 0, 1),
    Method.VICREG: (0, 0, 0, 1),
}


def test_criterion_8_flag_audit():
    all_ok = True
    details = []
    for method, (me, sg, pr, bn) in FLAG_TABLE.items():
        audit = audit_gradient_flow(method, seed=0)
        checks = [audit["ok"]]
        if me:
            checks += [audit["target_exists"], audit["target_ema_moves"],
                       audit["target_not_trainable"]]
        elif sg:
            checks += [audit["target_side_detached"],
                       audit["target_is_stopped_online"]]
        else:
            checks += [audit["no_target_copy"], audit["no_detached_branch"],
                       audit["both_views_tape_connected"]]
        if sg and me:
            checks += [audit["target_side_detached"], audit["target_is_lagged_copy"]]
        checks.append(audit["predictor_params_learn"] if pr
                      else audit["no_predictor_params"])
        checks.append(audit["projector_bn_learns"] if bn
                      else audit["no_projector_bn"])
        method_ok = all(checks)
        all_ok &= method_ok
        details.append(f"{method.value}={'ok' if method_ok else 'BAD'}")
    report(8, "mechanism flag audit", all_ok, ", ".join(details))
    assert all_ok, details
