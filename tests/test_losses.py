"""Objective values against hand-computed cases, plus policy contracts."""

import numpy as np
import pytest

from vgssl.autodiff import Value
from vgssl.losses import (
    DegenerateInputError,
    LossConfig,
    Method,
    barlow_twins_loss,
    compute_loss,
    cross_correlation_matrix,
    embedding_prediction_loss,
    infonce_loss,
    l2_normalize_rows,
    triplet_margin_loss,
    vicreg_loss,
)


def V(a):
    return Value(np.asarray(a, dtype=np.float64))


class TestNormalize:
    def test_rows_become_unit(self):
        x = V([[3.0, 4.0], [0.0, 2.0]])
        n = l2_normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(n.data, axis=1), [1.0, 1.0])

    def test_zero_row_raises_with_row_index(self):
        x = V([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            l2_normalize_rows(x)


class TestTriplet:
    def test_inactive_hinge_is_zero(self):
        a = V([[1.0, 0.0]])
        p = V([[1.0, 0.0]])
        n = V([[0.0, 1.0]])
        loss = triplet_margin_loss(a, p, n, margin=0.1)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_active_hinge_value(self):
        a = V([[1.0, 0.0]])
        p = V([[0.0, 1.0]])
        n = V([[1.0, 0.0]])
        loss = triplet_margin_loss(a, p, n, margin=0.1)
        assert loss.item() == pytest.approx(np.sqrt(2.0) + 0.1, abs=1e-9)

    def test_normalization_makes_scale_irrelevant(self):
        rng = np.random.default_rng(0)
        a, p, n = rng.normal(size=(3, 4, 3))
        l1 = triplet_margin_loss(V(a), V(p), V(n), margin=0.2)
        l2 = triplet_margin_loss(V(a * 7), V(p * 0.01), V(n * 3), margin=0.2)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-9)

    def test_coincident_anchor_positive_has_finite_gradient(self):
        a = V([[1.0, 0.0]])
        p = V([[2.0, 0.0]])  # same direction: zero distance after normalizing
        n = V([[0.6, 0.8]])
        loss = triplet_margin_loss(a, p, n, margin=0.5)
        loss.backward()
        assert np.all(np.isfinite(a.grad))


class TestContrastive:
    def test_identity_views_unit_temperature(self):
        q = V(np.eye(2))
        loss = infonce_loss(q, V(np.eye(2)), tau=1.0)
        # Per row: log(e^1 + e^0) - 1 = log(1 + e^-1)
        assert loss.item() == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_high_temperature_approaches_log_n(self):
        q = V(np.eye(4))
        loss = infonce_loss(q, V(np.eye(4)), tau=1000.0)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-3)

    def test_denominator_includes_positive(self):
        # With orthonormal rows and tau=1 the value pins the convention.
        q = V(np.eye(3))
        loss = infonce_loss(q, V(np.eye(3)), tau=1.0)
        expected = np.log(np.e + 2.0) - 1.0  # includes the e^1 positive term
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_symmetric_swap_invariance(self):
        rng = np.random.default_rng(1)
        q = V(rng.normal(size=(6, 4)))
        k = V(rng.normal(size=(6, 4)))
        a = infonce_loss(q, k, tau=0.07, symmetric=True).item()
        b = infonce_loss(k, q, tau=0.07, symmetric=True).item()
        assert abs(a - b) < 1e-12

    def test_one_way_is_not_swap_invariant(self):
        rng = np.random.default_rng(2)
        q = V(rng.normal(size=(6, 4)))
        k = V(rng.normal(size=(6, 4)))
        a = infonce_loss(q, k, tau=0.07, symmetric=False).item()
        b = infonce_loss(k, q, tau=0.07, symmetric=False).item()
        assert abs(a - b) > 1e-6

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            infonce_loss(V([[1.0, 0.0]]), V([[1.0, 0.0]]), tau=1.0)

    def test_aligned_beats_shuffled(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(8, 5))
        aligned = infonce_loss(V(z), V(z + rng.normal(size=z.shape) * 0.01), tau=0.07)
        shuffled = infonce_loss(V(z), V(z[::-1].copy()), tau=0.07)
        assert aligned.item() < shuffled.item()


class TestEmbeddingPrediction:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        loss = embedding_prediction_loss(V(z), V(z * 3.0))  # scale invariant
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_two(self):
        p = V([[1.0, 0.0]])
        t = V([[0.0, 1.0]])
        assert embedding_prediction_loss(p, t).item() == pytest.approx(2.0, abs=1e-12)

    def test_antialigned_is_four(self):
        p = V([[1.0, 0.0]])
        t = V([[-1.0, 0.0]])
        assert embedding_prediction_loss(p, t).item() == pytest.approx(4.0, abs=1e-12)

    def test_range_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = V(rng.normal(size=(6, 5)))
            t = V(rng.normal(size=(6, 5)))
            val = embedding_prediction_loss(p, t).item()
            assert -1e-9 <= val <= 4.0 + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            embedding_prediction_loss(V(np.zeros((2, 3))), V(np.zeros((2, 4))))


class TestCrossCorrelation:
    def test_identical_orthogonal_columns_give_identity(self):
        z = V([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        c = cross_correlation_matrix(z, z)
        np.testing.assert_allclose(c.data, np.eye(2), atol=1e-12)

    def test_known_off_diagonal(self):
        # Columns at 60 degrees: C = [[1, .5], [.5, 1]].
        z = V([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        c = cross_correlation_matrix(z, z)
        np.testing.assert_allclose(c.data, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_not_centered(self):
        # A constant positive column correlates fully with itself even
        # though its centered variance is zero; no centering happens.
        z = V([[1.0], [1.0], [1.0]])
        c = cross_correlation_matrix(z, z)
        assert c.data[0, 0] == pytest.approx(1.0)

    def test_zero_column_raises(self):
        z = V([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="column 1"):
            cross_correlation_matrix(z, z)


class TestBarlowTwins:
    def test_identity_correlation_is_zero(self):
        z = V([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        loss, terms = barlow_twins_loss(z, z, lam=5e-3)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        assert terms["on_diag"] == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        z = V([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        loss, terms = barlow_twins_loss(z, z, lam=5e-3)
        # on = 0, off = 2 * 0.25 * 0.005 = 0.0025
        assert loss.item() == pytest.approx(0.0025, abs=1e-12)
        assert terms["off_diag"] == pytest.approx(0.0025, abs=1e-12)

    def test_off_diagonal_is_sign_invariant(self):
        # The off-diagonal penalty is squared: flipping the sign of a
        # correlation leaves the loss unchanged, and it is positive.
        za = V([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        zb = V([[1.0, -0.5], [0.0, np.sqrt(3) / 2]])
        sq, _ = barlow_twins_loss(za, za, lam=1.0)
        sq_flip, _ = barlow_twins_loss(zb, zb, lam=1.0)
        assert sq.item() > 0
        assert sq.item() == pytest.approx(sq_flip.item(), abs=1e-12)


class TestVicreg:
    def test_constructed_exact_zero(self):
        # Centered, orthogonal, high-variance columns; identical views.
        col1 = np.array([2.0, -2.0, 2.0, -2.0])
        col2 = np.array([2.0, 2.0, -2.0, -2.0])
        z = V(np.stack([col1, col2], axis=1))
        loss, terms = vicreg_loss(z, z, 25.0, 25.0, 1.0, std_margin=1.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)
        assert terms["variance"] == pytest.approx(0.0, abs=1e-9)
        assert terms["covariance"] == pytest.approx(0.0, abs=1e-9)

    def test_all_zeros_hits_variance_floor(self):
        z = V(np.zeros((4, 2)))
        loss, terms = vicreg_loss(z, z, 25.0, 1.0, 1.0, std_margin=1.0)
        # Both views pay mean_d max(1 - 0.01, 0) = 0.99 each.
        assert loss.item() == pytest.approx(1.98, abs=0.02)
        assert terms["invariance"] == 0.0

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            vicreg_loss(V([[1.0, 2.0]]), V([[1.0, 2.0]]), 25.0, 25.0, 1.0, 1.0)

    def test_invariance_term_scales_with_gap(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(6, 4))
        near, t1 = vicreg_loss(V(z), V(z + 0.01), 25.0, 25.0, 1.0, 1.0)
        far, t2 = vicreg_loss(V(z), V(z + 1.0), 25.0, 25.0, 1.0, 1.0)
        assert t2["invariance"] > t1["invariance"] > 0


class TestLossConfig:
    def test_symmetric_defaults(self):
        assert LossConfig(Method.BYOL).symmetric is True
        assert LossConfig(Method.SIMSIAM).symmetric is True
        assert LossConfig(Method.SIMCLR).symmetric is False
        assert LossConfig(Method.MOCOV2).symmetric is False

    @pytest.mark.parametrize("value", ["no", 0, 1, "true"])
    def test_symmetric_takes_only_a_bool_or_none(self, value):
        # A truthy string must not switch the symmetric loss on.
        with pytest.raises(ValueError,
                           match=f"^symmetric must be true, false or null, got {value!r}$"):
            LossConfig(Method.SIMSIAM, symmetric=value)
        assert LossConfig(Method.SIMSIAM, symmetric=False).symmetric is False

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            LossConfig(Method.SIMCLR, tau=0.0)

    @pytest.mark.parametrize("name", ["tau", "margin", "lambda_bt", "lambda_inv",
                                      "lambda_var", "lambda_cov", "std_margin"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf"),
                                       "1.0", None, True])
    def test_impossible_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LossConfig(Method.VICREG, **{name: value})

    @pytest.mark.parametrize("name", ["margin", "lambda_bt", "lambda_inv", "lambda_var",
                                      "lambda_cov", "std_margin"])
    def test_zero_weights_and_margins_allowed(self, name):
        assert getattr(LossConfig(Method.VICREG, **{name: 0.0}), name) == 0.0


class TestDispatch:
    def test_triplet_requires_negative(self):
        cfg = LossConfig(Method.TRIPLET)
        with pytest.raises(ValueError) as err:
            compute_loss(cfg, V(np.eye(2)), V(np.eye(2)))
        assert str(err.value) == "triplet loss takes 3 views, got 2"

    def test_prediction_requires_reverse_branches_when_symmetric(self):
        cfg = LossConfig(Method.BYOL)
        with pytest.raises(ValueError) as err:
            compute_loss(cfg, V(np.eye(2)), V(np.eye(2)))
        assert str(err.value) == "byol loss takes 4 views, got 2"

    def test_one_way_prediction_takes_two_views(self):
        cfg = LossConfig(Method.SIMSIAM, symmetric=False)
        out = compute_loss(cfg, V(np.eye(2)), V(np.eye(2)))
        assert out.value == 0.0
        assert set(out.per_term) == {"prediction"}

    def test_output_carries_value_and_terms(self):
        cfg = LossConfig(Method.VICREG)
        rng = np.random.default_rng(7)
        out = compute_loss(cfg, V(rng.normal(size=(4, 3))), V(rng.normal(size=(4, 3))))
        assert out.value == pytest.approx(out.node.item())
        assert set(out.per_term) == {"invariance", "variance", "covariance"}
        assert out.value == pytest.approx(sum(out.per_term.values()), rel=1e-9)

    def test_simclr_end_to_end(self):
        cfg = LossConfig(Method.SIMCLR, tau=1.0)
        out = compute_loss(cfg, V(np.eye(2)), V(np.eye(2)))
        assert out.value == pytest.approx(0.3132616875182228, abs=1e-12)


class TestGradientsSpot:
    """Full per-method gradient checks live with the acceptance suite;
    these pin the loss-local gradients early."""

    def fd(self, fn, a, h=1e-6):
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(a)
            flat[i] = orig - h
            lo = fn(a)
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * h)
        return g

    def test_infonce_grad(self):
        rng = np.random.default_rng(8)
        q0 = rng.normal(size=(4, 3))
        k = rng.normal(size=(4, 3))
        qv = V(q0.copy())
        infonce_loss(qv, V(k), tau=0.5).backward()
        fd = self.fd(lambda a: infonce_loss(V(a), V(k), tau=0.5).item(), q0.copy())
        rel = np.max(np.abs(qv.grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4

    def test_vicreg_grad(self):
        rng = np.random.default_rng(9)
        q0 = rng.normal(size=(5, 3)) * 2.0
        k = rng.normal(size=(5, 3)) * 2.0
        qv = V(q0.copy())
        vicreg_loss(qv, V(k), 25.0, 25.0, 1.0, std_margin=1.5)[0].backward()
        fd = self.fd(
            lambda a: vicreg_loss(V(a), V(k), 25.0, 25.0, 1.0, std_margin=1.5)[0].item(),
            q0.copy(),
        )
        rel = np.max(np.abs(qv.grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4

    def test_barlow_twins_grad(self):
        rng = np.random.default_rng(10)
        z0 = rng.normal(size=(5, 3))
        zb = rng.normal(size=(5, 3))
        zv = V(z0.copy())
        barlow_twins_loss(zv, V(zb), lam=5e-3)[0].backward()
        fd = self.fd(lambda a: barlow_twins_loss(V(a), V(zb), lam=5e-3)[0].item(), z0.copy())
        rel = np.max(np.abs(zv.grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4
