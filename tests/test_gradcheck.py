import numpy as np
import pytest

from vgssl.autodiff import Value
from vgssl.encoder import _run
from vgssl.gradcheck import (
    ALL_METHODS,
    KINK_MARGIN,
    GradCheckResult,
    _hinge_signature,
    _kink_margin,
    gradcheck_all,
    gradcheck_method,
    relative_error,
)
from vgssl.losses import Method


class TestRelativeError:
    def test_identical_vectors_are_zero(self):
        g = np.array([1.0, -2.0, 3.0])
        assert relative_error(g, g) == 0.0

    def test_scale_free(self):
        fd = np.array([2.0, 0.0])
        an = np.array([2.0, 0.002])
        # off-by-0.002 against a max magnitude of 2
        assert relative_error(an, fd) == pytest.approx(1e-3)

    def test_null_direction_noise_does_not_blow_up(self):
        # Both sides carry only rounding residue; the global scale in the
        # denominator must come from elsewhere in the gradient, so a
        # comparison of pure noise against pure noise stays benign.
        fd = np.array([1.0, 1e-11])
        an = np.array([1.0, -1e-11])
        assert relative_error(an, fd) < 1e-10

    def test_missing_gradient_is_loud(self):
        fd = np.array([0.5, 0.5])
        an = np.zeros(2)
        assert relative_error(an, fd) > 0.9


class TestKinkScan:
    def test_near_kink_detected(self):
        x = Value(np.array([2.0, 0.5 + 1e-6, -3.0]))
        y = x.maximum(0.5).sum()
        assert _kink_margin(y) == pytest.approx(1e-6)
        assert _kink_margin(y) < KINK_MARGIN

    def test_far_from_kink_passes(self):
        x = Value(np.array([2.0, -2.0]))
        y = x.relu().sum()
        assert _kink_margin(y) == 2.0

    def test_fused_relu_is_a_hinge(self):
        # An encoder run's ``_aux`` shows the scan its pre-activation, as the
        # separate maximum node of the chain it replaces does.
        # Pre-activations 2, -1 and a dead unit 3e-6 below its kink.
        h, W = np.ones((2, 1)), np.ones((1, 3))
        b = np.array([1.0, -2.0, -1.0 - 3e-6])
        layer = ("out", 1, 3, None, True)
        node = _run([layer], {"out.W": Value(W), "out.b": Value(b)}, Value(h), {}, True, True)
        assert node._op == "run" and len(node._aux) == 1
        np.testing.assert_array_equal(node._aux[0], h @ W + b)
        fused = node.sum()
        chain = (Value(h) @ Value(W) + Value(b)).relu().sum()
        assert _kink_margin(fused) == _kink_margin(chain) == pytest.approx(3e-6)
        np.testing.assert_array_equal(_hinge_signature(fused), _hinge_signature(chain))

    def test_tape_without_hinges_is_unbounded(self):
        x = Value(np.array([1.0, 2.0]))
        y = (x * x).sum()
        assert _kink_margin(y) == np.inf


class TestGradcheckAll:
    @pytest.mark.parametrize("kwargs, message", [
        ({"methods": ()}, "methods must list at least one method"),
        ({"instances": 0}, "instances must be at least 1, got 0"),
        ({"instances": -2}, "instances must be at least 1, got -2"),
        ({"tol": 0.0}, "tol must be a finite number above 0, got 0.0"),
        ({"tol": -1e-4}, "tol must be a finite number above 0, got -0.0001"),
        ({"tol": float("inf")}, "tol must be a finite number above 0, got inf"),
        ({"tol": float("nan")}, "tol must be a finite number above 0, got nan"),
    ], ids=["no_methods", "instances_zero", "instances_negative", "tol_zero", "tol_negative",
            "tol_inf", "tol_nan"])
    def test_a_check_of_nothing_raises(self, kwargs, message):
        # Each of these would otherwise return a verdict with nothing checked.
        with pytest.raises(ValueError) as err:
            gradcheck_all(**{"methods": (Method.SIMCLR,), **kwargs})
        assert str(err.value) == message

    def test_seed_numbers_the_instances(self):
        runs = gradcheck_all((Method.SIMCLR,), instances=2, seed=5)[Method.SIMCLR]
        assert [r.seed for r in runs] == [5, 6]
        assert all(r.passed for r in runs)


class TestHarness:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.value)
    def test_every_method_passes(self, method):
        for seed in range(3):
            r = gradcheck_method(method, seed=seed)
            assert isinstance(r, GradCheckResult)
            assert r.passed, f"{method.value} seed {seed}: {r.max_rel_err:.3e}"
            assert r.max_rel_err < 1e-4

    def test_deterministic(self):
        a = gradcheck_method(Method.BARLOW_TWINS, seed=7)
        b = gradcheck_method(Method.BARLOW_TWINS, seed=7)
        assert a.max_rel_err == b.max_rel_err
        assert a.per_coord == b.per_coord

    def test_covers_params_and_inputs(self):
        r = gradcheck_method(Method.BYOL, seed=1)
        names = set(r.per_coord)
        assert "input.anchors" in names and "input.partners" in names
        assert any(n.startswith("trunk.") for n in names)
        assert any(n.startswith("proj.") for n in names)
        assert any(n.startswith("pred.") for n in names)

    def test_triplet_covers_negatives(self):
        r = gradcheck_method(Method.TRIPLET, seed=1)
        assert "input.negatives" in r.per_coord

    def test_corrupted_gradient_is_caught(self):
        # Sign-flip one analytic entry; a harness that still reports
        # success would pass wrong gradients in real use.
        r = gradcheck_method(Method.SIMCLR, seed=0, corrupt=True)
        assert not r.passed
        assert r.max_rel_err > 1e-2

    def test_corruption_off_by_default(self):
        r = gradcheck_method(Method.SIMCLR, seed=0)
        assert r.passed

    def test_amplified_hinge_crossing_redrawn(self):
        # This seed's first draw hides a hinge just off the static margin
        # that a perturbed step still reaches through the batchnorm std;
        # the per-quotient signature check must spot it and redraw rather
        # than report a large spurious error on the final projector bias.
        r = gradcheck_method(Method.BYOL, seed=10)
        assert r.redraws >= 1
        assert r.passed, f"max_rel={r.max_rel_err:.3e}"


# Instances where the plain central difference at FD_STEP misses tol by its
# h² truncation term alone (relative errors 1.4e-4 to 1.2e-3).
TRUNCATION_SEEDS = ([(Method.SIMCLR, s) for s in (160, 181, 183, 223, 280, 313, 344)]
                    + [(Method.MOCOV2, s) for s in (160, 181, 183, 223, 280)])


class TestTruncation:
    @pytest.mark.parametrize("method, seed", TRUNCATION_SEEDS,
                             ids=lambda x: getattr(x, "value", x))
    def test_truncation_seeds_pass(self, method, seed):
        r = gradcheck_method(method, seed=seed)
        assert r.passed, f"{method.value} seed {seed}: {r.max_rel_err:.3e}"

    @pytest.mark.parametrize("method, seed", TRUNCATION_SEEDS[::4],
                             ids=lambda x: getattr(x, "value", x))
    def test_extrapolated_quotients_agree_to_rounding(self, method, seed):
        # A tol no plain quotient meets extrapolates every coordinate.
        r = gradcheck_method(method, seed=seed, tol=1e-300)
        assert not r.passed and r.max_rel_err < 1e-6

    @pytest.mark.parametrize("method, seed", TRUNCATION_SEEDS[::4],
                             ids=lambda x: getattr(x, "value", x))
    def test_corrupted_gradient_is_still_caught(self, method, seed):
        r = gradcheck_method(method, seed=seed, corrupt=True)
        assert not r.passed and r.max_rel_err > 1e-2
