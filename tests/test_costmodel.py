"""Closed-form cost predictions and ledger comparison."""

import pytest

from vgssl.costmodel import CostLedger, assert_ledger, predict_cost


class TestLedger:
    def test_counters_accumulate(self):
        led = CostLedger()
        led.add_extractions(5)
        led.add_extractions(3)
        led.add_comparisons(10)
        led.note_cached(7)
        led.note_cached(4)  # peak keeps the max
        assert led.extractions == 8
        assert led.comparisons == 10
        assert led.peak_cached == 7

    def test_negative_rejected(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            led.add_extractions(-1)
        with pytest.raises(ValueError):
            led.add_comparisons(-1)

    def test_snapshot(self):
        led = CostLedger(extractions=1, comparisons=2, peak_cached=3)
        assert led.snapshot() == {"extractions": 1, "comparisons": 2, "peak_cached": 3}


class TestPredict:
    def test_pair_only(self):
        led = predict_cost("pair_only", n_q=50, n_kp=50)
        assert led.extractions == 100
        assert led.comparisons == 0
        assert led.peak_cached == 100

    def test_full_hnm(self):
        led = predict_cost("full_hnm", n_q=10, n_k=1000, n_kn=990)
        assert led.extractions == 1010
        assert led.comparisons == 10 * 990
        assert led.peak_cached == 1010

    def test_full_hnm_defaults_to_whole_database(self):
        led = predict_cost("full_hnm", n_q=10, n_k=1000)
        assert led.comparisons == 10 * 1000

    def test_partial_hnm(self):
        led = predict_cost("partial_hnm", n_q=10, n_kp=10, pool=64)
        assert led.extractions == 10 + 64 + 10
        assert led.comparisons == 640
        assert led.peak_cached == 84

    def test_partial_requires_pool(self):
        with pytest.raises(ValueError):
            predict_cost("partial_hnm", n_q=10)

    def test_random_is_free(self):
        led = predict_cost("random", n_q=10, n_k=1000)
        assert led.snapshot() == {"extractions": 0, "comparisons": 0, "peak_cached": 0}

    def test_zero_queries_cost_nothing(self):
        led = predict_cost("full_hnm", n_q=0, n_k=1000)
        assert led.snapshot() == {"extractions": 0, "comparisons": 0, "peak_cached": 0}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            predict_cost("telepathy", n_q=1)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            predict_cost("pair_only", n_q=-1)


class TestAssertLedger:
    def test_exact_match_passes(self):
        p = predict_cost("pair_only", n_q=5, n_kp=5)
        ok, deltas = assert_ledger(p, p, slack=0.0)
        assert ok
        assert all(v == 0.0 for v in deltas.values())

    def test_within_slack_passes(self):
        pred = CostLedger(extractions=100, comparisons=1000, peak_cached=100)
        meas = CostLedger(extractions=104, comparisons=960, peak_cached=100)
        ok, deltas = assert_ledger(meas, pred, slack=0.05)
        assert ok
        assert deltas["extractions"] == pytest.approx(0.04)
        assert deltas["comparisons"] == pytest.approx(-0.04)

    def test_outside_slack_fails(self):
        pred = CostLedger(extractions=100, comparisons=1000, peak_cached=100)
        meas = CostLedger(extractions=100, comparisons=1100, peak_cached=100)
        ok, deltas = assert_ledger(meas, pred, slack=0.05)
        assert not ok
        assert deltas["comparisons"] == pytest.approx(0.10)

    def test_zero_prediction_uses_absolute_floor(self):
        # comparisons predicted 0: any measured value is relative to 1.
        pred = CostLedger()
        meas = CostLedger(comparisons=0)
        ok, _ = assert_ledger(meas, pred, slack=0.0)
        assert ok

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            assert_ledger(CostLedger(), CostLedger(), slack=-0.1)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf"), -0.1])
    def test_slack_must_be_finite_and_not_negative(self, slack):
        # A NaN or infinite slack would pass a ledger a billion times off.
        with pytest.raises(ValueError) as err:
            assert_ledger(CostLedger(10**9, 0, 0), CostLedger(1, 0, 0), slack=slack)
        assert str(err.value) == f"slack must be finite and not negative, got {slack!r}"
