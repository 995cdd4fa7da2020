import numpy as np
import pytest

from speiserlab import trend
from speiserlab.theorem1 import run_theorem1
from speiserlab.trend import (
    classify_cumulative_sums,
    classify_resistance_curve,
    fit_geometric_tail,
)


def _reference_tail_fit(x, y):
    """One least-squares solve per grid rho; the first least rmse wins."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = None
    for rho in np.linspace(0.02, 0.98, 97):
        A = np.column_stack([np.ones_like(x), -(rho**x)])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        rmse = float(np.sqrt(np.mean((y - A @ coef) ** 2)))
        if best is None or rmse < best[3]:
            best = (float(coef[0]), float(coef[1]), float(rho), rmse)
    return best


def _assert_same_fit(x, y):
    b, a, rho, rmse = fit_geometric_tail(x, y)
    want_b, want_a, want_rho, want_rmse = _reference_tail_fit(x, y)
    scale = float(np.abs(y).max())
    assert rho == want_rho
    assert abs(b - want_b) <= 1e-12 * scale
    assert abs(a - want_a) <= 1e-12 * scale
    assert abs(rmse - want_rmse) <= 1e-12 * scale


@pytest.fixture(scope="module")
def default_fit_inputs():
    """The three curves the default theorem1 run fits a geometric tail to."""
    report = run_theorem1()
    res, vel = report.leg_a["resistance"], report.leg_a["vel_trend"]
    doyle = report.leg_b["doyle"]
    sums = vel["cumulative_lower"]
    return [
        (classify_resistance_curve, res["radii"], res["resistance"]),
        (classify_cumulative_sums, list(range(1, len(sums) + 1)), sums),
        (classify_resistance_curve, doyle["radii"], doyle["resistance"]),
    ]


def test_tail_fit_matches_the_loop_on_the_default_run(default_fit_inputs):
    for _, x, y in default_fit_inputs:
        _assert_same_fit(x, y)


@pytest.mark.parametrize("seed", range(8))
def test_tail_fit_matches_the_loop_on_random_curves(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 61))
    x = np.arange(1, n + 1)
    _assert_same_fit(x, np.cumsum(rng.uniform(0.0, 1.0, n)))
    _assert_same_fit(x, rng.normal(size=n))


def test_tail_fit_recovers_an_exact_geometric_sequence():
    x = np.arange(1, 13)
    y = 3.0 - 2.0 * 0.6**x
    _assert_same_fit(x, y)
    b, a, rho, rmse = fit_geometric_tail(x, y)
    assert rho == pytest.approx(0.6, abs=1e-12)
    assert b == pytest.approx(3.0, rel=1e-12) and a == pytest.approx(2.0, rel=1e-12)
    assert rmse <= 1e-14


def test_tail_fit_of_a_flat_x_is_the_mean():
    b, a, rho, rmse = fit_geometric_tail([3, 3, 3, 3], [1.0, 2.0, 3.0, 6.0])
    assert (b, a, rho) == (3.0, 0.0, 0.02)
    assert rmse == pytest.approx(np.std([1.0, 2.0, 3.0, 6.0]), rel=1e-15)


def test_verdicts_and_tail_rho_match_the_loop(default_fit_inputs, monkeypatch):
    got = [classify(x, y) for classify, x, y in default_fit_inputs]
    monkeypatch.setattr(trend, "fit_geometric_tail", _reference_tail_fit)
    want = [classify(x, y) for classify, x, y in default_fit_inputs]
    for g, w in zip(got, want):
        assert g["verdict"] == w["verdict"]
        assert g["tail_rho"] == w["tail_rho"]


def test_residual_verdict_needs_a_factor_of_two():
    assert trend.residual_verdict(1.0, 3.0) == -1
    assert trend.residual_verdict(3.0, 1.0) == 1
    assert trend.residual_verdict(1.0, 1.5) == 0


def test_cumulative_sums_that_fall_are_inconclusive():
    # the tail fits better, but it is not realized (its limit is negative),
    # and the falling increments are not steady growth
    report = classify_cumulative_sums([1, 2, 3, 4], [1.0, 0.5, 0.2, 0.1])
    assert report["rmse_tail"] * 2 < report["rmse_linear"]
    assert not report["tail_realized"]
    assert report["verdict"] == trend.INCONCLUSIVE


@pytest.mark.parametrize(
    "rs, verdict",
    [
        ([1.0, 2.0, 3.0, 3.0], trend.TRANSIENT),  # the last step is flat
        ([1.0, 1.0, 2.0, 3.0], trend.INCONCLUSIVE),  # an earlier flat step
        ([1.0, 2.0, 2.5, 2.5 + 1e-12], trend.TRANSIENT),  # saturated to 1e-9
    ],
)
def test_resistance_curve_flat_or_saturated_steps(rs, verdict):
    report = classify_resistance_curve([1, 2, 3, 4], rs)
    assert report["verdict"] == verdict
    # decided before the increment ratios are fitted
    assert "increment_ratio_limit" not in report


def test_resistance_curve_ratio_one_without_log_growth_is_inconclusive():
    # rising resistances over falling radii: the increment ratios are 1, but
    # the fit against log n has a negative slope
    report = classify_resistance_curve([4, 3, 2, 1], [1.0, 2.0, 3.0, 4.0])
    assert report["increment_ratio_limit"] == pytest.approx(1.0, abs=1e-12)
    assert report["log_slope"] < 0
    assert report["verdict"] == trend.INCONCLUSIVE


def test_radius_trend_slow_decay_is_inconclusive():
    # ratios near 0.95: neither frozen (>= 0.97) nor a power law (slope -0.17)
    report = trend.classify_radius_trend([2, 3, 4, 5], [1.0, 0.95, 0.9, 0.85])
    assert report["tail_ratio"] < 0.97 and report["power_slope"] > -0.4
    assert report["verdict"] == trend.INCONCLUSIVE
