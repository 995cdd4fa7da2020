"""Model fitting for trend verdicts.

All type outputs on truncations are trend verdicts, not proofs.  The shared
rule: fit two competing models and only call a side when the better model's
residual beats the other by at least a factor of two; otherwise the verdict
is "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_RATIO = 2.0
_EPS = 1e-12

PARABOLIC = "parabolic-leaning"
HYPERBOLIC = "hyperbolic-leaning"
RECURRENT = "recurrent-leaning"
TRANSIENT = "transient-leaning"
CP_PARABOLIC = "cp-parabolic-leaning"
CP_HYPERBOLIC = "cp-hyperbolic-leaning"
INCONCLUSIVE = "inconclusive"


@dataclass
class LinearFit:
    slope: float
    intercept: float
    rmse: float
    r2: float


def fit_linear(x, y) -> LinearFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rmse = float(np.sqrt(np.mean(resid**2)))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LinearFit(slope=float(coef[0]), intercept=float(coef[1]), rmse=rmse, r2=r2)


def fit_proportional(x, y) -> tuple[float, float]:
    """Least squares y = c * x through the origin; returns (c, rmse)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = float(x @ y / (x @ x))
    rmse = float(np.sqrt(np.mean((y - c * x) ** 2)))
    return c, rmse


def fit_geometric_tail(x, y) -> tuple[float, float, float, float]:
    """Least squares y = b - a * rho^x over a grid of rho in (0, 1).

    Returns (b, a, rho, rmse) at the first grid rho of least rmse; models a
    quantity converging geometrically.  All grid points are fitted in one
    array pass, each by the centered normal equations of its two
    coefficients.  With every x equal the model is the mean of y (a = 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rhos = np.linspace(0.02, 0.98, 97)
    dy = y - y.mean()
    if np.ptp(x) == 0:
        return float(y.mean()), 0.0, float(rhos[0]), float(np.sqrt(np.mean(dy**2)))
    p = rhos[:, None] ** x
    p_mean = p.mean(axis=1)
    dp = p - p_mean[:, None]
    a = -(dp @ dy) / np.einsum("ij,ij->i", dp, dp)
    rmse = np.sqrt(np.mean((dy + a[:, None] * dp) ** 2, axis=1))
    i = int(np.argmin(rmse))
    return float(y.mean() + a[i] * p_mean[i]), float(a[i]), float(rhos[i]), float(rmse[i])


def residual_verdict(rmse_first: float, rmse_second: float) -> int:
    """-1 if the first model wins by the ratio rule, +1 if the second, 0 tie."""
    if rmse_first + _EPS <= rmse_second / RESIDUAL_RATIO:
        return -1
    if rmse_second + _EPS <= rmse_first / RESIDUAL_RATIO:
        return 1
    return 0


def classify_cumulative_sums(ks, sums) -> dict:
    """Linear-growth vs convergent-tail verdict for a cumulative-sum sequence.

    Growth ~ c*k means the per-term values stay bounded below (parabolic
    side); a convergent geometric tail means they decay (hyperbolic side).
    A geometric tail with rho near 1 mimics any short linear stretch, so the
    hyperbolic call additionally requires the fitted tail to have flattened
    within the observed range (rho^k_max small); steady unflattened growth
    counts for the parabolic side instead.
    """
    ks = list(ks)
    sums = list(sums)
    if len(ks) < 3:
        return {
            "verdict": INCONCLUSIVE,
            "reason": "need at least 3 data points",
            "rmse_linear": None,
            "rmse_tail": None,
        }
    c, rmse_lin = fit_proportional(ks, sums)
    b, a, rho, rmse_tail = fit_geometric_tail(ks, sums)
    side = residual_verdict(rmse_lin, rmse_tail)
    tail_realized = a > 0 and b > 0 and rho ** max(ks) <= 0.1
    increments = [sums[0]] + [sums[i] - sums[i - 1] for i in range(1, len(sums))]
    steady = increments[-1] >= 0.3 * increments[0] > 0
    if side == 1 and tail_realized:
        verdict = HYPERBOLIC
    elif c > 0 and (side == -1 or steady):
        verdict = PARABOLIC
    else:
        verdict = INCONCLUSIVE
    return {
        "verdict": verdict,
        "linear_rate": c,
        "rmse_linear": rmse_lin,
        "tail_limit": b,
        "tail_rho": rho,
        "tail_realized": tail_realized,
        "rmse_tail": rmse_tail,
    }


def classify_resistance_curve(ns, resistance) -> dict:
    """Unbounded-growth vs saturation verdict for an effective-resistance curve.

    Both stock models (a + c log n and b - a rho^n) are fitted and reported,
    but over a short range either can mimic the other, so the decisive signal
    is the trend of consecutive increment ratios: harmonic-like increments
    (ratio climbing to 1, divergent sum) mean recurrence, geometric increments
    (ratio leveling off below 1, summable) mean transience.  The ratio limit
    is extrapolated against 1/n with 0.9 as the decision line.
    """
    ns = list(ns)
    rs = [float(r) for r in resistance]
    if len(ns) < 4:
        return {"verdict": INCONCLUSIVE, "reason": "need at least 4 data points"}
    growth = fit_linear(np.log(ns), rs)
    b, a, rho, rmse_tail = fit_geometric_tail(ns, rs)
    report = {
        "log_slope": growth.slope,
        "rmse_log_growth": growth.rmse,
        "limit": b,
        "tail_rho": rho,
        "rmse_saturation": rmse_tail,
    }
    deltas = np.diff(rs)
    if (deltas <= 0).any():
        # resistance must increase; a flat step means machine-level saturation
        report["verdict"] = TRANSIENT if deltas[-1] <= 0 else INCONCLUSIVE
        return report
    if deltas[-1] / rs[-1] < 1e-9:
        report["verdict"] = TRANSIENT
        return report
    q = deltas[1:] / deltas[:-1]
    inv_n = 1.0 / np.asarray(ns[2:], dtype=float)
    if len(q) >= 4:
        # early ratios reflect the core of the ball, not the tail
        half = len(q) // 2
        q, inv_n = q[half:], inv_n[half:]
    fit = fit_linear(inv_n, q)
    ratio_limit = fit.intercept
    report["increment_ratio_limit"] = ratio_limit
    if ratio_limit >= 0.9 and growth.slope > 0:
        report["verdict"] = RECURRENT
    elif ratio_limit < 0.9:
        report["verdict"] = TRANSIENT
    else:
        report["verdict"] = INCONCLUSIVE
    return report


def first_converged_n(ns, values) -> int | None:
    """First n whose increment is below 1% of the current value."""
    for i in range(1, len(ns)):
        if values[i] > 0 and (values[i] - values[i - 1]) / values[i] < 0.01:
            return ns[i]
    return None


def classify_radius_trend(ns, rhos) -> dict:
    """Verdict from the root-radius sequence of maximally packed balls.

    The root radius is monotone decreasing in the ball radius; it freezes at
    a positive limit exactly when the infinite packing fills the disk
    (hyperbolic side), and keeps decaying polynomially toward zero when it
    fills the plane (parabolic side).  Frozen consecutive ratios (>= 0.97)
    call the hyperbolic side; a steady power-law decay (log-log slope <=
    -0.4) calls the parabolic side.
    """
    ns = list(ns)
    rhos = [float(r) for r in rhos]
    if len(ns) < 3 or any(r <= 0 for r in rhos):
        return {"verdict": INCONCLUSIVE, "reason": "need 3 positive radii"}
    ratios = [rhos[i + 1] / rhos[i] for i in range(len(rhos) - 1)]
    inv_n = [1.0 / ns[i + 1] for i in range(len(ns) - 1)]
    ratio_limit = fit_linear(inv_n, ratios).intercept
    loglin = fit_linear(ns, np.log(rhos))
    power = fit_linear(np.log(ns), np.log(rhos))
    tail_ratio = 0.5 * (ratios[-1] + ratios[-2]) if len(ratios) >= 2 else ratios[-1]
    if tail_ratio >= 0.97:
        verdict = CP_HYPERBOLIC
    elif power.slope <= -0.4:
        verdict = CP_PARABOLIC
    else:
        verdict = INCONCLUSIVE
    return {
        "verdict": verdict,
        "ratio_limit": ratio_limit,
        "ratios": ratios,
        "tail_ratio": tail_ratio,
        "power_slope": power.slope,
        "log_slope": loglin.slope,
        "log_r2": loglin.r2,
    }
