"""Closed-form calculators for the finite-sample k-NN regression theory.

All formulas use the natural logarithm.  Every calculator is a pure
function of its inputs; missing constants raise MissingParameterError
naming each absent field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


class MissingParameterError(ValueError):
    def __init__(self, names):
        self.names = tuple(names)
        super().__init__("missing bound parameter(s): " + ", ".join(self.names))


@dataclass(frozen=True)
class BoundParams:
    """User-supplied constants feeding the bound calculators.

    dim      ambient dimension D
    gamma    support regularity fraction in (0, 1]
    p0       density lower bound > 0
    r0       support regularity radius > 0
    sigma    sub-Gaussian noise parameter >= 0
    delta    confidence level in (0, 1)
    alpha    smoothness exponent in (0, 1]
    c_alpha  smoothness constant >= 0
    beta     level-boundary regularity exponent > 0
    c_low    lower regularity constant > 0
    c_high   upper regularity constant > 0
    r_m      regularity neighborhood radius > 0
    d        intrinsic dimension <= dim
    tau      reciprocal condition number of the manifold > 0
    m2       second-moment constant sqrt(E[y^2]) >= 0
    """

    dim: int
    gamma: Optional[float] = None
    p0: Optional[float] = None
    r0: Optional[float] = None
    sigma: Optional[float] = None
    delta: Optional[float] = None
    alpha: Optional[float] = None
    c_alpha: Optional[float] = None
    beta: Optional[float] = None
    c_low: Optional[float] = None
    c_high: Optional[float] = None
    r_m: Optional[float] = None
    d: Optional[int] = None
    tau: Optional[float] = None
    m2: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        _check_range("gamma", self.gamma, 0.0, 1.0, lo_open=True)
        _check_positive("p0", self.p0)
        _check_positive("r0", self.r0)
        _check_nonnegative("sigma", self.sigma)
        _check_range("delta", self.delta, 0.0, 1.0, lo_open=True, hi_open=True)
        _check_range("alpha", self.alpha, 0.0, 1.0, lo_open=True)
        _check_nonnegative("c_alpha", self.c_alpha)
        _check_positive("beta", self.beta)
        _check_positive("c_low", self.c_low)
        _check_positive("c_high", self.c_high)
        _check_positive("r_m", self.r_m)
        if self.d is not None and not (1 <= self.d <= self.dim):
            raise ValueError(f"intrinsic dimension d={self.d} outside [1, dim]")
        _check_positive("tau", self.tau)
        _check_nonnegative("m2", self.m2)

    def require(self, *names) -> None:
        missing = [nm for nm in names if getattr(self, nm) is None]
        if missing:
            raise MissingParameterError(missing)


def _check_range(name, v, lo, hi, lo_open=False, hi_open=False):
    if v is None:
        return
    ok_lo = v > lo if lo_open else v >= lo
    ok_hi = v < hi if hi_open else v <= hi
    if not (ok_lo and ok_hi):
        raise ValueError(f"{name}={v} outside the valid range")


def _check_positive(name, v):
    if v is not None and not v > 0:
        raise ValueError(f"{name}={v} must be > 0")


def _check_nonnegative(name, v):
    if v is not None and not v >= 0:
        raise ValueError(f"{name}={v} must be >= 0")


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim: pi^(dim/2) / Gamma(dim/2 + 1)."""
    dim = int(dim)
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0))


def variance_term(params: BoundParams, n: int, k: int) -> float:
    """Noise contribution: 2*sigma * sqrt((D*log n + log(2/delta)) / k)."""
    params.require("sigma", "delta")
    n, k = _check_nk(n, k)
    return 2.0 * params.sigma * math.sqrt(
        (params.dim * math.log(n) + math.log(2.0 / params.delta)) / k)


def radius_bound(params: BoundParams, n: int, k: int, check: bool = True) -> float:
    """High-probability uniform bound on the k-NN radius:
    (2k / (gamma * v_D * n * p0))^(1/D)."""
    params.require("gamma", "p0")
    n, k = _check_nk(n, k)
    if check and params.delta is not None and params.r0 is not None:
        report = k_range_check(params, n, k, "full")
        if not report.passed:
            warnings.warn(
                f"k={k} outside the valid window for n={n}; the radius bound "
                "is computed anyway", RuntimeWarning, stacklevel=2)
    v = unit_ball_volume(params.dim)
    return (2.0 * k / (params.gamma * v * n * params.p0)) ** (1.0 / params.dim)


def manifold_radius_bound(params: BoundParams, n: int, k: int) -> float:
    """Intrinsic-dimension radius bound: (4k / (v_d * n * p0))^(1/d).
    Independent of the ambient dimension."""
    params.require("d", "p0")
    n, k = _check_nk(n, k)
    v = unit_ball_volume(params.d)
    return (4.0 * k / (v * n * params.p0)) ** (1.0 / params.d)


def holder_bound(params: BoundParams, n: int, k: int,
                 manifold: bool = False) -> float:
    """Smoothness error bound: c_alpha * (radius bound)^alpha + variance term.

    The manifold flag swaps in the intrinsic radius bound; the variance term
    keeps the ambient dimension inside the logarithm either way.
    """
    params.require("alpha", "c_alpha")
    if manifold:
        rb = manifold_radius_bound(params, n, k)
    else:
        rb = radius_bound(params, n, k, check=False)
    return params.c_alpha * rb ** params.alpha + variance_term(params, n, k)


@dataclass(frozen=True)
class KCheck:
    """One inequality of a k-window, recorded as lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class KRangeReport:
    setting: str
    n: int
    k: int
    checks: tuple
    passed: bool


_K_SETTINGS = ("full", "manifold", "levelset", "maxima")

_K_REQUIRED = {
    "full": ("gamma", "p0", "r0", "delta"),
    "manifold": ("p0", "d", "tau", "delta"),
    "levelset": ("gamma", "p0", "r0", "sigma", "delta", "beta", "c_low",
                 "c_high", "r_m", "m2"),
    "maxima": ("gamma", "p0", "r0", "sigma", "delta", "c_low", "c_high", "r_m"),
}


def k_range_check(params: BoundParams, n: int, k: int,
                  setting: str) -> KRangeReport:
    """Evaluate every k-window inequality of the chosen setting and report
    each side.  The absolute constants (2^8, 2^10, ...) are conservative,
    so failures at practical sample sizes are expected and recorded, not
    raised."""
    if setting not in _K_SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {_K_SETTINGS}")
    params.require(*_K_REQUIRED[setting])
    n, k = _check_nk(n, k, allow_large_k=True)
    D = params.dim
    logn = math.log(n)
    checks = [KCheck("k_at_least_one", 1.0, float(k), k >= 1),
              KCheck("k_le_n", float(k), float(n), k <= n)]

    if setting == "full":
        log2_4d = math.log(4.0 / params.delta) ** 2
        lo = 2.0 ** 8 * D * log2_4d * logn
        hi = 0.5 * params.gamma * params.p0 * unit_ball_volume(D) \
            * params.r0 ** D * n
        checks.append(KCheck("k_lower_full", lo, float(k), lo <= k))
        checks.append(KCheck("k_upper_full", float(k), hi, k <= hi))
    elif setting == "manifold":
        d = params.d
        log2_4d = math.log(4.0 / params.delta) ** 2
        lo = 2.0 ** 8 * D * log2_4d * logn
        hi = 0.25 * min(params.tau / (4.0 * d), 1.0 / params.tau) ** d \
            * params.p0 * unit_ball_volume(d) * n
        checks.append(KCheck("k_lower_manifold", lo, float(k), lo <= k))
        checks.append(KCheck("k_upper_manifold", float(k), hi, k <= hi))
    elif setting == "levelset":
        b, D_ = params.beta, float(D)
        log4d = math.log(4.0 / params.delta)
        rmin = 2.0 * min(params.r_m, params.r0)
        lo = 8.0 * max(1.0, 40.0 * params.m2 ** 2
                       / (rmin ** (2.0 * b) * params.c_low ** 2)) * log4d * D * logn
        hi = ((4.0 * params.sigma ** 2 / params.c_high)
              ** (2.0 * D_ / (2.0 * b + D_))
              * (D * logn + log4d) ** (b / (2.0 * b + D_))
              * (2.0 * params.gamma * params.p0 * unit_ball_volume(D))
              ** (2.0 * b / (2.0 * b + D_))
              * n ** (2.0 * b / (2.0 * b + D_)))
        checks.append(KCheck("k_lower_levelset", lo, float(k), lo <= k))
        checks.append(KCheck("k_upper_levelset", float(k), hi, k <= hi))
    else:  # maxima
        log2_4d = math.log(4.0 / params.delta) ** 2
        if params.sigma == 0.0:
            denom = 1.0  # noiseless: min{1, +inf}
        else:
            denom = min(1.0, params.c_low ** 2 * params.r_m ** 4
                        / params.sigma ** 2)
        lo = 2.0 ** 10 * D * log2_4d * logn / denom
        hi = 0.5 * params.gamma * params.p0 * unit_ball_volume(D) * n \
            * min(params.r0 ** D,
                  (params.c_low * params.r_m ** 2 / (32.0 * params.c_high))
                  ** (D / 2.0))
        checks.append(KCheck("k_lower_maxima", lo, float(k), lo <= k))
        checks.append(KCheck("k_upper_maxima", float(k), hi, k <= hi))

    return KRangeReport(setting=setting, n=n, k=k, checks=tuple(checks),
                        passed=all(c.passed for c in checks))


_OPT_MODES = ("regression", "levelset_beta", "maxima")


def optimal_k(n: int, alpha: float, dim: int, mode: str) -> int:
    """Rate-optimal neighbor count, max(1, round(n^e)) with
    e = 2a/(2a+dim) for regression and level sets (pass beta through the
    alpha slot) and e = 4/(4+dim) for maxima."""
    if mode not in _OPT_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_OPT_MODES}")
    n = int(n)
    if n < 2:
        return 1
    if mode == "maxima":
        e = 4.0 / (4.0 + dim)
    else:
        if alpha is None or alpha <= 0:
            raise ValueError("a positive exponent is required for this mode")
        e = 2.0 * alpha / (2.0 * alpha + dim)
    return max(1, int(round(n ** e)))


def knn_set_count_bound(n: int, dim: int) -> int:
    """Combinatorial cap on the number of distinct neighbor sets: D * n^D.
    Exact integer arithmetic, never wraps."""
    n, dim = int(n), int(dim)
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be >= 1")
    return dim * n ** dim


@dataclass(frozen=True)
class LevelSetEpsilon:
    epsilon: float


def level_set_epsilon(data, dim: int, k: int, delta: float) -> LevelSetEpsilon:
    """Data-driven margin for level-set recovery:
    sigma_hat = sqrt((2/n) * sum(y_i^2)) and
    epsilon = 4 * sigma_hat * sqrt((D*log n + log(2/delta)) / k)."""
    y = np.asarray(data.y, dtype=np.float64)
    n = y.shape[0]
    if n < 2:
        raise ValueError("needs at least two observations")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma_hat = math.sqrt(2.0 / n * float(np.sum(y * y)))
    eps = 4.0 * sigma_hat * math.sqrt(
        (dim * math.log(n) + math.log(2.0 / delta)) / k)
    return LevelSetEpsilon(epsilon=eps)


def level_set_dh_bound(params: BoundParams, n: int, k: int) -> float:
    """Guaranteed Hausdorff recovery radius:
    2 * (24*M/c_low)^(1/beta) * (D*log n * log(2/delta))^(1/(2 beta))
    * k^(-1/(2 beta))."""
    params.require("m2", "c_low", "beta", "delta")
    n, k = _check_nk(n, k)
    b = params.beta
    return (2.0 * (24.0 * params.m2 / params.c_low) ** (1.0 / b)
            * (params.dim * math.log(n) * math.log(2.0 / params.delta))
            ** (1.0 / (2.0 * b)) * k ** (-1.0 / (2.0 * b)))


def maxima_distance_bound(params: BoundParams, n: int, k: int) -> float:
    """Guaranteed distance from the sample argmax to the true maximizer:
    the square root of
    max{ (32 sigma/c_low) * sqrt((D log n + log(2/delta))/k),
         (32 c_high/c_low) * (2k/(gamma p0 v_D n))^(2/D) }."""
    params.require("sigma", "delta", "gamma", "p0", "c_low", "c_high")
    n, k = _check_nk(n, k)
    D = params.dim
    v = unit_ball_volume(D)
    t_var = (32.0 * params.sigma / params.c_low) * math.sqrt(
        (D * math.log(n) + math.log(2.0 / params.delta)) / k)
    t_bias = (32.0 * params.c_high / params.c_low) * (
        2.0 * k / (params.gamma * params.p0 * v * n)) ** (2.0 / D)
    return math.sqrt(max(t_var, t_bias))


def _check_nk(n: int, k: int, allow_large_k: bool = False):
    n, k = int(n), int(k)
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not allow_large_k and k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return n, k
