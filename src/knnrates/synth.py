"""Synthetic ground truth with exactly declared constants.

Every generator here declares the regularity constants the theory consumes
(density floor, support regularity, smoothness, level-boundary regularity,
maxima pinch, manifold condition number) so that bound calculators can be
fed true values.  Declarations are conservative but provable; the test
suite probes them with large random batches.

Seeding: one 64-bit master seed; the stream for trial t and purpose
`label` derives from SeedSequence([master, *t, sha256(label)]), so each
trial's streams depend only on (master, n, seed, label).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import unit_ball_volume
from .neighbors import PointSet
from .regression import FieldMetadata, ScalarField


def label_hash(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


def stream_seed(master: int, *path) -> np.random.SeedSequence:
    """Derive a child seed from (master, trial path..., label strings)."""
    entropy = [int(master)]
    for p in path:
        entropy.append(label_hash(p) if isinstance(p, str) else int(p))
    return np.random.SeedSequence(entropy)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


# ---------------------------------------------------------------------------
# sampling densities


@dataclass(frozen=True)
class DensitySpec:
    """Sampling density with a declared floor p0 and support regularity
    (gamma, r0), all exact by construction."""

    kind: str
    dim: int
    low: Optional[tuple] = None
    high: Optional[tuple] = None
    center: Optional[tuple] = None
    radius: Optional[float] = None
    bump_center: Optional[tuple] = None
    bump_sigma: Optional[float] = None
    bump_weight: Optional[float] = None
    p0: float = 0.0
    gamma: float = 0.0
    r0: float = 0.0


def uniform_box(low, high) -> DensitySpec:
    """Uniform on an axis-aligned box.  gamma = 2^-D is the exact corner
    worst case; r0 is half the shortest side."""
    low = tuple(np.atleast_1d(np.asarray(low, dtype=np.float64)))
    high = tuple(np.atleast_1d(np.asarray(high, dtype=np.float64)))
    if len(low) != len(high):
        raise ValueError("low and high must have the same length")
    sides = np.subtract(high, low)
    if not (sides > 0).all():
        raise ValueError("box sides must be positive")
    d = len(low)
    vol = float(np.prod(sides))
    return DensitySpec(kind="uniform-box", dim=d, low=low, high=high,
                       p0=1.0 / vol, gamma=2.0 ** -d,
                       r0=float(sides.min()) / 2.0)


def uniform_ball(center, radius: float) -> DensitySpec:
    """Uniform on a closed ball.  A half-radius interior ball sits inside
    any boundary intersection, giving gamma = 2^-D with r0 = radius."""
    center = tuple(np.atleast_1d(np.asarray(center, dtype=np.float64)))
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = len(center)
    vol = unit_ball_volume(d) * radius ** d
    return DensitySpec(kind="uniform-ball", dim=d, center=center, radius=radius,
                       p0=1.0 / vol, gamma=2.0 ** -d, r0=radius)


def truncated_mixture(low, high, bump_center, bump_sigma: float,
                      bump_weight: float) -> DensitySpec:
    """Uniform floor plus one truncated Gaussian bump on a box.  The floor
    gives the analytic density lower bound p0 = (1-w)/Vol(box)."""
    base = uniform_box(low, high)
    bump_center = tuple(np.atleast_1d(np.asarray(bump_center, dtype=np.float64)))
    if len(bump_center) != base.dim:
        raise ValueError("bump center dimension mismatch")
    if not (0.0 <= bump_weight < 1.0):
        raise ValueError("bump weight must lie in [0, 1)")
    if bump_sigma <= 0:
        raise ValueError("bump sigma must be positive")
    return DensitySpec(kind="truncated-mixture", dim=base.dim,
                       low=base.low, high=base.high,
                       bump_center=bump_center, bump_sigma=float(bump_sigma),
                       bump_weight=float(bump_weight),
                       p0=(1.0 - bump_weight) * base.p0, gamma=base.gamma,
                       r0=base.r0)


def support_box(spec: DensitySpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box of the support."""
    if spec.kind in ("uniform-box", "truncated-mixture"):
        return np.asarray(spec.low), np.asarray(spec.high)
    if spec.kind == "uniform-ball":
        c = np.asarray(spec.center)
        return c - spec.radius, c + spec.radius
    raise ValueError(f"unknown density kind {spec.kind!r}")


def sample_points(spec: DensitySpec, n: int, seed) -> PointSet:
    """Draw n i.i.d. points; fully determined by (spec, n, seed)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    if spec.kind == "uniform-box":
        lo, hi = np.asarray(spec.low), np.asarray(spec.high)
        pts = lo + (hi - lo) * rng.random((n, spec.dim))
    elif spec.kind == "uniform-ball":
        z = rng.standard_normal((n, spec.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = spec.radius * rng.random(n) ** (1.0 / spec.dim)
        pts = np.asarray(spec.center) + z * r[:, None]
    elif spec.kind == "truncated-mixture":
        lo, hi = np.asarray(spec.low), np.asarray(spec.high)
        pts = lo + (hi - lo) * rng.random((n, spec.dim))
        from_bump = rng.random(n) < spec.bump_weight
        m = int(from_bump.sum())
        if m:
            c = np.asarray(spec.bump_center)
            draws = c + spec.bump_sigma * rng.standard_normal((m, spec.dim))
            bad = ~((draws >= lo) & (draws <= hi)).all(axis=1)
            while bad.any():  # rejection, deterministic given the stream
                redraw = c + spec.bump_sigma * rng.standard_normal(
                    (int(bad.sum()), spec.dim))
                draws[bad] = redraw
                bad = ~((draws >= lo) & (draws <= hi)).all(axis=1)
            pts[from_bump] = draws
    else:
        raise ValueError(f"unknown density kind {spec.kind!r}")
    return PointSet(pts)


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-zero noise with a declared (possibly conservative) sub-Gaussian
    parameter: sigma = scale for gaussian; for bounded kinds the half-width
    is a valid parameter by Hoeffding's lemma."""

    kind: str  # gaussian | uniform-bounded | rademacher | none
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform-bounded", "rademacher", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("noise scale must be nonnegative")

    @property
    def sigma(self) -> float:
        return 0.0 if self.kind == "none" else float(self.scale)


def sample_noise(spec: NoiseSpec, n: int, seed) -> np.ndarray:
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    if spec.kind == "none":
        return np.zeros(n)
    if spec.kind == "gaussian":
        return spec.scale * rng.standard_normal(n)
    if spec.kind == "uniform-bounded":
        return rng.uniform(-spec.scale, spec.scale, n)
    # rademacher
    return spec.scale * (2.0 * rng.integers(0, 2, n) - 1.0)


# ---------------------------------------------------------------------------
# ground-truth fields


def _radial_dist(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    return np.linalg.norm(X - center, axis=1)


def make_field(kind: str, **params) -> ScalarField:
    """Construct a ground-truth field with true declared constants.

    constant        value, dim
    linear          a (vector), b
    tent            center, slope, peak [, level]
    holder-cusp     center, c_alpha, alpha, peak
    quadratic-peak  center, curvature, height [, r_m]
    """
    makers = {"constant": _constant_field, "linear": _linear_field,
              "tent": _tent_field, "holder-cusp": _holder_cusp_field,
              "quadratic-peak": _quadratic_peak_field}
    if kind not in makers:
        raise ValueError(f"unknown field kind {kind!r}; "
                         f"expected one of {sorted(makers)}")
    return makers[kind](**params)


def _constant_field(value: float, dim: int) -> ScalarField:
    value = float(value)
    return ScalarField(
        dim=int(dim),
        fn=lambda X: np.full(X.shape[0], value),
        metadata=FieldMetadata(alpha=1.0, c_alpha=0.0),
        modulus=lambda x, r: 0.0,
        name="constant")


def _linear_field(a, b: float = 0.0) -> ScalarField:
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = float(b)
    c = float(np.linalg.norm(a))
    return ScalarField(
        dim=a.shape[0],
        fn=lambda X: X @ a + b,
        metadata=FieldMetadata(alpha=1.0, c_alpha=c),
        modulus=lambda x, r: c * r,
        name="linear")


def _tent_field(center, slope: float, peak: float = 1.0,
                level: Optional[float] = None) -> ScalarField:
    """Radial tent peak - slope*|x - center|.  Exactly 1-Lipschitz scaled by
    `slope`, and around any level below the peak the gap |level - f| equals
    slope * (distance to the level boundary) everywhere, so the boundary
    regularity constants are slope on both sides with exponent 1."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    slope, peak = float(slope), float(peak)
    if slope <= 0:
        raise ValueError("tent slope must be positive")
    meta = dict(alpha=1.0, c_alpha=slope, argmax=center, peak_value=peak)
    if level is not None:
        level = float(level)
        if level >= peak:
            raise ValueError("tent level must lie below the peak")
        rho = (peak - level) / slope
        meta.update(level=level, beta=1.0, c_low=slope, c_high=slope, r_m=rho)
    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: peak - slope * _radial_dist(X, center),
        metadata=FieldMetadata(**meta),
        modulus=lambda x, r: slope * r,
        name="tent")


def _holder_cusp_field(center, c_alpha: float, alpha: float,
                       peak: float = 1.0) -> ScalarField:
    """peak - c_alpha * |x - center|^alpha; the declared smoothness pair
    (alpha, c_alpha) is exact via |a^alpha - b^alpha| <= |a - b|^alpha."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    c, a, peak = float(c_alpha), float(alpha), float(peak)
    if not (0.0 < a <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if c < 0:
        raise ValueError("c_alpha must be nonnegative")

    def modulus(x, r):
        # Largest change over the ball: toward the cusp or away from it.
        t = float(np.linalg.norm(np.asarray(x, dtype=np.float64) - center))
        toward = t ** a - max(0.0, t - r) ** a
        away = (t + r) ** a - t ** a
        return c * max(toward, away)

    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: peak - c * _radial_dist(X, center) ** a,
        metadata=FieldMetadata(alpha=a, c_alpha=c, argmax=center,
                               peak_value=peak),
        modulus=modulus,
        name="holder-cusp")


def _quadratic_peak_field(center, curvature: float, height: float = 1.0,
                          r_m: Optional[float] = None) -> ScalarField:
    """height - curvature*|x - center|^2: the unique-maximum model field.
    The quadratic pinch holds with equality, so both pinch constants are
    `curvature` exactly."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    q, h = float(curvature), float(height)
    if q <= 0:
        raise ValueError("curvature must be positive")

    def modulus(x, r):
        t = float(np.linalg.norm(np.asarray(x, dtype=np.float64) - center))
        toward = t * t - max(0.0, t - r) ** 2
        away = (t + r) ** 2 - t * t
        return q * max(toward, away)

    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: h - q * _radial_dist(X, center) ** 2,
        metadata=FieldMetadata(argmax=center, peak_value=h, c_low=q, c_high=q,
                               r_m=float(r_m) if r_m is not None else None),
        modulus=modulus,
        name="quadratic-peak")


# ---------------------------------------------------------------------------
# manifolds


@dataclass(frozen=True)
class ManifoldSpec:
    """One-dimensional curve embedded in R^D, carrying a field that depends
    only on the arc-length coordinate.

    kinds: circle (exact closed forms, tau = radius), torus-curve (a
    (1, winding) curve on a torus; length and projection are tabulated),
    swiss-roll-curve (Archimedean spiral with closed-form arc length).
    """

    kind: str
    ambient_dim: int
    radius: float = 1.0           # circle radius / torus major radius
    tube_radius: float = 0.25     # torus minor radius
    winding: int = 3              # torus tube winds per revolution
    theta0: float = 1.5 * math.pi  # spiral angular range
    theta1: float = 4.5 * math.pi
    pitch: float = 0.05           # spiral radius growth per radian
    rotate: bool = False
    rotation_seed: int = 0
    field_kind: str = "tent"
    field_slope: float = 2.0
    field_center_s: float = 0.0
    field_peak: float = 0.5

    def __post_init__(self):
        if self.kind not in ("circle", "torus-curve", "swiss-roll-curve"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")
        min_dim = {"circle": 2, "torus-curve": 3, "swiss-roll-curve": 2}
        if self.ambient_dim < min_dim[self.kind]:
            raise ValueError(
                f"{self.kind} needs ambient dimension >= {min_dim[self.kind]}")

    @property
    def d(self) -> int:
        return 1

    @property
    def tau(self) -> Optional[float]:
        # Reach in closed form is only available for the circle.
        return self.radius if self.kind == "circle" else None

    @property
    def length(self) -> float:
        if self.kind == "circle":
            return 2.0 * math.pi * self.radius
        if self.kind == "swiss-roll-curve":
            return _spiral_arclen(self.pitch, self.theta1) \
                - _spiral_arclen(self.pitch, self.theta0)
        return float(_torus_table(self)[1][-1])

    @property
    def periodic(self) -> bool:
        return self.kind in ("circle", "torus-curve")

    @property
    def p0(self) -> float:
        """Uniform-in-arc-length density floor: 1 / length."""
        return 1.0 / self.length


def _spiral_arclen(b: float, theta: float) -> float:
    return 0.5 * b * (theta * math.sqrt(1.0 + theta * theta) + math.asinh(theta))


_TORUS_TABLE_SIZE = 4096


def _torus_table(spec: ManifoldSpec):
    return _torus_table_cached(spec.radius, spec.tube_radius, spec.winding)


@functools.lru_cache(maxsize=16)
def _torus_table_cached(R: float, r: float, w: int):
    """Dense (parameter, cumulative arc length) table for the torus curve."""
    t = np.linspace(0.0, 2.0 * math.pi, _TORUS_TABLE_SIZE * w + 1)
    ring = R + r * np.cos(w * t)
    speed = np.sqrt(ring * ring + (r * w) ** 2)
    seg = 0.5 * (speed[1:] + speed[:-1]) * np.diff(t)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return t, s


def _rotation_matrix(dim: int, seed: int) -> np.ndarray:
    g = _rng(stream_seed(seed, "manifold-rotation"))
    q, r = np.linalg.qr(g.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _plane_coords(spec: ManifoldSpec, s: np.ndarray) -> np.ndarray:
    if spec.kind == "circle":
        theta = s / spec.radius
        return np.stack([spec.radius * np.cos(theta),
                         spec.radius * np.sin(theta)], axis=1)
    if spec.kind == "swiss-roll-curve":
        theta = _spiral_theta(spec, s)
        r = spec.pitch * theta
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    # torus-curve
    t_tab, s_tab = _torus_table(spec)
    t = np.interp(s, s_tab, t_tab)
    R, r, w = spec.radius, spec.tube_radius, spec.winding
    ring = R + r * np.cos(w * t)
    return np.stack([ring * np.cos(t), ring * np.sin(t),
                     r * np.sin(w * t)], axis=1)


def _spiral_theta(spec: ManifoldSpec, s: np.ndarray) -> np.ndarray:
    """Invert the spiral arc length by bisection (deterministic)."""
    s = np.asarray(s, dtype=np.float64)
    target = _spiral_arclen(spec.pitch, spec.theta0) + s
    lo = np.full_like(target, spec.theta0)
    hi = np.full_like(target, spec.theta1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = 0.5 * spec.pitch * (mid * np.sqrt(1.0 + mid * mid)
                                  + np.arcsinh(mid))
        below = val < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def embed_points(spec: ManifoldSpec, s: np.ndarray) -> np.ndarray:
    """Map arc-length coordinates to ambient coordinates."""
    plane = _plane_coords(spec, np.asarray(s, dtype=np.float64))
    pts = np.zeros((plane.shape[0], spec.ambient_dim))
    pts[:, :plane.shape[1]] = plane
    if spec.rotate:
        pts = pts @ _rotation_matrix(spec.ambient_dim, spec.rotation_seed).T
    return pts


def to_intrinsic(spec: ManifoldSpec, X: np.ndarray) -> np.ndarray:
    """Recover arc-length coordinates of ambient points on (or near) the
    curve.  Exact for circle and spiral; the torus curve projects through
    its dense parameter table."""
    X = np.asarray(X, dtype=np.float64)
    if spec.rotate:
        X = X @ _rotation_matrix(spec.ambient_dim, spec.rotation_seed)
    if spec.kind == "circle":
        theta = np.arctan2(X[:, 1], X[:, 0]) % (2.0 * math.pi)
        return spec.radius * theta
    if spec.kind == "swiss-roll-curve":
        theta = np.linalg.norm(X[:, :2], axis=1) / spec.pitch
        return _spiral_arclen_vec(spec.pitch, theta) \
            - _spiral_arclen(spec.pitch, spec.theta0)
    t_tab, s_tab = _torus_table(spec)
    ref = _plane_coords(spec, s_tab)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], 256):
        xc = X[lo:lo + 256, :3]
        d2 = ((xc[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + 256] = s_tab[np.argmin(d2, axis=1)]
    return out


def _spiral_arclen_vec(b: float, theta: np.ndarray) -> np.ndarray:
    return 0.5 * b * (theta * np.sqrt(1.0 + theta * theta) + np.arcsinh(theta))


def manifold_field(spec: ManifoldSpec) -> ScalarField:
    """Tent in arc-length distance, lifted to ambient coordinates.

    On the circle the ambient smoothness constant is slope * pi/2 exactly
    (arc length of a minor arc is at most pi/2 times its chord)."""
    if spec.field_kind != "tent":
        raise ValueError(f"unsupported manifold field kind {spec.field_kind!r}")
    L = spec.length
    slope, s0, peak = spec.field_slope, spec.field_center_s, spec.field_peak
    periodic = spec.periodic

    def arc_dist(s):
        gap = np.abs(s - s0)
        return np.minimum(gap, L - gap) if periodic else gap

    def fn(X):
        return peak - slope * arc_dist(to_intrinsic(spec, X))

    c_amb = slope * math.pi / 2.0 if spec.kind == "circle" else None
    return ScalarField(
        dim=spec.ambient_dim, fn=fn,
        metadata=FieldMetadata(alpha=1.0, c_alpha=c_amb, peak_value=peak),
        name=f"{spec.field_kind}-on-{spec.kind}")


@dataclass(frozen=True)
class ManifoldSample:
    points: PointSet
    intrinsic: np.ndarray
    field: ScalarField
    spec: ManifoldSpec


def embed_manifold(spec: ManifoldSpec, n: int, seed) -> ManifoldSample:
    """Sample n points uniformly in arc length and embed them, together
    with the attached intrinsic-coordinate field."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.d >= spec.ambient_dim:
        raise ValueError("intrinsic dimension must be below ambient dimension")
    s = spec.length * _rng(seed).random(n)
    return ManifoldSample(points=PointSet(embed_points(spec, s)), intrinsic=s,
                          field=manifold_field(spec), spec=spec)


def manifold_probe_grid(spec: ManifoldSpec, cells: int) -> PointSet:
    """Evenly spaced arc-length grid mapped to ambient coordinates."""
    if spec.periodic:
        s = np.arange(cells) * (spec.length / cells)
    else:
        s = np.linspace(0.0, spec.length, cells + 1)
    return PointSet(embed_points(spec, s))


# ---------------------------------------------------------------------------
# probe grids on full-dimensional supports


def uniform_grid(low, high, cells: int) -> tuple[PointSet, float]:
    """Uniform grid with `cells` cells per dimension over a box; returns the
    grid and its spacing (the largest per-axis step)."""
    lo = np.atleast_1d(np.asarray(low, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(high, dtype=np.float64))
    cells = int(cells)
    if cells < 1:
        raise ValueError("cells must be >= 1")
    axes = [np.linspace(lo[i], hi[i], cells + 1) for i in range(lo.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    spacing = float(((hi - lo) / cells).max())
    return PointSet(pts), spacing


def ball_halton(center, radius: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy cloud of `count` points in a closed
    ball: unscrambled Halton draws (first point skipped), mapped to
    directions through the normal quantile and to radii by the D-th root."""
    from scipy.stats import norm, qmc

    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    d = c.shape[0]
    u = qmc.Halton(d=d + 1, scramble=False).random(count + 1)[1:]
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    z = norm.ppf(u[:, :d])
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = np.where(norms > 0.0, z / np.where(norms > 0.0, norms, 1.0), 0.0)
    z[(norms == 0.0).reshape(-1), 0] = 1.0  # degenerate row: pick an axis
    r = radius * u[:, d] ** (1.0 / d)
    return c + z * r[:, None]


def halton_probes(low, high, count: int) -> PointSet:
    """Deterministic low-discrepancy probe cloud in a box (for D >= 3)."""
    from scipy.stats import qmc

    lo = np.atleast_1d(np.asarray(low, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(high, dtype=np.float64))
    u = qmc.Halton(d=lo.shape[0], scramble=False).random(int(count))
    return PointSet(lo + (hi - lo) * u)
