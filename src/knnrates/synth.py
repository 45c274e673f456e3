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
        raise ValueError("high: must have as many coordinates as low")
    sides = np.subtract(high, low)
    if not (sides > 0).all():
        raise ValueError("high: must exceed low on every axis")
    d = len(low)
    vol = float(np.prod(sides))
    return DensitySpec(kind="uniform-box", dim=d, low=low, high=high,
                       p0=1.0 / vol, gamma=2.0 ** -d,
                       r0=float(sides.min()) / 2.0)


def truncated_mixture(low, high, bump_center, bump_sigma: float,
                      bump_weight: float) -> DensitySpec:
    """Uniform floor plus one truncated Gaussian bump on a box.  The floor
    gives the analytic density lower bound p0 = (1-w)/Vol(box)."""
    base = uniform_box(low, high)
    bump_center = tuple(np.atleast_1d(np.asarray(bump_center, dtype=np.float64)))
    if len(bump_center) != base.dim:
        raise ValueError("bump_center: must have the dimension of the box")
    if not (0.0 <= bump_weight < 1.0):
        raise ValueError("bump_weight: must lie in [0, 1)")
    if not 0.0 < bump_sigma < math.inf:
        raise ValueError("bump_sigma: must be positive and finite")
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
    raise ValueError(f"unknown density kind {spec.kind!r}")


def sample_points(spec: DensitySpec, n: int, seed) -> PointSet:
    """Draw n i.i.d. points; fully determined by (spec, n, seed)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = support_box(spec)
    rng = _rng(seed)
    pts = lo + (hi - lo) * rng.random((n, spec.dim))
    if spec.kind == "truncated-mixture":
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
    return PointSet(pts)


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """Mean-zero noise with a declared sub-Gaussian parameter: sigma =
    scale for gaussian, 0 for none."""

    kind: str  # gaussian | none
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "none"):
            raise ValueError(f"kind: unknown noise kind {self.kind!r}")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError("scale: must be nonnegative and finite")

    @property
    def sigma(self) -> float:
        return 0.0 if self.kind == "none" else float(self.scale)


def sample_noise(spec: NoiseSpec, n: int, seed) -> np.ndarray:
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.kind == "none":
        return np.zeros(n)
    return spec.scale * _rng(seed).standard_normal(n)


# ---------------------------------------------------------------------------
# ground-truth fields


def _radial_dist(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    return np.linalg.norm(X - center, axis=1)


def make_field(kind: str, **params) -> ScalarField:
    """Construct a ground-truth field with true declared constants.

    constant        value, dim
    tent            center, slope, peak [, level]
    holder-cusp     center, c_alpha, alpha, peak
    quadratic-peak  center, curvature, height [, r_m]
    """
    makers = {"constant": _constant_field, "tent": _tent_field,
              "holder-cusp": _holder_cusp_field,
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
        metadata=FieldMetadata(alpha=1.0, c_alpha=0.0))


def _tent_field(center, slope: float, peak: float = 1.0,
                level: Optional[float] = None) -> ScalarField:
    """Radial tent peak - slope*|x - center|.  Exactly 1-Lipschitz scaled by
    `slope`, and around any level below the peak the gap |level - f| equals
    slope * (distance to the level boundary) everywhere, so the boundary
    regularity constants are slope on both sides with exponent 1."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    slope, peak = float(slope), float(peak)
    if not 0.0 < slope < math.inf:
        raise ValueError("slope: must be positive and finite")
    meta = dict(alpha=1.0, c_alpha=slope, argmax=center)
    if level is not None:
        level = float(level)
        if level >= peak:
            raise ValueError("level: must lie below the tent's peak")
        rho = (peak - level) / slope
        meta.update(beta=1.0, c_low=slope, c_high=slope, r_m=rho)
    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: peak - slope * _radial_dist(X, center),
        metadata=FieldMetadata(**meta))


def _holder_cusp_field(center, c_alpha: float, alpha: float,
                       peak: float = 1.0) -> ScalarField:
    """peak - c_alpha * |x - center|^alpha; the declared smoothness pair
    (alpha, c_alpha) is exact via |a^alpha - b^alpha| <= |a - b|^alpha."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    c, a, peak = float(c_alpha), float(alpha), float(peak)
    if not (0.0 < a <= 1.0):
        raise ValueError("alpha: must lie in (0, 1]")
    if not 0.0 <= c < math.inf:
        raise ValueError("c_alpha: must be nonnegative and finite")
    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: peak - c * _radial_dist(X, center) ** a,
        metadata=FieldMetadata(alpha=a, c_alpha=c, argmax=center))


def _quadratic_peak_field(center, curvature: float, height: float = 1.0,
                          r_m: Optional[float] = None) -> ScalarField:
    """height - curvature*|x - center|^2: the unique-maximum model field.
    The quadratic pinch holds with equality, so both pinch constants are
    `curvature` exactly."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    q, h = float(curvature), float(height)
    if not 0.0 < q < math.inf:
        raise ValueError("curvature: must be positive and finite")
    if r_m is not None:
        r_m = float(r_m)
        if not 0.0 < r_m < math.inf:
            raise ValueError("r_m: must be positive and finite")
    return ScalarField(
        dim=center.shape[0],
        fn=lambda X: h - q * _radial_dist(X, center) ** 2,
        metadata=FieldMetadata(argmax=center, c_low=q, c_high=q, r_m=r_m))


# ---------------------------------------------------------------------------
# manifolds


@dataclass(frozen=True)
class ManifoldSpec:
    """A circle of the given radius in the first two ambient coordinates
    (optionally rotated), carrying a tent field in the arc-length
    coordinate.  Its reach tau is the radius and the field's ambient
    smoothness constant is known exactly, so every bound it feeds is
    checkable."""

    kind: str
    ambient_dim: int
    radius: float = 1.0
    rotate: bool = False
    rotation_seed: int = 0
    field_slope: float = 2.0
    field_center_s: float = 0.0
    field_peak: float = 0.5

    def __post_init__(self):
        if self.kind != "circle":
            raise ValueError(f"kind: unknown manifold kind {self.kind!r}; "
                             "only 'circle' is supported")
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim: must be >= 2 for a circle")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius: must be positive and finite")
        if not 0.0 <= self.field_slope < math.inf:
            raise ValueError("field_slope: must be nonnegative and finite")

    @property
    def d(self) -> int:
        return 1

    @property
    def tau(self) -> float:
        return self.radius

    @property
    def length(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def p0(self) -> float:
        """Uniform-in-arc-length density floor: 1 / length."""
        return 1.0 / self.length


@functools.lru_cache(maxsize=16)
def _rotation_matrix(dim: int, seed: int) -> np.ndarray:
    """The seeded rotation of a manifold's ambient space.  Every embedding
    and inverse map of a study takes the same matrix, so it is built once
    per (dim, seed) and shared read-only."""
    g = _rng(stream_seed(seed, "manifold-rotation"))
    q, r = np.linalg.qr(g.standard_normal((dim, dim)))
    rot = q * np.sign(np.diag(r))
    rot.setflags(write=False)
    return rot


def embed_points(spec: ManifoldSpec, s: np.ndarray) -> np.ndarray:
    """Map arc-length coordinates to ambient coordinates."""
    theta = np.asarray(s, dtype=np.float64) / spec.radius
    pts = np.zeros((theta.shape[0], spec.ambient_dim))
    pts[:, 0] = spec.radius * np.cos(theta)
    pts[:, 1] = spec.radius * np.sin(theta)
    if spec.rotate:
        pts = pts @ _rotation_matrix(spec.ambient_dim, spec.rotation_seed).T
    return pts


def to_intrinsic(spec: ManifoldSpec, X: np.ndarray) -> np.ndarray:
    """Arc-length coordinates in [0, length) of ambient points on (or
    near) the circle."""
    X = np.asarray(X, dtype=np.float64)
    if spec.rotate:
        X = X @ _rotation_matrix(spec.ambient_dim, spec.rotation_seed)
    theta = np.arctan2(X[:, 1], X[:, 0]) % (2.0 * math.pi)
    return spec.radius * theta


def manifold_field(spec: ManifoldSpec) -> ScalarField:
    """Tent in arc-length distance, lifted to ambient coordinates.

    The ambient smoothness constant is slope * pi/2 exactly (the arc
    length of a minor arc is at most pi/2 times its chord)."""
    L = spec.length
    slope, s0, peak = spec.field_slope, spec.field_center_s, spec.field_peak

    def fn(X):
        gap = np.abs(to_intrinsic(spec, X) - s0)
        return peak - slope * np.minimum(gap, L - gap)

    return ScalarField(
        dim=spec.ambient_dim, fn=fn,
        metadata=FieldMetadata(alpha=1.0, c_alpha=slope * math.pi / 2.0))


@dataclass(frozen=True)
class ManifoldSample:
    points: PointSet


def embed_manifold(spec: ManifoldSpec, n: int, seed) -> ManifoldSample:
    """Sample n points uniformly in arc length and embed them."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    s = spec.length * _rng(seed).random(n)
    return ManifoldSample(points=PointSet(embed_points(spec, s)))


def manifold_probe_grid(spec: ManifoldSpec, cells: int) -> PointSet:
    """`cells` evenly spaced arc-length points mapped to ambient
    coordinates."""
    s = np.arange(cells) * (spec.length / cells)
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


def halton_probes(low, high, count: int) -> PointSet:
    """Deterministic low-discrepancy probe cloud in a box (for D >= 3)."""
    from scipy.stats import qmc

    lo = np.atleast_1d(np.asarray(low, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(high, dtype=np.float64))
    u = qmc.Halton(d=lo.shape[0], scramble=False).random(int(count))
    return PointSet(lo + (hi - lo) * u)
