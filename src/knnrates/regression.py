"""k-NN regression: the estimator and its sup-norm error.

The prediction at x is the unweighted mean of the observations over the
tie-inclusive neighbor set N_k(x); when ties inflate the set beyond k the
mean divides by the actual member count.  Every path returns the correctly
rounded mean, the exact sum over the count rounded once, which does not
depend on the order of the members; so scalar and batch prediction agree
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .neighbors import (PointSet, SpatialIndex, as_point_set, build_index,
                        knn_query, _batch, _exact_mean)


@dataclass(frozen=True)
class Dataset:
    """Sample points with one scalar noisy observation per point."""

    x: PointSet
    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64).reshape(-1)
        if y.shape[0] != self.x.n:
            raise ValueError(f"got {y.shape[0]} observations for {self.x.n} points")
        if not np.isfinite(y).all():
            raise ValueError("observations contain non-finite values")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.n


@dataclass(frozen=True)
class FieldMetadata:
    """Declared constants of a ground-truth field, exact by construction.

    alpha/c_alpha: smoothness |f(x)-f(x')| <= c_alpha * |x-x'|^alpha.
    level/beta/c_low/c_high/r_m: level-boundary regularity at `level`,
        c_low * d(x, boundary)^beta <= |level - f(x)| <= c_high * d^beta
        within distance r_m of the boundary.
    argmax/peak_value: unique maximizer, with quadratic pinch constants
        c_low/c_high when the field declares them for maxima estimation.
    """

    alpha: Optional[float] = None
    c_alpha: Optional[float] = None
    level: Optional[float] = None
    beta: Optional[float] = None
    c_low: Optional[float] = None
    c_high: Optional[float] = None
    r_m: Optional[float] = None
    argmax: Optional[np.ndarray] = None
    peak_value: Optional[float] = None


@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar function on R^D with optional declared constants.

    `fn` maps an (m, D) array to an (m,) array.  `modulus`, when present,
    is the exact closed-form modulus of continuity u(x, r) of the formula
    defining the field (support truncation ignored).
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    metadata: FieldMetadata = field(default_factory=FieldMetadata)
    modulus: Optional[Callable[[np.ndarray, float], float]] = field(
        default=None, repr=False)
    name: str = ""

    def evaluate(self, x):
        """Evaluate at a single point (D,) -> float or a batch (m, D) -> (m,)."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            return float(self.fn(arr.reshape(1, -1))[0])
        return np.asarray(self.fn(arr), dtype=np.float64)


@dataclass(frozen=True)
class Regressor:
    data: Dataset
    index: SpatialIndex
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.data.n):
            raise ValueError(f"k={self.k} outside [1, n={self.data.n}]")
        if self.index.source is not self.data.x and not np.array_equal(
                self.index.source.points, self.data.x.points):
            raise ValueError("index must be built over the dataset's points")


def make_regressor(data: Dataset, k: int) -> Regressor:
    return Regressor(data=data, index=build_index(data.x), k=int(k))


def predict(reg: Regressor, query) -> float:
    """Mean observation over the tie-inclusive neighbor set of the query:
    the exact sum of the members' observations divided by the member
    count, correctly rounded."""
    members = knn_query(reg.index, query, reg.k).member_indices
    return _exact_mean(reg.data.y[members])


def predict_batch(reg: Regressor, queries) -> np.ndarray:
    """Vectorized predict; exactly equal to a per-query predict loop.

    Rows with a clear gap after the k-th neighbor (in D = 1, a neighbor
    window that passes the exact gap test) average their k members; tied
    rows average their whole tie-inclusive set, found together for the
    batch (a widened window in D = 1, candidate blocks grouped by ball
    size in D >= 2).  Every mean is the correctly rounded exact sum over
    the member count, as in predict.
    """
    return _batch(reg.index, queries, reg.k, reg.data.y)


@dataclass(frozen=True)
class SupErrorResult:
    sup: float
    argmax_probe: int
    per_probe: np.ndarray


def sup_error(reg: Regressor, fld: ScalarField, probes) -> SupErrorResult:
    """Max over probe points of |prediction - truth| (grid surrogate for the
    sup over the whole domain)."""
    ps = as_point_set(probes)
    if ps.dim != reg.data.x.dim:
        raise ValueError("probe dimension does not match the dataset")
    preds = predict_batch(reg, ps.points)
    per = np.abs(preds - fld.evaluate(ps.points))
    i = int(np.argmax(per))
    return SupErrorResult(sup=float(per[i]), argmax_probe=i, per_probe=per)


@dataclass(frozen=True)
class ModulusEstimate:
    value: float
    exact: bool  # False: sampled lower bound on the true modulus


def _ball_probes(x: np.ndarray, r: float, resolution: int) -> np.ndarray:
    """Deterministic probe cloud in the closed ball B(x, r): the center, the
    2D axis-aligned boundary points, and a Halton fill."""
    from .synth import ball_halton  # synth imports this module

    d = x.shape[0]
    pts = [x]
    for i in range(d):
        e = np.zeros(d)
        e[i] = r
        pts.append(x + e)
        pts.append(x - e)
    base = np.asarray(pts)
    extra = resolution - base.shape[0]
    if extra > 0 and r > 0.0:
        base = np.vstack([base, ball_halton(x, r, extra)])
    return base


def empirical_modulus(fld: ScalarField, x, r: float,
                      resolution: int = 256) -> ModulusEstimate:
    """Modulus of continuity u(x, r): exact closed form when the field
    declares one, otherwise a sampled lower bound (flagged approximate)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != fld.dim:
        raise ValueError(f"point has dimension {x.shape[0]}, field has {fld.dim}")
    r = float(r)
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if fld.modulus is not None:
        return ModulusEstimate(value=float(fld.modulus(x, r)), exact=True)
    probes = _ball_probes(x, r, resolution)
    fx = fld.evaluate(x)
    vals = np.abs(fld.evaluate(probes) - fx)
    return ModulusEstimate(value=float(vals.max()), exact=False)


def write_dataset(path, data: Dataset) -> None:
    """Plain-text dataset: first line `D n`, then n rows of D coordinates
    followed by the observation, whitespace-separated."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{data.x.dim} {data.n}\n")
        for row, yi in zip(data.x.points, data.y):
            cols = [("%.17g" % v) for v in row] + [("%.17g" % yi)]
            f.write(" ".join(cols) + "\n")


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'D n'")
        dim, n = int(header[0]), int(header[1])
        rows = np.loadtxt(f, dtype=np.float64, ndmin=2)
    if rows.shape != (n, dim + 1):
        raise ValueError(
            f"{path}: expected {n} rows of {dim + 1} columns, got {rows.shape}")
    return Dataset(x=PointSet(rows[:, :dim]), y=rows[:, dim])
