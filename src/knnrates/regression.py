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
                        knn_query, _batch, _limbs, _means)


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
    beta/c_low/c_high/r_m: level-boundary regularity at the level the
        field was built for, c_low * d(x, boundary)^beta <= |level - f(x)|
        <= c_high * d^beta within distance r_m of the boundary.
    argmax: unique maximizer, with quadratic pinch constants c_low/c_high
        when the field declares them for maxima estimation.
    """

    alpha: Optional[float] = None
    c_alpha: Optional[float] = None
    beta: Optional[float] = None
    c_low: Optional[float] = None
    c_high: Optional[float] = None
    r_m: Optional[float] = None
    argmax: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar function on R^D with optional declared constants;
    `fn` maps an (m, D) array to an (m,) array."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    metadata: FieldMetadata = field(default_factory=FieldMetadata)

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
    parts, bits, e = _limbs(reg.data.y[members])
    return float(_means(parts.sum(axis=1, keepdims=True), members.size,
                        bits, e)[0])


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


def sup_error(reg: Regressor, fld: ScalarField, probes) -> float:
    """The largest |prediction - truth| over the probe points, a float (grid
    surrogate for the sup over the whole domain)."""
    ps = as_point_set(probes)
    if ps.dim != reg.data.x.dim:
        raise ValueError("probe dimension does not match the dataset")
    preds = predict_batch(reg, ps.points)
    return float(np.abs(preds - fld.evaluate(ps.points)).max())
