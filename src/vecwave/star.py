"""Matrix-valued pairing of vector-valued sampled functions.

For f, g with m channels the pairing is the m x m matrix with entry (i, j)
equal to the integral of f_i * g_j, evaluated here by left-endpoint
quadrature on a shared dyadic grid.  Piecewise-constant inputs make the
quadrature exact, which is what gives the 1e-12 tolerances used by the
callers their teeth.

A vector-valued function is stored as one stacked array: ``values`` has
shape ``(m, n_1, ..., n_d)`` and ``start`` gives the integer grid offset of
the support window per axis.  Channels therefore share a single window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class MatrixM:
    """A square matrix of pairing values, immutable and finite."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionError(f"matrix must be square, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, m: int) -> "MatrixM":
        return cls(np.eye(m))

    @classmethod
    def zero(cls, m: int) -> "MatrixM":
        return cls(np.zeros((m, m)))


@dataclass(frozen=True)
class VectorSampledFunction:
    """m scalar channels sampled on one d-dimensional dyadic grid.

    ``values[r, p_1, ..., p_d]`` is channel r at the point with coordinate
    ``(start_i + p_i) * 2**-level`` along axis i.
    """

    start: tuple
    level: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim < 2:
            raise DimensionError("values must have shape (m, spatial...)")
        try:
            start = tuple(int(s) for s in np.atleast_1d(self.start))
        except (TypeError, ValueError):
            raise DimensionError(f"bad start {self.start!r}") from None
        if len(start) != v.ndim - 1:
            raise DimensionError(
                f"start has {len(start)} axes, values have {v.ndim - 1}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "start", start)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.ndim - 1

    @property
    def step(self) -> float:
        return 2.0 ** -self.level


def _check_compatible(f: VectorSampledFunction, g: VectorSampledFunction):
    if f.m != g.m:
        raise DimensionError(f"channel counts differ: {f.m} vs {g.m}")
    if f.d != g.d:
        raise DimensionError(f"dimensions differ: {f.d} vs {g.d}")
    if f.level != g.level:
        raise DimensionError(f"grid levels differ: {f.level} vs {g.level}")


def star(f: VectorSampledFunction, g: VectorSampledFunction) -> MatrixM:
    """Pairing matrix with entry (i, j) = quadrature of f_i * g_j.

    Supports may differ; the product is integrated over the window overlap.
    Satisfies star(f, g) = star(g, f)^T.
    """
    _check_compatible(f, g)
    lo = [max(a, b) for a, b in zip(f.start, g.start)]
    hi = [
        min(a + n, b + k)
        for a, b, n, k in zip(f.start, g.start, f.values.shape[1:], g.values.shape[1:])
    ]
    if any(h <= l for l, h in zip(lo, hi)):
        return MatrixM.zero(f.m)
    fsl = f.values[
        (slice(None),) + tuple(slice(l - s, h - s) for l, h, s in zip(lo, hi, f.start))
    ]
    gsl = g.values[
        (slice(None),) + tuple(slice(l - s, h - s) for l, h, s in zip(lo, hi, g.start))
    ]
    cell = f.step**f.d
    return MatrixM(fsl.reshape(f.m, -1) @ gsl.reshape(g.m, -1).T * cell)


def norm1(A) -> float:
    """Maximum absolute column sum."""
    a = A.entries if isinstance(A, MatrixM) else np.asarray(A, dtype=float)
    return float(np.max(np.sum(np.abs(a), axis=0)))


def hadamard(A: MatrixM, B: MatrixM) -> MatrixM:
    """Entrywise product; the all-ones matrix is its identity."""
    a = A.entries if isinstance(A, MatrixM) else np.asarray(A, dtype=float)
    b = B.entries if isinstance(B, MatrixM) else np.asarray(B, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    return MatrixM(a * b)


def l2_norm(f: VectorSampledFunction) -> float:
    """Quadrature L2 norm over all channels."""
    return float(np.sqrt(np.sum(f.values**2) * f.step**f.d))


def separable_channels(
    x: VectorSampledFunction, y: VectorSampledFunction
) -> VectorSampledFunction:
    """Two-dimensional function with channel r = x_r(s) * y_r(t).

    Both inputs must be one-dimensional with the same channel count and
    grid level; the result lives on the product window.
    """
    if x.d != 1 or y.d != 1:
        raise DimensionError("separable factors must be one-dimensional")
    if x.m != y.m:
        raise DimensionError(f"channel counts differ: {x.m} vs {y.m}")
    if x.level != y.level:
        raise DimensionError(f"grid levels differ: {x.level} vs {y.level}")
    vals = np.einsum("ri,rj->rij", x.values, y.values)
    return VectorSampledFunction((x.start[0], y.start[0]), x.level, vals)

