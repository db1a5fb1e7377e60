"""Vector-valued wavelet bases of m-channel functions on the line.

A scalar orthonormal wavelet (phi, psi) yields an m-channel basis by
stacking phi with the first m-1 dyadic dilates of psi into one vector
scaling function Phi, and each later run of m consecutive psi scales into
one vector wavelet level.  The stacked family is orthonormal under the
matrix pairing because distinct channels live at distinct scalar scales and
equal channels reduce to scalar orthonormality.

Scale bookkeeping: channel r of the scaling atom sits at scalar scale
``r - 1`` (channel 1 is phi at scale 0), and channel r of wavelet level t
sits at scalar scale ``m t + m - 1 + (r - 1)``.  Together these cover every
scalar scale exactly once, so no detail information is dropped or
duplicated.  The translation index lands inside the dilated argument
(``psi(2^s x - k)``), matching the scalar basis atom at that scale.  These
vector atoms are the d = 1 catalog atoms of ``basisnd.build_basis_nd(filt,
1, m)`` and are sampled by ``basisnd.sample_vector_atom_nd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotOrthonormalError, ResolutionError
from .scalar import ScalarFilter, filter_deviations, quad_inner, scaled_atom_sample
from .star import MatrixM


class Component(NamedTuple):
    """One scalar factor: which atom and at what dyadic scale."""

    kind: str
    scale: int


@dataclass(frozen=True)
class VectorBasis1D:
    """Descriptor of the stacked m-channel basis for one scalar filter."""

    filter: ScalarFilter
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"channel count must be >= 1, got {self.m}")

    @property
    def dilation(self) -> int:
        return 2**self.m

    def scaling_components(self) -> tuple:
        return (Component("scaling", 0),) + tuple(
            Component("wavelet", s) for s in range(self.m - 1)
        )

    def wavelet_components(self, t: int) -> tuple:
        if t < 0:
            raise ValueError(f"wavelet level must be >= 0, got {t}")
        base = self.m * t + self.m - 1
        return tuple(Component("wavelet", base + r) for r in range(self.m))


def build_vector_basis(filt: ScalarFilter, m: int) -> VectorBasis1D:
    """Stack a scalar wavelet into an m-channel vector basis descriptor."""
    if not isinstance(filt, ScalarFilter):
        raise TypeError(f"filt must be a ScalarFilter, got {type(filt).__name__}")
    return VectorBasis1D(filt, m)


@dataclass(frozen=True)
class MatrixFilter:
    """Matrix taps of the vector two-scale relation at dilation 2^m.

    ``taps[i]`` is the m x m coefficient of the dilate translated by
    ``start + i``; the identity reads Phi(x) = sum_k P_k Phi(2^m x - k)
    with the right side's atoms taken L2-normalized (amplitude 2^(m/2)).
    """

    taps: np.ndarray
    start: int
    dilation: int

    def __post_init__(self):
        t = np.array(self.taps, dtype=float)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"taps must have shape (K, m, m), got {t.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "taps", t)

    @property
    def m(self) -> int:
        return self.taps.shape[1]

    def coefficient(self, k: int) -> MatrixM:
        i = k - self.start
        if 0 <= i < len(self.taps):
            return MatrixM(self.taps[i])
        return MatrixM.zero(self.m)


def _compose_step(c: np.ndarray, c_start: int, h: np.ndarray, h_start: int) -> tuple:
    """One two-scale composition: new_k = sum_n c_n h_{k - 2n}."""
    L = len(h)
    out = np.zeros(2 * (len(c) - 1) + L)
    for n, cn in enumerate(c):
        out[2 * n : 2 * n + L] += cn * h
    return out, 2 * c_start + h_start


def matrix_refinement_filter(basis: VectorBasis1D) -> MatrixFilter:
    """Taps P_k expressing each channel through the dilation-2^m relation.

    Channel r at scale s expands through m - s two-scale steps down to
    scale-m translates of phi, so only the first tap column is nonzero.
    The first step uses the channel's own filter (h or g), every further
    step uses h.
    """
    filt = basis.filter
    m = basis.m
    rows = []
    for c in basis.scaling_components():
        if c.kind == "scaling":
            seq, start = filt.h.copy(), filt.h_start
            extra = m - 1
        else:
            seq, start = filt.g.copy(), filt.g_start
            extra = m - c.scale - 1
        for _ in range(extra):
            seq, start = _compose_step(seq, start, filt.h, filt.h_start)
        rows.append((seq, start))
    lo = min(s for _, s in rows)
    hi = max(s + len(q) for q, s in rows)
    taps = np.zeros((hi - lo, m, m))
    for r, (seq, start) in enumerate(rows):
        taps[start - lo : start - lo + len(seq), r, 0] = seq
    return MatrixFilter(taps, lo, basis.dilation)


def refine_residual(basis: VectorBasis1D, mf: MatrixFilter, J: int) -> float:
    """Largest pointwise vector 1-norm gap in the two-scale identity.

    Evaluates Phi and sum_k P_k times the L2-normalized dilated atoms on
    the level-J grid and returns max over grid points of the channelwise
    absolute sum of the difference.
    """
    m = basis.m
    if J < m:
        raise ResolutionError(f"need J >= {m} to sample the dilated side, got {J}")
    comps = basis.scaling_components()
    # Phi's rows at k = 0, each on its own window.
    rows = [scaled_atom_sample(basis.filter, c.kind, c.scale, 0, J) for c in comps]
    # (tap, column) pairs whose coefficient column is nonzero, tap-major.
    taps, cols = np.nonzero(np.any(mf.taps, axis=1))
    pairs = list(zip(taps.tolist(), cols.tolist()))
    # A dilated generator's samples do not depend on its translate: each
    # column is sampled once at k = 0, and tap k starts k 2^(J-m) later.
    atoms = {}
    for c in dict.fromkeys(c for _, c in pairs):
        comp = comps[c]
        atoms[c] = scaled_atom_sample(basis.filter, comp.kind, m + comp.scale, 0, J)
    step = 2 ** (J - m)
    starts = [atoms[c].start + (mf.start + i) * step for i, c in pairs]
    # Union window of Phi's rows and every term on the right side.
    lo = min([row.start for row in rows] + starts)
    hi = max(
        [row.start + len(row.values) for row in rows]
        + [s + len(atoms[c].values) for s, (_, c) in zip(starts, pairs)]
    )
    rhs = np.zeros((m, hi - lo))
    for s, (i, c) in zip(starts, pairs):
        values = atoms[c].values
        rhs[:, s - lo : s - lo + len(values)] += np.outer(mf.taps[i, :, c], values)
    full = np.zeros((m, hi - lo))
    for r, row in enumerate(rows):
        full[r, row.start - lo : row.start - lo + len(row.values)] = row.values
    return float(np.max(np.sum(np.abs(full - rhs), axis=0)))


@dataclass(frozen=True)
class Multiwavelet:
    """m scaling functions and m mother wavelets over one scalar filter."""

    filter: ScalarFilter
    scaling: tuple
    wavelets: tuple

    @property
    def m(self) -> int:
        return len(self.scaling)


def to_multiwavelet(basis: VectorBasis1D) -> Multiwavelet:
    """Unstack the vector basis into 2m scalar generator functions.

    The m channels of the scaling atom become the m scaling functions and
    the m channels of the level-0 wavelet atom become the m mother
    wavelets.  Before returning, the matrix two-scale relation
    Phi(x) = sum_k P_k Phi(2^m x - k) with the taps of
    :func:`matrix_refinement_filter` is sampled by :func:`refine_residual`
    on the level-m grid; a residual above 1e-10 raises RuntimeError.  A
    filter whose taps then miss the ``sum`` or ``orthonormality`` axiom of
    :func:`filter_deviations` by more than 1e-12 raises NotOrthonormalError:
    its cascade may still refine, but its translates are not orthonormal.
    """
    dev = refine_residual(basis, matrix_refinement_filter(basis), basis.m)
    if dev > 1e-10:
        raise RuntimeError(f"two-scale refinement residual {dev:.3e} exceeds 1e-10")
    axioms = filter_deviations(basis.filter)
    if axioms["sum"] > 1e-12 or axioms["orthonormality"] > 1e-12:
        raise NotOrthonormalError(
            f"filter {basis.filter.name} misses the orthonormal filter axioms by more than "
            f"1e-12: sum {axioms['sum']:.3e}, orthonormality {axioms['orthonormality']:.3e}"
        )
    return Multiwavelet(
        basis.filter, basis.scaling_components(), basis.wavelet_components(0)
    )


class FactorInnerCache:
    """Quadrature inner products of 1D scalar factors over memoized samples.

    A key ``(kind, scale, shift)`` names the factor
    ``2**(scale/2) atom(2**scale x - shift)``.  Each pair is measured on a
    grid J levels finer than the larger of the two scales, so J is a
    resolution margin and fine-scale factors are never undersampled.
    """

    def __init__(self, filt: ScalarFilter, J: int):
        if J < 1:
            raise ValueError(f"need a resolution margin J >= 1, got {J}")
        self.filt = filt
        self.J = J
        self._samples = {}

    def _quad(self, key_a, key_b) -> float:
        grid = max(key_a[1], key_b[1]) + self.J
        sa, sb = key_a + (grid,), key_b + (grid,)
        for skey in (sa, sb):
            if skey not in self._samples:
                self._samples[skey] = scaled_atom_sample(self.filt, *skey)
        return quad_inner(self._samples[sa], self._samples[sb])

    def gram(self, keys: list) -> np.ndarray:
        """Gram matrix of the listed keys, one quadrature per unordered pair.

        Entry (p, q), p <= q, is measured in that order and mirrored; a key
        listed twice gets two rows.
        """
        n = len(keys)
        out = np.empty((n, n))
        for p in range(n):
            for q in range(p, n):
                out[p, q] = out[q, p] = self._quad(keys[p], keys[q])
        return out


def translate_gram_deviation(mw: Multiwavelet, J: int = 8, k_range: int = 2) -> float:
    """How far the 2m generators are from translate-orthonormality.

    Every pair of generator translates with |k| <= k_range is measured
    by :meth:`FactorInnerCache.gram`, so J is a resolution margin and
    fine-scale generators are never undersampled.  Returns the largest
    deviation from the identity pairing.
    """
    # One row per (slot, k), not per descriptor: duplicated generators must
    # pair to zero, so they may not alias each other here.
    comps = tuple(mw.scaling) + tuple(mw.wavelets)
    ks = range(-k_range, k_range + 1)
    keys = [(c.kind, c.scale, k * 2**c.scale) for c in comps for k in ks]
    gram = FactorInnerCache(mw.filter, J).gram(keys)
    return float(np.max(np.abs(gram - np.eye(len(keys))), initial=0.0))


def from_multiwavelet(mw: Multiwavelet, J: int = 8, tol: float = 1e-10) -> VectorBasis1D:
    """Reassemble a vector basis from multiwavelet generators.

    The generators are Gram-checked under integer translation first; a
    deviation above ``tol`` raises NotOrthonormalError.  The descriptor
    lists must form the laddered scale layout produced by
    :func:`to_multiwavelet`, which pins down the basis uniquely.
    """
    if len(mw.scaling) != len(mw.wavelets):
        raise ValueError(
            f"need equal generator counts, got {len(mw.scaling)} scaling and "
            f"{len(mw.wavelets)} wavelets"
        )
    dev = translate_gram_deviation(mw, J=J)
    if dev > tol:
        raise NotOrthonormalError(
            f"generator translates deviate from orthonormality by {dev:.3e}"
        )
    m = len(mw.scaling)
    basis = VectorBasis1D(mw.filter, m)
    if tuple(mw.scaling) != basis.scaling_components() or tuple(
        mw.wavelets
    ) != basis.wavelet_components(0):
        raise ValueError("generator scales do not form the laddered layout")
    return basis
