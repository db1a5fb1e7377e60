"""Scalar orthonormal wavelets on dyadic grids.

Compactly supported orthonormal wavelet filters (Haar and the minimal-phase
Daubechies family, from tabulated float64 taps), exact evaluation of the
scaling function and wavelet on dyadic grids, and left-endpoint quadrature
for inner products and moments of the sampled functions.  The scaling
function is the one cascade; the wavelet is one two-scale pass over it,
``psi(x) = sqrt(2) * sum_k g[k] * phi(2x - k)`` (Daubechies, *Ten Lectures
on Wavelets*, 1992, section 6.5).

The one memo here is ``_table_cache``: per filter object, weakly, so it
dies with the filter and two ``filter_by_name`` calls share nothing, the
finest table built so far of each function, restricted for coarser grids
and built anew for finer ones.  Every ``verify`` re-reads it through
``scaled_atom_sample``: a warm ``run_verify`` of each of db10's d = 1,
m = 1..3 bases makes 12 such reads in all, every one a hit.  A scale-0
atom holds the cached array itself; a dilated one is scaled on each call.
Filters are built afresh on each call, in 0.007-0.014 ms (db2-db10), since
a process builds one filter and keeps it.

Conventions
-----------
A filter ``h`` of length ``L = 2N`` is stored with start offset 0 and
normalized so ``sum(h) == sqrt(2)``; the scaling function solves
``phi(x) = sqrt(2) * sum_k h[k] * phi(2x - k)`` and is supported on
``[0, L-1]``.  The wavelet filter is ``g[k] = (-1)**k * h[L-1-k]`` shifted to
start offset ``2 - L``, which places the wavelet support at
``[1 - L/2, L/2]``.  Samples are taken at left endpoints of the cells of the
grid with step ``2**-J``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._daubechies_taps import DAUBECHIES_H
from .errors import FileFormatError, ResolutionError, SizeGuardError

SQRT2 = math.sqrt(2.0)

_MAX_MOMENT = 12

# Largest cascade table, in samples ((L - 1) * 2**J).  Refinement doubles
# the table per level, so an unchecked J asks for arrays of any size; the
# deepest table the tests, demos and benchmark reach is 19 * 2**17 (db10).
MAX_TABLE_SAMPLES = 1 << 26

# Finest grid level of a scaled atom: past it the step 2**-J is no longer a
# normal float, and since scale <= J the amplitude 2**(scale/2) stays finite.
MAX_GRID_LEVEL = 1022


def _frozen(values) -> np.ndarray:
    """`values` kept if a read-only float64 array on memory of its own or of a `bytes`, else copied read-only.

    The ownership rule of every value type: `ScalarFilter`,
    `SampledFunction`, `star.MatrixM`, `star.VectorSampledFunction`,
    `basis1d.MatrixFilter`, `transform.VectorSignal` and `transform.Band`.
    numpy refuses to make a view of `bytes` writeable.  Anything else is
    copied, so later writes to the caller's array never reach the value; a
    producer hands over a fresh result uncopied by marking it read-only.
    Whoever holds a kept array that owns its memory can set it writeable
    again, so a caller who means to write its array later must pass a copy.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        base = values
        while isinstance(base, np.ndarray) and not base.flags.owndata:
            base = base.base
        if base is values or isinstance(base, bytes):
            return values
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ScalarFilter:
    """An orthonormal two-band filter pair with integer start offsets; ``==`` is identity."""

    name: str
    h: np.ndarray
    h_start: int
    g: np.ndarray
    g_start: int
    vanishing_moments: int

    def __post_init__(self):
        object.__setattr__(self, "h", _frozen(self.h))
        object.__setattr__(self, "g", _frozen(self.g))
        if len(self.h) != len(self.g):
            raise ValueError("filter pair must have equal lengths")

    @property
    def length(self) -> int:
        return len(self.h)


def _axiom_deviations(filt: ScalarFilter) -> dict:
    """The ``"sum"`` and ``"orthonormality"`` deviations of :func:`filter_deviations`.

    The two axioms that ``basis1d.to_multiwavelet`` checks for every basis
    it is given; they need no wavelet moment.
    """
    h = filt.h
    L = len(h)
    dev_orth = 0.0
    for n in range(L // 2):
        acc = math.fsum(h[k] * h[k + 2 * n] for k in range(L - 2 * n))
        target = 1.0 if n == 0 else 0.0
        dev_orth = max(dev_orth, abs(acc - target))
    return {"sum": abs(math.fsum(h) - SQRT2), "orthonormality": dev_orth}


def filter_deviations(filt: ScalarFilter) -> dict:
    """Measure how far a filter pair is from the orthonormal filter axioms.

    Returns a dict with the absolute deviations:

    - ``"sum"``: ``|sum(h) - sqrt(2)|``
    - ``"orthonormality"``: ``max_n |sum_k h[k] h[k+2n] - delta_n|``
    - ``"wavelet_sum"``: ``|sum(g)|``
    - ``"moments"``: ``max_{0 <= p < N} |sum_k g[k] k**p|`` with ``k`` the
      stored absolute index (offset included)

    Sums are accumulated with ``math.fsum``, except the moment sums which use
    exact rational arithmetic: the terms ``g[k] * k**p`` reach 1e6 for the
    longer filters, so float products alone would drown moments near 1e-12
    in rounding noise.
    """
    moments = _exact_wavelet_moments(filt.g, filt.g_start, filt.vanishing_moments)
    return {
        **_axiom_deviations(filt),
        "wavelet_sum": abs(math.fsum(filt.g)),
        "moments": max(abs(float(m)) for m in moments),
    }


def _exact_wavelet_moments(g: np.ndarray, g_start: int, count: int) -> list:
    """Moments ``sum_k g[k] k**p`` for ``p < count``, as exact Fractions.

    Every float tap is ``num / 2**e``; shifted onto the largest such
    denominator, the taps become integers and each sum runs in Python ints.
    """
    ratios = [float(gi).as_integer_ratio() for gi in g]
    shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
    nums = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    return [
        Fraction(sum(num * (g_start + i) ** p for i, num in enumerate(nums)), 1 << shift)
        for p in range(count)
    ]


def _qmf_pair(h: np.ndarray) -> tuple[np.ndarray, int]:
    """Alternating-sign reversal of ``h``, placed so the wavelet is centered."""
    L = len(h)
    g = np.array([(-1.0) ** i * h[L - 1 - i] for i in range(L)])
    return g, 2 - L


def haar_filter() -> ScalarFilter:
    """The Haar filter pair, h = g-mirror = (1/sqrt(2), 1/sqrt(2))."""
    h = np.array([1.0, 1.0]) / SQRT2
    g, g_start = _qmf_pair(h)
    return ScalarFilter("haar", h, 0, g, g_start, 1)


def daubechies_filter(N: int) -> ScalarFilter:
    """Minimal-phase Daubechies filter with ``N`` vanishing moments.

    The taps are a table of float64 values, stored as ``float.hex`` strings
    in :mod:`vecwave._daubechies_taps`: the filters of Daubechies, *Ten
    Lectures on Wavelets* (1992), Table 6.1, as ``tools/gen_daubechies.py``
    computes them by high-precision spectral factorization of the Daubechies
    moment polynomial.  The package never runs that script; the axioms of
    the taps are checked by ``basis1d.to_multiwavelet``, for every basis
    built on them.  ``N = 1`` coincides with :func:`haar_filter`.

    Parameters
    ----------
    N : int
        Number of vanishing moments, ``1 <= N <= 10``.  Filter length is
        ``2N``.
    """
    if not 1 <= N <= 10:
        raise ValueError(f"N must be in 1..10, got {N}")
    if N == 1:
        f = haar_filter()
        return ScalarFilter("db1", f.h, f.h_start, f.g, f.g_start, 1)

    h = np.array([float.fromhex(tap) for tap in DAUBECHIES_H[N]])
    g, g_start = _qmf_pair(h)
    return ScalarFilter(f"db{N}", h, 0, g, g_start, N)


def filter_by_name(name: str) -> ScalarFilter:
    """Look up ``"haar"`` or ``"db1"`` .. ``"db10"`` by its exact name, so
    ``filter_by_name(name).name == name``."""
    if name == "haar":
        return haar_filter()
    for N in range(1, 11):
        if name == f"db{N}":
            return daubechies_filter(N)
    raise ValueError(f"unknown filter name {name!r}")


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """A function sampled at left endpoints of a dyadic grid.

    ``values[i]`` is the value at ``(start + i) * 2**-level``; ``start`` is an
    integer count of grid steps, so the support window begins at an exact
    dyadic rational.  ``==`` is identity.
    """

    start: int
    level: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def step(self) -> float:
        return 2.0 ** -self.level

    def grid(self) -> np.ndarray:
        """Sample positions as floats."""
        return (self.start + np.arange(len(self.values))) * self.step


def _integer_values(filt: ScalarFilter) -> np.ndarray:
    """Exact scaling-function values on the integer grid 0..L-1.

    For length-2 filters the scaling function is the unit indicator, taken
    right-continuous: value 1 at 0 and 0 at 1.  For longer filters the
    interior values solve the eigenproblem of the two-scale transfer matrix
    at eigenvalue 1, normalized so the values sum to 1; the endpoint values
    vanish.
    """
    L = filt.length
    if L == 2:
        return np.array([1.0, 0.0])
    n = L - 2
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * (i + 1) - (j + 1)
            if 0 <= k < L:
                M[i, j] = SQRT2 * filt.h[k]
    w, v = np.linalg.eig(M)
    idx = int(np.argmin(np.abs(w - 1.0)))
    vec = np.real(v[:, idx])
    vec = vec / vec.sum()
    out = np.zeros(L)
    out[1:-1] = vec
    return out


def _finest_level(filt: ScalarFilter) -> int:
    """The finest level whose ``(L - 1) * 2**level`` samples fit ``MAX_TABLE_SAMPLES``.

    Found without computing ``2**level``, which for a level from a flag or
    file could be any size.
    """
    return (MAX_TABLE_SAMPLES // (filt.length - 1)).bit_length() - 1


# per filter, one (level, table) per function: the finest table built so far
_table_cache: weakref.WeakKeyDictionary[ScalarFilter, dict] = weakref.WeakKeyDictionary()


def _add_taps(out, coef, start, j, src, stride, offset) -> None:
    """Add ``sqrt(2) c_i src[stride q + offset - (start + i) 2**j]`` to ``out[q]``.

    One slice add per tap, in tap order, reading only indices inside
    ``src``: a tap wholly outside it gets empty slices, so it changes no
    bit of a +0.0 accumulator.
    """
    for i, c in enumerate(coef):
        base = offset - (start + i) * 2**j
        q0 = max(0, -(base // stride))
        q1 = max(q0, min(len(out), -((base - len(src)) // stride)))
        s0 = stride * q0 + base
        out[q0:q1] += SQRT2 * c * src[s0 : s0 + stride * (q1 - q0) : stride]


def _table(filt: ScalarFilter, which: str, J: int) -> np.ndarray:
    """Read-only level-J table of the scaling function or wavelet.

    Index p holds the value at ``support_start + p * 2**-J``.  Only the
    finest table of each function is cached, as long as its filter lives.
    A coarser request gets a contiguous copy of every ``2**(level - J)``-th
    sample (a dot may sum a strided view in another order); a finer one is
    built.  phi is the one cascade: level 0 is the integer-grid
    eigenvector, and level ``j + 1`` keeps level ``j`` as its even samples
    while odd sample ``2q + 1`` adds
    ``sqrt(2) h_i phi_j[2q + 1 - (h_start + i) 2**j]``.  psi is one pass
    over phi at level ``t = max(J - 1, 0)``: the value at ``x`` adds
    ``sqrt(2) g_i phi_t[(2x - g_start - i) 2**t]`` over the taps of g.
    Each sample is thus formed once, from the same products in the same
    order, whatever the requests.
    """
    start = support_start(filt, which)
    finest = _finest_level(filt)
    if J > finest:
        raise SizeGuardError(
            f"a level-{J} table of {filt.name} would hold {filt.length - 1} * 2**{J} samples, "
            f"more than the {MAX_TABLE_SAMPLES} allowed (level {finest} at most)"
        )
    tables = _table_cache.setdefault(filt, {})
    level, table = tables.get(which, (-1, None))
    if J <= level:
        if J == level:
            return table
        out = table[:: 2 ** (level - J)].copy()
        out.flags.writeable = False
        return out
    if which == "wavelet":
        t = max(J - 1, 0)
        # sample q, at x = s + q 2**-J, reads phi_t index 2**(t + 1) x - (g_start + i) 2**t:
        # stride 2 at J = 0, where phi_0 is on the same grid, else 1
        stride = 2 ** (t + 1 - J)
        phi = _table(filt, "scaling", t)
        table = np.zeros((filt.length - 1) * 2**J)
        _add_taps(table, filt.g, filt.g_start, t, phi, stride, start * 2 ** (t + 1))
    else:
        if level < 0:
            table, level = _integer_values(filt)[:-1].copy(), 0  # left-closed: drop phi(L-1) = 0
        for j in range(level, J):
            new = np.zeros(2 * len(table))
            new[0::2] = table
            _add_taps(new[1::2], filt.h, filt.h_start, j, table, 2, 1)
            table = new
    table.flags.writeable = False
    tables[which] = (J, table)
    return table


def support_start(filt: ScalarFilter, which: str) -> int:
    """Integer left end of the support of the scaling function or wavelet."""
    if which not in ("scaling", "wavelet"):
        raise ValueError(f"which must be 'scaling' or 'wavelet', got {which!r}")
    return 0 if which == "scaling" else 1 - filt.length // 2


def refine_sample(filt: ScalarFilter, which: str, J: int) -> SampledFunction:
    """Sample the scaling function or wavelet on the level-J dyadic grid.

    The values are exact on dyadic rationals: they are produced by the
    two-scale recursion starting from the integer-grid eigenvector, so
    refining further never changes already-computed samples.

    Parameters
    ----------
    filt : ScalarFilter
    which : {"scaling", "wavelet"}
    J : int
        Grid level; the step is ``2**-J``.  ``0 <= J <= MAX_GRID_LEVEL``.

    Returns
    -------
    SampledFunction
        ``(L-1) * 2**J`` left-endpoint samples covering the support,
        ``[0, L-1]`` for the scaling function and ``[1 - L/2, L/2]`` for the
        wavelet.
    """
    return scaled_atom_sample(filt, which, 0, 0, J)


def scaled_atom_sample(
    filt: ScalarFilter, which: str, scale: int, k: int, J: int
) -> SampledFunction:
    """Sample ``2**(scale/2) * atom(2**scale x - k)`` at grid level ``J``.

    ``atom`` is the scaling function or the wavelet per ``which``.  Requires
    ``J >= scale`` so the dilated function still lands on grid points
    exactly.  The values do not depend on ``k``: at scale 0 they are the
    level-J table itself, since ``1.0 * x`` is ``x`` bit for bit, and at a
    coarser scale they are the level ``J - scale`` table times
    ``2**(scale/2)``, formed on each call from ``_table_cache``'s table.
    """
    if J < scale:
        raise ResolutionError(f"grid level {J} is coarser than the atom's scale {scale}")
    if J > MAX_GRID_LEVEL:
        raise SizeGuardError(
            f"grid level {J} is past {MAX_GRID_LEVEL}, the finest with a normal float step"
        )
    values = _table(filt, which, J - scale)
    if scale:
        values = 2.0 ** (scale / 2.0) * values
        values.flags.writeable = False
    # the table guard above has bounded J - scale
    start = (support_start(filt, which) + k) * 2 ** (J - scale)
    return SampledFunction(start, J, values)


def _split(r: np.ndarray, top) -> np.ndarray:
    """The high part ``q = (sigma + r) - sigma`` of each row of ``r``.

    ``top`` is each row's largest ``|r|``, inside ``(2**-900, 2**900)``, and
    ``sigma = 2**k >= (n + 2) * top`` for rows of n values.  Each q is a
    multiple of ``2**-53 * sigma`` within that distance of r, so ``r - q``
    is exact, and the q of a row sum exactly in any order, since every
    partial sum stays below sigma (Rump, Ogita & Oishi, "Accurate
    floating-point summation part I", *SIAM J. Sci. Comput.* 31, 2008,
    ExtractVector).
    """
    sigma = np.ldexp(1.0, (r.shape[-1] + 1).bit_length() + np.frexp(top)[1])[..., None]
    return (sigma + r) - sigma


def _dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """``sum(a * b)`` with the same bits whatever the machine's thread count.

    ``np.dot`` hands long vectors to a threaded BLAS, whose partial sums
    follow the thread count.  Here ``_split`` cuts each product without
    error into a high part, and these parts sum exactly in any order; the
    small remainders are summed pairwise.  So the result is the sum of the
    rounded products up to about one rounding.  Products past ``2**+-900``,
    where sigma would leave the normal range, are summed pairwise alone.

    Vectors give a float.  Stacked rows (2-D ``a`` and ``b`` of one shape)
    give an array of one result per row, each with the bits of the call on
    that row alone: numpy sums the last axis of a contiguous array pairwise,
    row by row.
    """
    if np.ndim(a) == 1:
        return float(_dot(a[None], b[None])[0])
    p = a * b
    top = abs(p).max(axis=1, initial=0.0)
    ok = (2.0**-900 < top) & (top < 2.0**900)
    if not ok.all():
        # the plain pairwise sum, kept by the rows sigma would not suit
        out = p.sum(axis=1)
        if ok.any():
            out[ok] = _dot(a[ok], b[ok])
        return out
    q = _split(p, top)
    return q.sum(axis=1) + (p - q).sum(axis=1)


def _fsum(values: np.ndarray) -> float:
    """``math.fsum(values)``, bit for bit, without a Python list of them all.

    Each round cuts the remaining n values with ``_split``, keeps the exact
    sum of the high parts and goes on with the nonzero remainders, whose
    largest is at least 52 - bitlen(n + 1) bits below the last.  It stops
    at 32 values or fewer, or when the largest leaves ``(2**-900, 2**900)``
    (NaN and inf included).  The parts and the values left then have the
    same exact sum as ``values``, and ``math.fsum`` rounds that sum
    correctly, so it returns the same float, a zero sum's +0.0 included.
    """
    parts = []
    r = values
    while len(r) > 32:
        top = abs(r).max()
        if not 2.0**-900 < top < 2.0**900:
            break
        q = _split(r, top)
        parts.append(float(q.sum()))
        r = r - q
        r = r[r != 0.0]
    return math.fsum(parts + r.tolist())


def quad_inner(f: SampledFunction, g: SampledFunction) -> float:
    """Left-endpoint quadrature of ``integral f g`` over the union support.

    Both inputs must share the same grid level; supports may differ, the
    shorter one is treated as zero outside its window.
    """
    if f.level != g.level:
        raise ResolutionError(
            f"grid levels differ: {f.level} vs {g.level}; resample first"
        )
    lo = max(f.start, g.start)
    hi = min(f.start + len(f.values), g.start + len(g.values))
    if hi <= lo:
        return 0.0
    fv = f.values[lo - f.start : hi - f.start]
    gv = g.values[lo - g.start : hi - g.start]
    return _dot(fv, gv) * f.step


def _powers(x: np.ndarray, top: int):
    """Yield ``x**1 .. x**top``, each the one before times ``x``, in one array.

    The products cost a fraction of an elementwise ``pow``.  Up to ``x**3``
    they are exact while every grid index ``x * 2**level`` is below 2**17
    in magnitude, since its cube then fits a double's 53 bits; higher
    powers may differ from ``pow`` in the last bits.
    """
    xp = x.copy()
    for p in range(1, top + 1):
        if p > 1:
            xp *= x
        yield xp


def _moments(f: SampledFunction, count: int) -> list:
    """``[moment(f, p) for p in range(count)]``, bit for bit, on one ladder."""
    if count > _MAX_MOMENT + 1:
        raise ValueError(f"moment order must be in 0..{_MAX_MOMENT}, got {count - 1}")
    if count <= 0:
        return []
    sums = [_fsum(f.values)] + [_dot(xp, f.values) for xp in _powers(f.grid(), count - 1)]
    return [s * f.step for s in sums]


def moment(f: SampledFunction, p: int) -> float:
    """Left-endpoint quadrature of ``integral x**p f(x) dx``; ``p <= 12``.

    At p = 0 the sum of the samples is ``math.fsum``'s, the correctly
    rounded exact sum, taken by ``_fsum`` at array speed.  Otherwise
    ``x**p`` comes from ``_powers``' product ladder and the products are
    summed by ``_dot``.  Neither sum's bits depend on the thread count.
    """
    if not 0 <= p <= _MAX_MOMENT:
        raise ValueError(f"moment order must be in 0..{_MAX_MOMENT}, got {p}")
    if p == 0:
        return _fsum(f.values) * f.step
    *_, xp = _powers(f.grid(), p)
    return _dot(xp, f.values) * f.step


def sampled_to_csv(f: SampledFunction) -> str:
    """Serialize to CSV: a comment header, then one value per line."""
    lines = [f"# start={f.start} step=2^-{f.level} len={len(f.values)}"]
    lines.extend(f"{v:.17g}" for v in f.values)
    return "\n".join(lines) + "\n"


def sampled_from_csv(text: str) -> SampledFunction:
    """Inverse of :func:`sampled_to_csv`.

    The grid level must lie in ``0..MAX_GRID_LEVEL``, every sample must be
    finite, and the window's grid indices must lie within +-2**53, so that
    each is an exact float and every cell edge ``(start + i) * 2**-level``
    is a finite coordinate distinct from its neighbours.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise FileFormatError("missing sampled-function header")
    header = lines[0][1:].split()
    fields = dict(part.split("=", 1) for part in header if "=" in part)
    try:
        start = int(fields["start"])
        step = fields["step"]
        n = int(fields["len"])
        if not step.startswith("2^-"):
            raise KeyError("step")
        level = int(step[3:])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"bad sampled-function header: {lines[0]!r}") from exc
    if not 0 <= level <= MAX_GRID_LEVEL:
        raise FileFormatError(f"grid level {level} is outside 0..{MAX_GRID_LEVEL}")
    vals = np.array([float(ln) for ln in lines[1:]])
    if len(vals) != n:
        raise FileFormatError(f"expected {n} values, found {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise FileFormatError("samples must be finite, found NaN or inf")
    if start < -(2**53) or start + n > 2**53:
        raise FileFormatError(
            f"window {start}..{start + n} does not fit a finite coordinate: "
            "grid indices must lie within +-2**53"
        )
    return SampledFunction(start, level, vals)
