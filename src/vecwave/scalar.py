"""Scalar orthonormal wavelets on dyadic grids.

Compactly supported orthonormal wavelet filters (Haar and the minimal-phase
Daubechies family, from tabulated float64 taps), exact evaluation of the
scaling function and wavelet on dyadic grids by cascade refinement, and
left-endpoint quadrature for inner products and moments of the sampled
functions.

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


@dataclass(frozen=True)
class ScalarFilter:
    """An orthonormal two-band filter pair with integer start offsets."""

    name: str
    h: np.ndarray
    h_start: int
    g: np.ndarray
    g_start: int
    vanishing_moments: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g = np.asarray(self.g, dtype=float)
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        if len(h) != len(g):
            raise ValueError("filter pair must have equal lengths")

    @property
    def length(self) -> int:
        return len(self.h)


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
    h = filt.h
    L = len(h)
    dev_sum = abs(math.fsum(h) - SQRT2)
    dev_orth = 0.0
    for n in range(L // 2):
        acc = math.fsum(h[k] * h[k + 2 * n] for k in range(L - 2 * n))
        target = 1.0 if n == 0 else 0.0
        dev_orth = max(dev_orth, abs(acc - target))
    dev_gsum = abs(math.fsum(filt.g))
    moments = _exact_wavelet_moments(filt.g, filt.g_start, filt.vanishing_moments)
    dev_mom = max(abs(float(m)) for m in moments)
    return {
        "sum": dev_sum,
        "orthonormality": dev_orth,
        "wavelet_sum": dev_gsum,
        "moments": dev_mom,
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


_daub_cache: dict[int, ScalarFilter] = {}


def daubechies_filter(N: int) -> ScalarFilter:
    """Minimal-phase Daubechies filter with ``N`` vanishing moments.

    The taps are a table of float64 values, stored as ``float.hex`` strings
    in :mod:`vecwave._daubechies_taps`: the filters of Daubechies, *Ten
    Lectures on Wavelets* (1992), Table 6.1, as ``tools/gen_daubechies.py``
    computes them by high-precision spectral factorization of the Daubechies
    moment polynomial.  The package never runs that script.  ``N = 1``
    coincides with :func:`haar_filter`.

    Parameters
    ----------
    N : int
        Number of vanishing moments, ``1 <= N <= 10``.  Filter length is
        ``2N``.
    """
    if not 1 <= N <= 10:
        raise ValueError(f"N must be in 1..10, got {N}")
    if N in _daub_cache:
        return _daub_cache[N]
    if N == 1:
        f = haar_filter()
        filt = ScalarFilter("db1", f.h, f.h_start, f.g, f.g_start, 1)
        _daub_cache[N] = filt
        return filt

    h = np.array([float.fromhex(tap) for tap in DAUBECHIES_H[N]])
    g, g_start = _qmf_pair(h)
    filt = ScalarFilter(f"db{N}", h, 0, g, g_start, N)
    dev = filter_deviations(filt)
    if dev["sum"] > 1e-12 or dev["orthonormality"] > 1e-12:
        raise RuntimeError(f"db{N} factorization failed axioms: {dev}")
    _daub_cache[N] = filt
    return filt


def filter_by_name(name: str) -> ScalarFilter:
    """Look up ``"haar"`` or ``"dbN"`` by name."""
    if name == "haar":
        return haar_filter()
    if name.startswith("db"):
        try:
            N = int(name[2:])
        except ValueError:
            raise ValueError(f"unknown filter name {name!r}") from None
        return daubechies_filter(N)
    raise ValueError(f"unknown filter name {name!r}")


@dataclass(frozen=True)
class SampledFunction:
    """A function sampled at left endpoints of a dyadic grid.

    ``values[i]`` is the value at ``(start + i) * 2**-level``; ``start`` is an
    integer count of grid steps, so the support window begins at an exact
    dyadic rational.
    """

    start: int
    level: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

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


def _tap_slices(shift: int, n_out: int, stride: int, offset: int, n_src: int) -> tuple:
    """Slices ``(dst, src)`` so that ``out[dst] += c * table[src]`` adds one tap.

    Output ``i`` in ``0..n_out-1`` reads ``table[stride * i + offset - shift]``
    where that index lies in ``0..n_src-1``; a tap wholly outside the table
    gives two empty slices, so it changes no bit of a +0.0 accumulator.
    """
    q0 = max(0, -((offset - shift) // stride))
    q1 = max(q0, min(n_out, -((offset - shift - n_src) // stride)))
    s0 = stride * q0 + offset - shift
    return slice(q0, q1), slice(s0, s0 + stride * (q1 - q0), stride)


def _phi_table(filt: ScalarFilter, J: int) -> np.ndarray:
    """Scaling-function values on the level-J grid over [0, L-1).

    Index p holds ``phi(p * 2**-J)``.  Even indices at each refinement are
    copied from the previous level, so restriction to a coarser grid is
    bitwise exact, and refinement resumes from the finest cached coarser
    level instead of the integer grid.  Odd index ``2q + 1`` of level
    ``j + 1`` sums ``sqrt(2) h[i] * vals[2q + 1 - (h_start + i) 2**j]``: one
    stride-2 slice add per tap, in tap order, into a +0.0 accumulator.
    """
    coarser = [j for j in _cached_levels(filt, "scaling") if j < J]
    if coarser:
        j0, vals = coarser[-1], _table_cache[(_filter_key(filt), "scaling", coarser[-1])]
    else:
        j0, vals = 0, _integer_values(filt)[:-1]  # left-closed: drop phi(L-1) = 0
    for j in range(j0, J):
        new = np.zeros(2 * len(vals))
        new[0::2] = vals
        acc = new[1::2]
        for i, hk in enumerate(filt.h):
            dst, src = _tap_slices((filt.h_start + i) * 2**j, len(acc), 2, 1, len(vals))
            acc[dst] += SQRT2 * hk * vals[src]
        vals = new
    return vals


def _psi_table(filt: ScalarFilter, J: int) -> np.ndarray:
    """Wavelet values on the level-J grid over [1 - L/2, L/2).

    ``psi(x) = sqrt(2) sum_i g[i] phi(2x - g_start - i)`` against the
    level-max(J-1, 0) scaling table: one slice add per tap, in tap order,
    into a +0.0 accumulator (stride 1, or stride 2 when J = 0).
    """
    L = filt.length
    jp = max(J - 1, 0)
    phi = _table(filt, "scaling", jp)
    out = np.zeros((L - 1) * 2**J)
    stride, offset = (2, 2 - L) if J == 0 else (1, (1 - L // 2) * 2**J)
    for i, gk in enumerate(filt.g):
        dst, src = _tap_slices((filt.g_start + i) * 2**jp, len(out), stride, offset, len(phi))
        out[dst] += SQRT2 * gk * phi[src]
    return out


def _filter_key(filt: ScalarFilter) -> tuple:
    """Cache identity of a filter: its name, taps and offsets.

    The name alone would let a filter built with a builtin name but other
    taps read the builtin's cached samples.
    """
    return (filt.name, filt.h.tobytes(), filt.h_start, filt.g.tobytes(), filt.g_start)


_table_cache: dict[tuple[tuple, str, int], np.ndarray] = {}


def _cached_levels(filt: ScalarFilter, which: str) -> list[int]:
    """Grid levels of the cached tables of one function, ascending."""
    fkey = _filter_key(filt)
    return sorted(j for k, w, j in _table_cache if k == fkey and w == which)


def _table(filt: ScalarFilter, which: str, J: int) -> np.ndarray:
    """Cached level-J table of the scaling function or wavelet.

    A finer cached table is restricted instead of computing the level again:
    the refinement and the wavelet sum form the same products in the same
    order at shared grid points, so restriction is bitwise exact.
    """
    if which not in ("scaling", "wavelet"):
        raise ValueError(f"which must be 'scaling' or 'wavelet', got {which!r}")
    # the finest level whose (L - 1) * 2**J samples fit, found without
    # computing 2**J, which for a J from a flag or file could be any size
    finest = (MAX_TABLE_SAMPLES // (filt.length - 1)).bit_length() - 1
    if J > finest:
        raise SizeGuardError(
            f"a level-{J} table of {filt.name} would hold {filt.length - 1} * 2**{J} samples, "
            f"more than the {MAX_TABLE_SAMPLES} allowed (level {finest} at most)"
        )
    key = (_filter_key(filt), which, J)
    if key not in _table_cache:
        finer = [j for j in _cached_levels(filt, which) if j > J]
        if finer:
            fine = _table_cache[(key[0], which, finer[0])]
            table = fine[:: 2 ** (finer[0] - J)].copy()
        elif which == "scaling":
            table = _phi_table(filt, J)
        else:
            table = _psi_table(filt, J)
        table.flags.writeable = False
        _table_cache[key] = table
    return _table_cache[key]


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
        Grid level; the step is ``2**-J``.  ``J >= 0``.

    Returns
    -------
    SampledFunction
        ``(L-1) * 2**J`` left-endpoint samples covering the support,
        ``[0, L-1]`` for the scaling function and ``[1 - L/2, L/2]`` for the
        wavelet.
    """
    if J < 0:
        raise ResolutionError(f"grid level must be nonnegative, got {J}")
    vals = _table(filt, which, J)
    return SampledFunction(support_start(filt, which) * 2**J, J, vals)


_scaled_cache: dict[tuple[tuple, str, int, int], np.ndarray] = {}


def scaled_atom_sample(
    filt: ScalarFilter, which: str, scale: int, k: int, J: int
) -> SampledFunction:
    """Sample ``2**(scale/2) * atom(2**scale x - k)`` at grid level ``J``.

    ``atom`` is the scaling function or the wavelet per ``which``.  Requires
    ``J >= scale`` so the dilated function still lands on grid points
    exactly.  The values do not depend on ``k``, so every translate shares
    one cached array.
    """
    if J < scale:
        raise ResolutionError(
            f"grid level {J} too coarse for atom at scale {scale}"
        )
    if J > MAX_GRID_LEVEL:
        raise SizeGuardError(
            f"grid level {J} is past {MAX_GRID_LEVEL}, the finest with a normal float step"
        )
    key = (_filter_key(filt), which, scale, J)
    if key not in _scaled_cache:
        values = 2.0 ** (scale / 2.0) * _table(filt, which, J - scale)
        values.flags.writeable = False
        _scaled_cache[key] = values
    # the table guard above has bounded J - scale
    start = (support_start(filt, which) + k) * 2 ** (J - scale)
    return SampledFunction(start, J, _scaled_cache[key])


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
    return float(np.dot(fv, gv)) * f.step


def moment(f: SampledFunction, p: int) -> float:
    """Left-endpoint quadrature of ``integral x**p f(x) dx``; ``p <= 12``."""
    if not 0 <= p <= _MAX_MOMENT:
        raise ValueError(f"moment order must be in 0..{_MAX_MOMENT}, got {p}")
    if p == 0:
        return math.fsum(f.values) * f.step
    x = f.grid()
    return float(np.dot(x**p, f.values)) * f.step


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
