"""Discrete transform packing scalar pyramids into matrix coefficients.

An m-channel signal on a dyadic grid with d = 1..6 space axes runs through
per-channel orthogonal scalar wavelet pyramids whose subbands are regrouped
into m x m matrix coefficients, one matrix per translate of each basis
family.  One vector level consumes m scalar levels along every axis.

One schedule of scalar steps serves every d: analysis runs it forward and
synthesis runs the same steps in reverse.  Take the vector levels from
finest to coarsest, visit the axes in order and split every node m steps
along the current axis.  The approx child of the all-approx node waits for
the next level.  Once a node has a detail axis, its waiting approx axes
take m - 1 further steps, in axis order, before the next axis; approx
children it gets later take those steps at once.  After the last level the
base node takes m - 1 steps along each axis in order.  So each approx axis
of a family carries the level-t scaling components, and every
(orientation, block, level) family receives coefficients.  With d = 1 the
schedule is the plain scalar pyramid, m * levels + m - 1 steps deep.

Matrix columns are routed by the block partition.  Columns shorter than
the widest column of their family are padded with structural zeros; the
column lengths recorded in the band act as the validity mask.  Synthesis
reads only the slots past each column's length to check that they are
+-0.0, and refuses a decomposition with anything else there.

So (d, m, n, levels, partition) fix every band's key, orientation bits,
level, block, column descriptors and shape, and one table, `_layout`,
lists them in file order.  Analysis packs by it, and a
`VectorDecomposition` whose bands depart from it cannot be built, so
synthesis and the encoder take its bands as they are.  The `.vdec`
decoder parses only the header and the partition line, writes the
manifest they fix and refuses a file that does not start with exactly
that text, as `basisnd.load_manifest` does with a basis manifest.

Signals and bands own their arrays by `scalar._frozen`'s rule.  Analysis
and synthesis hand over their fresh results uncopied, and the decoders
return views of the file's bytes, so a decoded band or signal keeps the
whole file alive; any input other than `bytes` is copied.  The encoders
list a file as its header and each band's buffer, uncopied: `*_to_bytes`
join the list, and the CLI writes it without joining.

Every step is a periodized orthonormal filter pair, hence exactly
orthogonal for any even length: analysis and synthesis invert each other
to rounding error and energy is conserved.  With m = 1 the scheme
degenerates bitwise to the classic scalar pyramid.  The steps are
polyphase.  Analysis gathers the even and the odd phase of the periodic
extension of its input along the axis once, each into one contiguous array
(a copy of a stride-2 slice when no index wraps, as for haar), and tap i of
a filter starting at offset s adds a contiguous slice of the phase of
parity (s + i - lo) % 2, lo the smaller start, multiplied into one reused
product buffer.  In synthesis, tap i adds a contiguous slice of the
periodically extended subband into the output samples of parity
(s + i) % 2, so no product with an upsampling zero is formed.  Sums start
from +0.0 and take the h taps in order, then the g taps; the products a
zero-upsampled form adds on top are +-0.0, which change no such sum, so
both steps match the textbook periodic filter bank bit for bit, signed
zeros included.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
import math
import re

import numpy as np

from .basis1d import VectorBasis1D, generator_component, to_multiwavelet
from .basisnd import BasisND, Partition, _departure, _parse_rows, _rows_text, build_basis_nd, cyclic_partition
from .errors import CorruptionError, DimensionError, FileFormatError, ResolutionError
from .scalar import ScalarFilter, _frozen, filter_by_name
from .tensor import MAX_ENUM_D

__all__ = [
    "Band",
    "VectorDecomposition",
    "VectorSignal",
    "analyze_vector",
    "decomposition_from_bytes",
    "decomposition_manifest",
    "decomposition_to_bytes",
    "dwt2_channel",
    "dwt_channel",
    "idwt2_channel",
    "idwt_channel",
    "signal_from_bytes",
    "signal_to_bytes",
    "synthesize_vector",
    "threshold_matrix",
]


def _is_pow2(n) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class VectorSignal:
    """An m-channel sample grid of finite values: shape (m, n, ..., n), d = 1..MAX_ENUM_D axes of dyadic n.

    values is read-only and owned by `scalar._frozen`'s rule; ``==`` is identity.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if not 2 <= values.ndim <= MAX_ENUM_D + 1:
            raise DimensionError(f"signal must have 1 to {MAX_ENUM_D} space axes, got shape {values.shape}")
        if values.shape[0] < 1:
            raise DimensionError("signal needs at least one channel")
        n = values.shape[1]
        if any(size != n for size in values.shape[1:]) or not _is_pow2(n):
            raise ValueError(f"space axes must share one power-of-two length, got {values.shape[1:]}")
        # min and max propagate NaN, so both are finite only when every value
        # is; unlike np.isfinite they allocate nothing the size of the signal
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("signal holds a NaN or infinite value")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.ndim - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def energy(self) -> float:
        """The sum of squares; inf, with no warning, where it overflows float64."""
        with np.errstate(over="ignore"):
            return float(np.sum(self.values**2))


# ---------------------------------------------------------------------------
# periodized scalar pyramid steps


def _slices(ndim: int, axis: int, sl) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _wrap(a: np.ndarray, lo: int, hi: int, axis: int, step: int = 1) -> np.ndarray:
    """Periodic extension of `a` along `axis` at the indices lo, lo + step, ... below hi."""
    n = a.shape[axis]
    if 0 <= lo and hi <= n:
        return a[_slices(a.ndim, axis, slice(lo, hi, step))]
    return np.take(a, np.arange(lo, hi, step) % n, axis=axis)


def _axis_analyze_step(a: np.ndarray, filt: ScalarFilter, axis: int):
    n = a.shape[axis]
    if n % 2 or n < 2:
        raise ValueError(f"axis length must be even to step down, got {n}")
    half = n // 2
    lo = min(filt.h_start, filt.g_start)
    hi = max(filt.h_start, filt.g_start) + filt.length + n - 2
    # tap i of a filter starting at s adds c * a[(2j + s + i) % n] to band[j]:
    # a contiguous slice of the even or odd phase of the extension over [lo, hi)
    phases = [np.ascontiguousarray(_wrap(a, lo + p, hi, axis, 2)) for p in (0, 1)]
    shape = list(a.shape)
    shape[axis] = half
    approx = np.zeros(shape)
    detail = np.zeros(shape)
    prod = np.empty(shape)
    for acc, taps, start in ((approx, filt.h, filt.h_start), (detail, filt.g, filt.g_start)):
        for i, c in enumerate(taps):
            k = start + i - lo
            np.multiply(c, phases[k % 2][_slices(a.ndim, axis, slice(k // 2, k // 2 + half))], out=prod)
            acc += prod
    return approx, detail


def _axis_synthesize_step(approx: np.ndarray, detail: np.ndarray, filt: ScalarFilter, axis: int):
    if approx.shape != detail.shape or approx.shape[axis] < 1:
        raise ValueError(f"subbands must share one shape, not empty along the axis: {approx.shape} vs {detail.shape}")
    half = approx.shape[axis]
    shape = list(approx.shape)
    shape[axis] = 2 * half
    out = np.empty(shape)
    # tap i of a filter starting at s adds c * band[j - (s + i) // 2] to out[2j + (s + i) % 2]
    bands = []
    for band, taps, start in ((approx, filt.h, filt.h_start), (detail, filt.g, filt.g_start)):
        top = (start + len(taps) - 1) // 2
        bands.append((_wrap(band, -top, half - start // 2, axis), taps, start, top))
    # one accumulator for both phases: a second large temporary costs page faults
    acc = np.empty(approx.shape)
    for r in (0, 1):
        acc[...] = 0.0
        for ext, taps, start, top in bands:
            for i in range((start + r) % 2, len(taps), 2):
                k = top - (start + i) // 2
                acc += taps[i] * ext[_slices(ext.ndim, axis, slice(k, k + half))]
        out[_slices(out.ndim, axis, slice(r, None, 2))] = acc
    return out


def _axis_pyramid(a: np.ndarray, filt: ScalarFilter, levels: int, axis: int):
    """Run `levels` analysis steps along one axis.

    Returns (approx, details) with details ordered finest first.
    """
    details = []
    for _ in range(levels):
        a, d = _axis_analyze_step(a, filt, axis)
        details.append(d)
    return a, details


def _axis_ipyramid(approx: np.ndarray, details, filt: ScalarFilter, axis: int):
    a = approx
    for d in reversed(list(details)):
        a = _axis_synthesize_step(a, d, filt, axis)
    return a


def dwt_channel(x: np.ndarray, filt: ScalarFilter, levels: int):
    """Periodic orthogonal pyramid of a 1D signal.

    Returns (approx, details) with details ordered finest first, so
    details[0] sits at the finest scale log2(len(x)) - 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1D channel, got shape {x.shape}")
    if not _is_pow2(len(x)):
        raise ValueError(f"length must be a power of two, got {len(x)}")
    smax = len(x).bit_length() - 1
    if not 0 <= levels <= smax:
        raise ValueError(f"levels must lie in 0..{smax}, got {levels}")
    approx, details = _axis_pyramid(x, filt, levels, axis=0)
    return approx, tuple(details)


def idwt_channel(approx: np.ndarray, details, filt: ScalarFilter) -> np.ndarray:
    return _axis_ipyramid(np.asarray(approx, dtype=float), [np.asarray(d, dtype=float) for d in details], filt, axis=0)


def dwt2_channel(x: np.ndarray, filt: ScalarFilter, levels: int):
    """Square-pyramid transform of one 2D channel.

    Per level the current approximation square splits into four blocks;
    returns (approx, shells) with shells ordered finest first, each shell
    a tuple (detail_x, detail_y, detail_xy) naming the detail axes.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2D channel, got shape {x.shape}")
    if x.shape[0] != x.shape[1] or not _is_pow2(x.shape[0]):
        raise ValueError(f"need a square power-of-two grid, got {x.shape}")
    smax = x.shape[0].bit_length() - 1
    if not 0 <= levels <= smax:
        raise ValueError(f"levels must lie in 0..{smax}, got {levels}")
    shells = []
    a = x
    for _ in range(levels):
        ax, dx = _axis_analyze_step(a, filt, axis=0)
        a, d_ay = _axis_analyze_step(ax, filt, axis=1)
        d_xa, d_xy = _axis_analyze_step(dx, filt, axis=1)
        shells.append((d_xa, d_ay, d_xy))
    return a, tuple(shells)


def idwt2_channel(approx: np.ndarray, shells, filt: ScalarFilter) -> np.ndarray:
    a = np.asarray(approx, dtype=float)
    for d_xa, d_ay, d_xy in reversed(list(shells)):
        ax = _axis_synthesize_step(a, np.asarray(d_ay, dtype=float), filt, axis=1)
        dx = _axis_synthesize_step(np.asarray(d_xa, dtype=float), np.asarray(d_xy, dtype=float), filt, axis=1)
        a = _axis_synthesize_step(ax, dx, filt, axis=0)
    return a


# ---------------------------------------------------------------------------
# matrix band containers


@dataclass(frozen=True, eq=False)
class Band:
    """One family's finite matrix coefficients at every translate.

    values has shape (m, m, K1, ..., Kd): channel row, partition column,
    then one translate axis per space axis.  cols[r] describes column r as
    one (kind, scale, length) triple per axis; slots at or beyond a
    column's length are structural zeros (the validity mask).  level is the
    vector level t, or -1 for the base family.  A band checks only that its
    values are finite; the `VectorDecomposition` that holds it checks its
    header and shape against `_layout`.  values is read-only and owned by
    `scalar._frozen`'s rule; a band decoded from a file's bytes views them,
    so holding it keeps the whole file alive.  ``==`` is identity.
    """

    key: str
    eps: tuple
    level: int
    block: int
    cols: tuple
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if not np.isfinite(values).all():
            raise ValueError("band holds a NaN or infinite value")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.ndim - 2

    def col_lengths(self, r: int) -> tuple:
        return tuple(length for _, _, length in self.cols[r])

    def valid_count(self) -> int:
        return self.m * sum(math.prod(self.col_lengths(r)) for r in range(self.m))


@dataclass(frozen=True, eq=False)
class VectorDecomposition:
    """Regrouped transform of one VectorSignal; ``==`` is identity.

    Building one checks the geometry (1 <= d <= MAX_ENUM_D, m >= 1, dyadic n,
    a partition of (d, m), levels >= 0 that fit log2(n)), then that the bands
    number `_band_count` and carry `_layout`'s heads in order with values of
    `_band_shape`, and raises `CorruptionError` otherwise.  So every decomposition
    that exists can be synthesized and encodes to a `.vdec` its decoder accepts.
    """

    d: int
    m: int
    n: int
    levels: int
    filter_name: str
    partition: Partition
    bands: tuple

    def __post_init__(self):
        d, m, n, levels, part = self.d, self.m, self.n, self.levels, self.partition
        # the geometry, then the band count, so no field can ask _layout for a huge table
        if not (1 <= d <= MAX_ENUM_D and m >= 1 and _is_pow2(n) and levels >= 0):
            raise CorruptionError(f"invalid geometry d={d} m={m} n={n} levels={levels}")
        if not isinstance(part, Partition) or (part.d, part.m) != (d, m):
            raise CorruptionError(f"partition is not one of d={d} m={m}")
        # the `.vdec` header holds the name as one ASCII word
        if not (self.filter_name.isascii() and re.fullmatch(r"\S+", self.filter_name)):
            raise CorruptionError(f"filter name {self.filter_name!r} is not one word of ASCII")
        s0 = _base_scale(m, n, levels, CorruptionError)
        if (
            len(self.bands) != _band_count(d, m, levels)
            or tuple(_head(band) for band in self.bands) != _layout(d, m, levels, s0, part.blocks)
            or any(band.values.shape != _band_shape(m, band.cols) for band in self.bands)
        ):
            raise CorruptionError(f"bands depart from the layout of d={d} m={m} n={n} levels={levels} and the partition")

    def band(self, key: str) -> Band:
        for band in self.bands:
            if band.key == key:
                return band
        raise KeyError(key)

    def census(self) -> int:
        return sum(band.valid_count() for band in self.bands)

    def energy(self) -> float:
        """The sum of squares over every band; inf, with no warning, where it overflows float64."""
        with np.errstate(over="ignore"):
            return float(sum(np.sum(band.values**2) for band in self.bands))


# ---------------------------------------------------------------------------
# analysis / synthesis


def _basis_params(basis, values, what: str):
    """The basis's multiwavelet and block partition, refused unless it has
    the d and m of `values`, the `what` ("signal" or "decomposition") it
    transforms.

    A `VectorBasis1D` passes `to_multiwavelet`'s checks, as every
    `build_basis_nd` does.
    """
    if isinstance(basis, VectorBasis1D):
        basis_d, mw, part = 1, to_multiwavelet(basis), cyclic_partition(1, basis.m)
    elif isinstance(basis, BasisND):
        basis_d, mw, part = basis.d, basis.mw, basis.partition
    else:
        raise TypeError(f"basis must be VectorBasis1D or BasisND, got {type(basis).__name__}")
    if (basis_d, mw.m) != (values.d, values.m):
        raise DimensionError(f"basis is d={basis_d} m={mw.m}, {what} is d={values.d} m={values.m}")
    return mw, part


# the transform's names for the catalog's scalar atom kinds
_SUBBAND_KIND = {"scaling": "approx", "wavelet": "detail"}


@lru_cache(maxsize=64)
def _schedule(d: int, m: int, levels: int, s0: int) -> tuple:
    """The scalar steps of the pyramid as (axis, steps, src_key, out_keys) ops, in analysis order.

    A key names a subband by one (kind, scale) descriptor per space axis,
    as a `_layout` column does without its lengths; out_keys is (approx,
    details finest first), as `_axis_pyramid` returns them.  The subbands
    no op splits further are exactly the columns of `_layout`.
    """
    ops = []

    def split(node, axis, steps):
        scale = node[axis][1]
        out = [node[:axis] + (("approx", scale - steps),) + node[axis + 1:]]
        out += [node[:axis] + (("detail", scale - 1 - j),) + node[axis + 1:] for j in range(steps)]
        if steps:
            ops.append((axis, steps, node, tuple(out)))
        return out

    def settle(node, axes):
        nodes = [node]
        for axis in axes:
            nodes = [leaf for n in nodes for leaf in split(n, axis, m - 1)]
        return nodes

    root = (("approx", s0 + m * levels + m - 1),) * d
    for t in range(levels - 1, -1, -1):
        waiting = ("approx", s0 + m * t + m - 1)
        nodes = [root]
        for axis in range(d):
            children = []
            for node in nodes:
                for child in split(node, axis, m):
                    if all(kind == "approx" for kind, _ in child):
                        children.append(child)
                    else:
                        children += settle(child, [c for c, desc in enumerate(child) if desc == waiting])
            nodes = children
        # the all-approx node comes first and carries on to the next level
        root = nodes[0]
    settle(root, range(d))
    return tuple(ops)


def _layout(d: int, m: int, levels: int, s0: int, blocks: tuple) -> tuple:
    """Every band's (key, eps, level, block, cols) in file order.

    The base family's blocks come first, then each level t finest first,
    its orientations eps in lexicographic order, each over the blocks.  Row
    alpha of a block gives the column whose axis i holds the factor
    `basis1d.generator_component(m, eps_i, alpha_i, t)`, which depends on
    m alone; catalog scale 0 is the transform's coarsest scale
    s0, and a column of scale s holds 2**s translates.  It is not cached:
    analysis, the decoder and every `VectorDecomposition` constructor each
    build it once per call; synthesis reads the bands, which match it.
    """
    families = [((0,) * d, -1)]
    families += [(eps, t) for t in range(levels) for eps in product((0, 1), repeat=d) if any(eps)]
    out = []
    for eps, level in families:
        bits = "".join(str(b) for b in eps)
        desc = {}
        for e, a in product((0, 1), range(1, m + 1)):
            c = generator_component(m, e, a, max(level, 0))
            desc[e, a] = (_SUBBAND_KIND[c.kind], s0 + c.scale, 2 ** (s0 + c.scale))
        for block, rows in enumerate(blocks):
            cols = tuple(tuple(desc[ea] for ea in zip(eps, alpha)) for alpha in rows)
            key = f"base-b{block}" if level < 0 else f"w-e{bits}-t{level}-b{block}"
            out.append((key, eps, level, block, cols))
    return tuple(out)


def _band_count(d: int, m: int, levels: int) -> int:
    """The number of bands in `_layout`: m^(d-1) blocks of the base family and of 2^d - 1 orientations a level."""
    return m ** (d - 1) * (1 + (2**d - 1) * levels)


def _base_scale(m: int, n: int, levels: int, error: type) -> int:
    """The pyramid's coarsest scale s0 = log2(n) - (m * levels + m - 1); `error` if negative."""
    smax = n.bit_length() - 1
    s0 = smax - (m * levels + m - 1)
    if s0 < 0:
        raise error(f"{levels} vector levels of m = {m} exceed log2(n) = {smax}")
    return s0


def _band_shape(m: int, cols) -> tuple:
    """A band's values shape: m x m, then its widest column's length on each axis."""
    return (m, m) + tuple(max(col[ax][2] for col in cols) for ax in range(len(cols[0])))


def _head(band: Band) -> tuple:
    return band.key, band.eps, band.level, band.block, band.cols


@contextmanager
def _overflow_refused(what: str):
    """Refuse a float64 overflow in the steps run inside with a ValueError, not a numpy warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"float64 overflowed in {what}: the values are too large to transform") from exc


def analyze_vector(signal: VectorSignal, basis, levels: int) -> VectorDecomposition:
    """Transform a signal into matrix coefficients over `levels` vector levels.

    The per-channel scalar pyramid runs m * levels + m - 1 steps deep;
    levels is capped by log2(n) accordingly.  A float64 overflow raises ValueError.
    """
    mw, part = _basis_params(basis, signal, "signal")
    filt, m, d = mw.filter, mw.m, signal.d
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    s0 = _base_scale(m, signal.n, levels, ResolutionError)

    pieces = {(("approx", signal.n.bit_length() - 1),) * d: signal.values}
    with _overflow_refused("analysis"):
        for axis, steps, src, out in _schedule(d, m, levels, s0):
            approx, details = _axis_pyramid(pieces.pop(src), filt, steps, axis + 1)
            pieces.update(zip(out, [approx] + details))

    bands = []
    for key, eps, level, block, cols in _layout(d, m, levels, s0, part.blocks):
        values = np.zeros(_band_shape(m, cols))
        for rho, col in enumerate(cols):
            arr = pieces.pop(tuple((kind, scale) for kind, scale, _ in col))
            values[(slice(None), rho) + tuple(slice(0, length) for _, _, length in col)] = arr
        values.flags.writeable = False
        bands.append(Band(key, eps, level, block, cols, values))
    if pieces:
        raise RuntimeError(f"subbands left unconsumed by the regrouping: {sorted(pieces)}")
    return VectorDecomposition(d, m, signal.n, levels, filt.name, part, tuple(bands))


def _unpack_bands(bands) -> dict:
    pieces = {}
    for band in bands:
        for rho, col in enumerate(band.cols):
            full = band.values[:, rho]
            valid = tuple(slice(0, length) for _, _, length in col)
            # the masked slots are the slabs past the column's length on
            # axis i with the axes before i cut to their lengths: each
            # masked slot is read once and no valid slot at all
            for ax, (_, _, length) in enumerate(col):
                if length < full.shape[1 + ax] and full[(slice(None),) + valid[:ax] + (slice(length, None),)].any():
                    raise CorruptionError(f"nonzero coefficient in a masked slot of {band.key} column {rho}")
            pieces[tuple((kind, scale) for kind, scale, _ in col)] = full[(slice(None),) + valid]
    return pieces


def synthesize_vector(dec: VectorDecomposition, basis=None) -> VectorSignal:
    """Invert analyze_vector on a grid of dec.n.

    A given basis must carry dec's filter and partition; with none, dec's
    filter name, d, m and partition fix it, and an unknown name raises
    ValueError.  The bands match their layout, as every
    VectorDecomposition's do, so only their masked slots are checked: each
    must hold +-0.0.  A float64 overflow raises ValueError.
    """
    if basis is None:
        basis = build_basis_nd(filter_by_name(dec.filter_name), dec.d, dec.m, dec.partition)
    mw, part = _basis_params(basis, dec, "decomposition")
    filt, m = mw.filter, mw.m
    if filt.name != dec.filter_name:
        raise ValueError(f"decomposition was built with {dec.filter_name}, basis carries {filt.name}")
    if part.blocks != dec.partition.blocks:
        raise ValueError("basis partition does not match the decomposition")
    s0 = _base_scale(m, dec.n, dec.levels, CorruptionError)
    pieces = _unpack_bands(dec.bands)
    with _overflow_refused("synthesis"):
        for axis, _, src, out in reversed(_schedule(dec.d, m, dec.levels, s0)):
            pieces[src] = _axis_ipyramid(pieces.pop(out[0]), [pieces.pop(key) for key in out[1:]], filt, axis + 1)
    (a,) = pieces.values()
    # a fresh pyramid output is kept by VectorSignal; with no steps (m = 1,
    # levels = 0) `a` is a view of band storage, which it copies unless
    # that storage is a file's bytes
    a.flags.writeable = False
    return VectorSignal(a)


# ---------------------------------------------------------------------------
# thresholding


def threshold_matrix(dec: VectorDecomposition, tau: float, norm: str = "frobenius") -> VectorDecomposition:
    """Zero every matrix coefficient whose norm falls below tau.

    Wavelet-family matrices are zeroed whole.  Base-family matrices measure and zero
    only their detail columns, so all-approx columns always survive.  tau = inf keeps
    them and every matrix whose norm overflows float64 (an inf norm is never below
    tau), tau = 0 changes nothing, and a NaN or negative tau is refused.
    """
    if norm not in ("frobenius", "norm1"):
        raise ValueError(f"norm must be 'frobenius' or 'norm1', got {norm!r}")
    tau = float(tau)
    # norms < tau never holds for a NaN or negative tau, which would quietly act as 0
    if not tau >= 0.0:
        raise ValueError(f"threshold must not be NaN or negative, got {tau!r}")
    bands = []
    for band in dec.bands:
        if band.level >= 0:
            cols = slice(None)
        else:
            cols = [r for r, col in enumerate(band.cols) if any(kind == "detail" for kind, _, _ in col)]
            if not cols:
                bands.append(band)
                continue
        sub = band.values[:, cols]
        # a norm that overflows is inf, never below tau: that matrix is kept
        with np.errstate(over="ignore"):
            if norm == "frobenius":
                norms = np.sqrt(np.sum(sub**2, axis=(0, 1)))
            else:
                norms = np.max(np.sum(np.abs(sub), axis=0), axis=0)
        # the product, not a mask, so a zeroed negative stays -0.0
        kept = sub * np.where(norms < tau, 0.0, 1.0)
        if band.level >= 0:
            values = kept
        else:
            values = np.array(band.values)
            values[:, cols] = kept
        values.flags.writeable = False
        bands.append(replace(band, values=values))
    return replace(dec, bands=tuple(bands))


# ---------------------------------------------------------------------------
# serialization

# at most 20 digits a field: int() refuses strings of more than 4300
_SIGNAL_RE = re.compile(rb"^VWAV1 d=([0-9]{1,20}) m=([0-9]{1,20}) n=([0-9]{1,20}) dtype=f64le\n")
_DEC_RE = re.compile(
    r"^VDEC1 d=([0-9]{1,20}) m=([0-9]{1,20}) n=([0-9]{1,20}) levels=([0-9]{1,20}) filter=(\S+) bands=[0-9]{1,20}$"
)
# a .vdec's header and partition line; `re` reads any bytes-like input
_LINES_RE = re.compile(rb"([^\n]*)\n([^\n]*)\n")


def _signal_chunks(signal: VectorSignal) -> list:
    """A `.vwav` as [header, payload buffer]; joined, they are its bytes."""
    header = f"VWAV1 d={signal.d} m={signal.m} n={signal.n} dtype=f64le\n"
    return [header.encode("ascii"), np.ascontiguousarray(signal.values, dtype="<f8")]


def signal_to_bytes(signal: VectorSignal) -> bytes:
    return b"".join(_signal_chunks(signal))


def signal_from_bytes(data: bytes) -> VectorSignal:
    match = _SIGNAL_RE.match(data)
    if not match:
        raise FileFormatError("missing or malformed VWAV1 header")
    d, m, n = (int(match.group(i)) for i in (1, 2, 3))
    if not 1 <= d <= MAX_ENUM_D or m < 1 or not _is_pow2(n):
        raise FileFormatError(f"invalid signal geometry d={d} m={m} n={n}")
    expected = 8 * m * n**d
    if len(data) - match.end() != expected:
        raise FileFormatError(f"payload holds {len(data) - match.end()} bytes, header implies {expected}")
    # a view of `data` itself, which VectorSignal keeps when it is `bytes`
    values = np.frombuffer(data, dtype="<f8", offset=match.end()).reshape((m,) + (n,) * d)
    try:
        return VectorSignal(values)
    except ValueError as exc:
        raise FileFormatError(f"invalid signal payload: {exc}") from exc


def _manifest(d, m, n, levels, filter_name, blocks, heads) -> str:
    """The regrouping map as text: header, partition, one CSV line per band head, `end`."""
    # int(): a field equal to its layout's may be a bool or a float, whose str the decoder refuses
    lines = [
        f"VDEC1 d={int(d)} m={int(m)} n={int(n)} levels={int(levels)} filter={filter_name} bands={len(heads)}",
        "partition=" + "/".join(_rows_text(block) for block in blocks),
    ]
    for key, eps, level, block, cols in heads:
        bits = "".join(str(int(b)) for b in eps)
        text = ";".join("|".join(f"{kind}:{int(scale)}:{int(length)}" for kind, scale, length in col) for col in cols)
        lines.append(f"{key},{bits},{int(level)},{int(block)},{text}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def decomposition_manifest(dec: VectorDecomposition) -> str:
    """The regrouping map as text: header, partition, one CSV line per band."""
    return _manifest(
        dec.d, dec.m, dec.n, dec.levels, dec.filter_name, dec.partition.blocks, [_head(band) for band in dec.bands]
    )


def _decomposition_chunks(dec: VectorDecomposition) -> list:
    """A `.vdec` as [manifest, band buffers...]; joined, they are its bytes."""
    return [decomposition_manifest(dec).encode("ascii")] + [
        np.ascontiguousarray(band.values, dtype="<f8") for band in dec.bands
    ]


def decomposition_to_bytes(dec: VectorDecomposition) -> bytes:
    return b"".join(_decomposition_chunks(dec))


def decomposition_from_bytes(data: bytes) -> VectorDecomposition:
    """Read a `.vdec`: its header and partition fix the rest of the manifest.

    Only the header and the partition line are parsed.  The file must then
    start with exactly the manifest `decomposition_manifest` writes for the
    `_layout` they fix, so any other edit of the manifest is refused, and
    the payload must hold exactly the bands of that layout.  `data` may be
    any bytes-like object; the bands view it when it is `bytes`, and copy
    any other buffer.
    """
    lines = _LINES_RE.match(data)
    if not lines:
        raise FileFormatError("missing VDEC1 header or partition line")
    try:
        header, part_line = (line.decode("ascii") for line in lines.groups())
    except UnicodeDecodeError as exc:
        raise FileFormatError("manifest is not ASCII") from exc
    match = _DEC_RE.match(header)
    if not match:
        raise FileFormatError("missing or malformed VDEC1 header")
    d, m, n, levels = (int(match.group(i)) for i in (1, 2, 3, 4))
    filter_name = match.group(5)
    if not 1 <= d <= MAX_ENUM_D or m < 1 or not _is_pow2(n):
        raise FileFormatError(f"invalid geometry d={d} m={m} n={n}")
    if not part_line.startswith("partition="):
        raise FileFormatError("missing partition line")
    try:
        blocks = tuple(_parse_rows(block) for block in part_line[len("partition="):].split("/"))
        partition = Partition(d, m, blocks)
    except ValueError as exc:
        raise FileFormatError(f"invalid partition: {exc}") from exc
    s0 = _base_scale(m, n, levels, FileFormatError)
    # each band holds at least m * m values: a file too short for them all is refused before `_layout`
    count = _band_count(d, m, levels)
    if 8 * m * m * count > len(data):
        raise FileFormatError(f"file holds {len(data)} bytes, too few for the {count} bands its header implies")
    layout = _layout(d, m, levels, s0, partition.blocks)
    text = _manifest(d, m, n, levels, filter_name, partition.blocks, layout)
    head = text.encode("ascii")
    if data[: len(head)] != head:
        raise _departure(text, data)
    shapes = [_band_shape(m, cols) for *_, cols in layout]
    expected = len(head) + 8 * sum(math.prod(shape) for shape in shapes)
    if len(data) != expected:
        raise FileFormatError(f"file holds {len(data)} bytes, its manifest implies {expected}")
    # frombuffer copies nothing, and Band keeps a view of `bytes` as it is
    offset = len(head)
    bands = []
    for (key, eps, level, block, cols), shape in zip(layout, shapes):
        values = np.frombuffer(data, dtype="<f8", count=math.prod(shape), offset=offset).reshape(shape)
        offset += values.nbytes
        try:
            bands.append(Band(key, eps, level, block, cols, values))
        except ValueError as exc:
            raise FileFormatError(f"invalid band {key}: {exc}") from exc
    return VectorDecomposition(d, m, n, levels, filter_name, partition, tuple(bands))
