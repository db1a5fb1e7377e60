"""Discrete transform packing scalar pyramids into matrix coefficients.

An m-channel signal on a dyadic grid with d = 1..3 space axes runs through
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
column lengths recorded in the band act as the validity mask.

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

from dataclasses import dataclass, replace
from functools import lru_cache
import re

import numpy as np

from .basis1d import VectorBasis1D, to_multiwavelet
from .basisnd import BasisND, Partition, cyclic_partition
from .errors import CorruptionError, DimensionError, FileFormatError, ResolutionError
from .scalar import ScalarFilter
from .tensor import MAX_SAMPLE_D, factor_component

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


@dataclass(frozen=True)
class VectorSignal:
    """An m-channel sample grid of finite values: shape (m, n, ..., n), d = 1..3 axes of dyadic n."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if not 2 <= values.ndim <= MAX_SAMPLE_D + 1:
            raise DimensionError(f"signal must have 1 to {MAX_SAMPLE_D} space axes, got shape {values.shape}")
        if values.shape[0] < 1:
            raise DimensionError("signal needs at least one channel")
        n = values.shape[1]
        if any(size != n for size in values.shape[1:]) or not _is_pow2(n):
            raise ValueError(f"space axes must share one power-of-two length, got {values.shape[1:]}")
        if not np.isfinite(values).all():
            raise ValueError("signal holds a NaN or infinite value")
        values.flags.writeable = False
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


@dataclass(frozen=True)
class Band:
    """One family's finite matrix coefficients at every translate.

    values has shape (m, m, K1, ..., Kd) with d = 1..3: channel row,
    partition column, then one translate axis per space axis.  cols[r]
    describes column r as one (kind, scale, length) triple per axis; slots
    at or beyond a column's length are structural zeros (the validity
    mask).  level is the vector level t, or -1 for the base family.
    """

    key: str
    eps: tuple
    level: int
    block: int
    cols: tuple
    values: np.ndarray

    def __post_init__(self):
        eps = tuple(int(b) for b in self.eps)
        cols = tuple(tuple((str(k), int(s), int(ln)) for k, s, ln in col) for col in self.cols)
        values = self.values
        # a read-only float array that owns its memory cannot change under
        # the band, so it is kept; anything else is copied
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.flags.owndata
            and not values.flags.writeable
        ):
            values = np.array(values, dtype=float)
        d = values.ndim - 2
        if not 1 <= d <= MAX_SAMPLE_D:
            raise ValueError(f"band values must have 1 to {MAX_SAMPLE_D} translate axes, got shape {values.shape}")
        m = values.shape[0]
        if values.shape[1] != m or len(cols) != m:
            raise ValueError(f"band must hold m x m matrices with m column descriptors, got shape {values.shape} and {len(cols)} columns")
        if len(eps) != d or any(b not in (0, 1) for b in eps):
            raise ValueError(f"eps must be {d} bits, got {self.eps}")
        if self.level < -1 or (self.level == -1) != (sum(eps) == 0):
            raise ValueError(f"level {self.level} inconsistent with eps {eps}")
        if self.block < 0:
            raise ValueError(f"block index must be >= 0, got {self.block}")
        for col in cols:
            if len(col) != d:
                raise ValueError(f"column descriptor needs {d} axes, got {col}")
            for ax, (kind, scale, length) in enumerate(col):
                if kind not in ("approx", "detail"):
                    raise ValueError(f"unknown subband kind {kind!r}")
                # 2**scale translates must fit the axis; checking that first
                # bounds scale before 2**scale is computed
                finest = values.shape[2 + ax].bit_length() - 1
                if not 0 <= scale <= finest:
                    raise ValueError(f"scale {scale} is outside 0..{finest}, the scales a translate axis of {values.shape[2 + ax]} holds")
                if length != 2**scale:
                    raise ValueError(f"length {length} does not match scale {scale}")
        if not np.isfinite(values).all():
            raise ValueError("band holds a NaN or infinite value")
        values.flags.writeable = False
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "cols", cols)
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
        total = 0
        for r in range(self.m):
            size = 1
            for length in self.col_lengths(r):
                size *= length
            total += size
        return self.m * total


@dataclass(frozen=True)
class VectorDecomposition:
    """Regrouped transform of one VectorSignal."""

    d: int
    m: int
    n: int
    levels: int
    filter_name: str
    partition: Partition
    bands: tuple

    def band(self, key: str) -> Band:
        for band in self.bands:
            if band.key == key:
                return band
        raise KeyError(key)

    def census(self) -> int:
        return sum(band.valid_count() for band in self.bands)

    def energy(self) -> float:
        return float(sum(np.sum(band.values**2) for band in self.bands))


# ---------------------------------------------------------------------------
# analysis / synthesis


def _basis_params(basis, signal_d: int, signal_m: int):
    """The basis's multiwavelet and block partition.

    A `VectorBasis1D` passes `to_multiwavelet`'s checks, as every
    `build_basis_nd` does.
    """
    if isinstance(basis, VectorBasis1D):
        if signal_d != 1:
            raise DimensionError(f"1D basis cannot transform a {signal_d}D signal")
        mw = to_multiwavelet(basis)
        part = cyclic_partition(1, basis.m)
    elif isinstance(basis, BasisND):
        if basis.d != signal_d:
            raise DimensionError(f"basis dimension {basis.d} does not match signal dimension {signal_d}")
        mw, part = basis.mw, basis.partition
    else:
        raise TypeError(f"basis must be VectorBasis1D or BasisND, got {type(basis).__name__}")
    if mw.m != signal_m:
        raise DimensionError(f"basis has {mw.m} channels but signal has {signal_m}")
    return mw, part


# the transform's names for the catalog's scalar atom kinds
_SUBBAND_KIND = {"scaling": "approx", "wavelet": "detail"}


def _wavelet_eps(d: int):
    out = []
    for bits in range(1, 2**d):
        out.append(tuple((bits >> (d - 1 - ax)) & 1 for ax in range(d)))
    return sorted(out)


@lru_cache(maxsize=64)
def _schedule(d: int, m: int, levels: int, s0: int):
    """The scalar steps of the pyramid as (axis, steps, src_key, out_keys) ops.

    A key names a subband by one (kind, scale) descriptor per space axis,
    the descriptors `_pack_band` asks for; out_keys is (approx, details
    finest first), as `_axis_pyramid` returns them.  Returns the ops in
    analysis order and the frozenset of leaf keys the bands hold.
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

    leaves = []
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
        root, *done = nodes
        leaves += done
    leaves += settle(root, range(d))
    return tuple(ops), frozenset(leaves)


def _pack_band(key, eps, level, block_idx, rows, pieces, mw, s0, d):
    cols = []
    arrays = []
    t = max(level, 0)
    for alpha in rows:
        # catalog scale 0 is the transform's coarsest scale s0
        descs = tuple(
            (_SUBBAND_KIND[comp.kind], s0 + comp.scale)
            for comp in (factor_component(mw, e, a, t) for e, a in zip(eps, alpha))
        )
        arr = pieces.pop(descs)
        cols.append(tuple((kind, scale, length) for (kind, scale), length in zip(descs, arr.shape[1:])))
        arrays.append(arr)
    kmax = tuple(max(col[ax][2] for col in cols) for ax in range(d))
    values = np.zeros((mw.m, mw.m) + kmax)
    for rho, arr in enumerate(arrays):
        sl = (slice(None), rho) + tuple(slice(0, length) for length in arr.shape[1:])
        values[sl] = arr
    values.flags.writeable = False
    return Band(key, eps, level, block_idx, tuple(cols), values)


def analyze_vector(signal: VectorSignal, basis, levels: int) -> VectorDecomposition:
    """Transform a signal into matrix coefficients over `levels` vector levels.

    The per-channel scalar pyramid runs m * levels + m - 1 steps deep;
    levels is capped by log2(n) accordingly.
    """
    mw, part = _basis_params(basis, signal.d, signal.m)
    filt, m = mw.filter, mw.m
    smax = signal.n.bit_length() - 1
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    depth = m * levels + m - 1
    if depth > smax:
        raise ResolutionError(f"depth {depth} exceeds log2(n) = {smax}")
    s0 = smax - depth
    d = signal.d

    ops, _ = _schedule(d, m, levels, s0)
    pieces = {(("approx", smax),) * d: signal.values}
    for axis, steps, src, out in ops:
        approx, details = _axis_pyramid(pieces.pop(src), filt, steps, axis + 1)
        pieces.update(zip(out, [approx] + details))

    bands = []
    base_eps = (0,) * d
    for l, rows in enumerate(part.blocks):
        bands.append(_pack_band(f"base-b{l}", base_eps, -1, l, rows, pieces, mw, s0, d))
    for t in range(levels):
        for eps in _wavelet_eps(d):
            bits = "".join(str(b) for b in eps)
            for l, rows in enumerate(part.blocks):
                bands.append(_pack_band(f"w-e{bits}-t{t}-b{l}", eps, t, l, rows, pieces, mw, s0, d))
    if pieces:
        raise RuntimeError(f"subbands left unconsumed by the regrouping: {sorted(pieces)}")
    return VectorDecomposition(d, m, signal.n, levels, filt.name, part, tuple(bands))


def _unpack_bands(dec: VectorDecomposition) -> dict:
    pieces = {}
    for band in dec.bands:
        for rho, col in enumerate(band.cols):
            full = band.values[:, rho]
            sl = (slice(None),) + tuple(slice(0, length) for _, _, length in col)
            arr = full[sl]
            if np.count_nonzero(full) != np.count_nonzero(arr):
                raise CorruptionError(f"nonzero coefficient in a masked slot of {band.key} column {rho}")
            descs = tuple((kind, scale) for kind, scale, _ in col)
            if descs in pieces:
                raise CorruptionError(f"subband {descs} claimed twice")
            pieces[descs] = arr
    return pieces


def synthesize_vector(dec: VectorDecomposition, basis, n: int | None = None) -> VectorSignal:
    """Invert analyze_vector.  `n` (optional) cross-checks the grid size."""
    mw, part = _basis_params(basis, dec.d, dec.m)
    filt, m = mw.filter, mw.m
    if filt.name != dec.filter_name:
        raise ValueError(f"decomposition was built with {dec.filter_name}, basis carries {filt.name}")
    if part.blocks != dec.partition.blocks:
        raise ValueError("basis partition does not match the decomposition")
    if n is not None and n != dec.n:
        raise DimensionError(f"requested n = {n} but decomposition holds n = {dec.n}")
    smax = dec.n.bit_length() - 1
    s0 = smax - (m * dec.levels + m - 1)
    # first, so a levels field read from a file cannot ask for a huge schedule
    if s0 < 0:
        raise CorruptionError(f"{dec.levels} vector levels of m = {m} exceed log2(n) = {smax}")
    ops, leaves = _schedule(dec.d, m, dec.levels, s0)
    pieces = _unpack_bands(dec)
    if leaves - pieces.keys():
        raise CorruptionError(f"decomposition is missing subbands: {sorted(leaves - pieces.keys())}")
    if pieces.keys() - leaves:
        raise CorruptionError(f"decomposition holds unexpected subbands: {sorted(pieces.keys() - leaves)}")
    for axis, _, src, out in reversed(ops):
        pieces[src] = _axis_ipyramid(pieces.pop(out[0]), [pieces.pop(key) for key in out[1:]], filt, axis + 1)
    (a,) = pieces.values()
    return VectorSignal(a)


# ---------------------------------------------------------------------------
# thresholding


def threshold_matrix(dec: VectorDecomposition, tau: float, norm: str = "frobenius") -> VectorDecomposition:
    """Zero every matrix coefficient whose norm falls below tau.

    Wavelet-family matrices are zeroed whole.  Base-family matrices
    measure and zero only their detail columns, so all-approx columns
    always survive: tau = inf keeps exactly the approximation content,
    tau = 0 changes nothing.
    """
    if norm not in ("frobenius", "norm1"):
        raise ValueError(f"norm must be 'frobenius' or 'norm1', got {norm!r}")
    tau = float(tau)
    # norms < nan is never true, so a NaN tau would quietly keep everything
    if np.isnan(tau):
        raise ValueError("threshold must not be NaN")
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
    r"^VDEC1 d=([0-9]{1,20}) m=([0-9]{1,20}) n=([0-9]{1,20}) levels=([0-9]{1,20}) filter=(\S+) bands=([0-9]{1,20})$"
)


def signal_to_bytes(signal: VectorSignal) -> bytes:
    header = f"VWAV1 d={signal.d} m={signal.m} n={signal.n} dtype=f64le\n"
    return b"".join([header.encode("ascii"), np.ascontiguousarray(signal.values, dtype="<f8")])


def signal_from_bytes(data: bytes) -> VectorSignal:
    match = _SIGNAL_RE.match(data)
    if not match:
        raise FileFormatError("missing or malformed VWAV1 header")
    d, m, n = (int(match.group(i)) for i in (1, 2, 3))
    if not 1 <= d <= MAX_SAMPLE_D or m < 1 or not _is_pow2(n):
        raise FileFormatError(f"invalid signal geometry d={d} m={m} n={n}")
    payload = memoryview(data)[match.end():]
    expected = 8 * m * n**d
    if len(payload) != expected:
        raise FileFormatError(f"payload holds {len(payload)} bytes, header implies {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape((m,) + (n,) * d)
    try:
        return VectorSignal(values)
    except ValueError as exc:
        raise FileFormatError(f"invalid signal payload: {exc}") from exc


def _partition_text(part: Partition) -> str:
    return "/".join(";".join(",".join(str(a) for a in row) for row in block) for block in part.blocks)


def _band_line(band: Band) -> str:
    bits = "".join(str(b) for b in band.eps)
    cols = ";".join("|".join(f"{kind}:{scale}:{length}" for kind, scale, length in col) for col in band.cols)
    return f"{band.key},{bits},{band.level},{band.block},{cols}"


def decomposition_manifest(dec: VectorDecomposition) -> str:
    """The regrouping map as text: header, partition, one CSV line per band."""
    lines = [
        f"VDEC1 d={dec.d} m={dec.m} n={dec.n} levels={dec.levels} filter={dec.filter_name} bands={len(dec.bands)}",
        "partition=" + _partition_text(dec.partition),
    ]
    lines.extend(_band_line(band) for band in dec.bands)
    lines.append("end")
    return "\n".join(lines) + "\n"


def decomposition_to_bytes(dec: VectorDecomposition) -> bytes:
    # one join copies each band once, straight from its buffer
    return b"".join(
        [decomposition_manifest(dec).encode("ascii")]
        + [np.ascontiguousarray(band.values, dtype="<f8") for band in dec.bands]
    )


def _parse_band_line(line: str, d: int, m: int):
    parts = line.split(",")
    if len(parts) != 5:
        raise FileFormatError(f"malformed band line: {line!r}")
    key, bits, level_s, block_s, cols_s = parts
    try:
        eps = tuple(int(b) for b in bits)
        level = int(level_s)
        block = int(block_s)
        cols = []
        for col_s in cols_s.split(";"):
            axes = []
            for axis_s in col_s.split("|"):
                kind, scale_s, length_s = axis_s.split(":")
                axes.append((kind, int(scale_s), int(length_s)))
            cols.append(tuple(axes))
    except ValueError as exc:
        raise FileFormatError(f"malformed band line: {line!r}") from exc
    if len(eps) != d or len(cols) != m:
        raise FileFormatError(f"band line does not fit d={d} m={m}: {line!r}")
    return key, eps, level, block, tuple(cols)


def decomposition_from_bytes(data: bytes) -> VectorDecomposition:
    newline = data.find(b"\n")
    if newline < 0:
        raise FileFormatError("missing VDEC1 header")
    try:
        header = data[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError("header is not ASCII") from exc
    match = _DEC_RE.match(header)
    if not match:
        raise FileFormatError("missing or malformed VDEC1 header")
    d, m, n, levels = (int(match.group(i)) for i in (1, 2, 3, 4))
    filter_name = match.group(5)
    band_count = int(match.group(6))
    if not 1 <= d <= MAX_SAMPLE_D or m < 1 or not _is_pow2(n):
        raise FileFormatError(f"invalid geometry d={d} m={m} n={n}")

    pos = newline + 1
    lines = []
    for _ in range(band_count + 2):
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise FileFormatError("truncated manifest")
        try:
            lines.append(data[pos:nl].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FileFormatError("manifest is not ASCII") from exc
        pos = nl + 1
    if not lines[0].startswith("partition="):
        raise FileFormatError("missing partition line")
    if lines[-1] != "end":
        raise FileFormatError("manifest must end with 'end'")
    try:
        blocks = tuple(
            tuple(tuple(int(a) for a in row.split(",")) for row in block.split(";"))
            for block in lines[0][len("partition="):].split("/")
        )
        partition = Partition(d, m, blocks)
    except ValueError as exc:
        raise FileFormatError(f"invalid partition: {exc}") from exc

    # slices of a memoryview copy nothing; each band is copied once, by Band
    payload = memoryview(data)[pos:]
    offset = 0
    bands = []
    seen = set()
    for line in lines[1:-1]:
        key, eps, level, block, cols = _parse_band_line(line, d, m)
        if key in seen:
            raise FileFormatError(f"duplicate band key {key}")
        seen.add(key)
        kmax = tuple(max(col[ax][2] for col in cols) for ax in range(d))
        size = m * m
        for k in kmax:
            size *= k
        chunk = payload[offset * 8:(offset + size) * 8]
        if len(chunk) != size * 8:
            raise FileFormatError("payload shorter than the manifest implies")
        offset += size
        values = np.frombuffer(chunk, dtype="<f8").reshape((m, m) + kmax)
        try:
            bands.append(Band(key, eps, level, block, cols, values))
        except ValueError as exc:
            raise FileFormatError(f"invalid band {key}: {exc}") from exc
    if len(payload) != offset * 8:
        raise FileFormatError("payload longer than the manifest implies")
    dec = VectorDecomposition(d, m, n, levels, filter_name, partition, tuple(bands))
    if dec.census() != m * n**d:
        raise CorruptionError(f"census {dec.census()} does not match m * n^d = {m * n**d}")
    return dec
