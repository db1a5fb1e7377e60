"""Discrete transform packing scalar pyramids into matrix coefficients.

An m-channel signal of dyadic length runs through per-channel orthogonal
scalar wavelet pyramids whose subbands are regrouped into m x m matrix
coefficients, one matrix per translate of each basis family.  One vector
level consumes m scalar levels along every axis; in two dimensions the
mixed approx/detail blocks are split m - 1 further scalar levels along
their approx axis, so that axis carries the level-t scaling components
and every (orientation, block, level) family receives coefficients.
Matrix columns are routed by the block partition.  Columns shorter than
the widest column of their family are padded with structural zeros; the
column lengths recorded in the band act as the validity mask.

Every step is a periodized orthonormal filter pair, hence exactly
orthogonal for any even length: analysis and synthesis invert each other
to rounding error and energy is conserved.  With m = 1 the scheme
degenerates bitwise to the classic scalar pyramid.  The steps are
polyphase.  Analysis extends its input periodically once along the axis
(not at all when no tap wraps, as for haar) and adds one stride-2 slice of
it per tap.  In synthesis, tap i of a filter starting at offset s adds a
contiguous slice of the periodically extended subband into the output
samples of parity (s + i) % 2, so no product with an upsampling zero is
formed.  Sums start from +0.0 and take the h taps in order, then the g
taps; the products a zero-upsampled form adds on top are +-0.0, which
change no such sum, so both steps match the textbook periodic filter bank
bit for bit, signed zeros included.
"""

from dataclasses import dataclass, replace
import re

import numpy as np

from .basis1d import VectorBasis1D
from .basisnd import BasisND, Partition, cyclic_partition
from .errors import CorruptionError, DimensionError, FileFormatError, ResolutionError
from .scalar import ScalarFilter

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
    """An m-channel sample grid of finite values: shape (m, n) or (m, n, n) with dyadic n."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim not in (2, 3):
            raise DimensionError(f"signal must have 1 or 2 space axes, got shape {values.shape}")
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


def _wrap(a: np.ndarray, lo: int, hi: int, axis: int) -> np.ndarray:
    """Periodic extension of `a` along `axis` over the index window [lo, hi)."""
    n = a.shape[axis]
    if 0 <= lo and hi <= n:
        return a[_slices(a.ndim, axis, slice(lo, hi))]
    return np.take(a, np.arange(lo, hi) % n, axis=axis)


def _axis_analyze_step(a: np.ndarray, filt: ScalarFilter, axis: int):
    n = a.shape[axis]
    if n % 2 or n < 2:
        raise ValueError(f"axis length must be even to step down, got {n}")
    lo = min(filt.h_start, filt.g_start)
    ext = _wrap(a, lo, max(filt.h_start, filt.g_start) + filt.length + n - 2, axis)
    shape = list(a.shape)
    shape[axis] = n // 2
    approx = np.zeros(shape)
    detail = np.zeros(shape)
    for acc, taps, start in ((approx, filt.h, filt.h_start), (detail, filt.g, filt.g_start)):
        for i, c in enumerate(taps):
            k = start + i - lo
            acc += c * ext[_slices(a.ndim, axis, slice(k, k + n - 1, 2))]
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

    values has shape (m, m, K1[, K2]): channel row, partition column,
    then one translate axis per space axis.  cols[r] describes column r
    as one (kind, scale, length) triple per axis; slots at or beyond a
    column's length are structural zeros (the validity mask).  level is
    the vector level t, or -1 for the base family.
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
        if d not in (1, 2):
            raise ValueError(f"band values must have 1 or 2 translate axes, got shape {values.shape}")
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
                if length != 2**scale:
                    raise ValueError(f"length {length} does not match scale {scale}")
                if length > values.shape[2 + ax]:
                    raise ValueError(f"column length {length} exceeds translate axis {values.shape[2 + ax]}")
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
    if isinstance(basis, VectorBasis1D):
        if signal_d != 1:
            raise DimensionError(f"1D basis cannot transform a {signal_d}D signal")
        filt, m, part = basis.filter, basis.m, cyclic_partition(1, basis.m)
    elif isinstance(basis, BasisND):
        if basis.d != signal_d:
            raise DimensionError(f"basis dimension {basis.d} does not match signal dimension {signal_d}")
        filt, m, part = basis.mw.filter, basis.m, basis.partition
    else:
        raise TypeError(f"basis must be VectorBasis1D or BasisND, got {type(basis).__name__}")
    if m != signal_m:
        raise DimensionError(f"basis has {m} channels but signal has {signal_m}")
    return filt, m, part


def _axis_desc(m: int, s0: int, t: int, eps_c: int, alpha_c: int) -> tuple:
    # Scalar subband backing one axis of a family column: wavelet axes
    # take the level-t shell scale alpha_c - 1, approx axes take the
    # level-t scaling component alpha_c.
    if eps_c:
        return ("detail", s0 + m * t + m - 1 + alpha_c - 1)
    if alpha_c == 1:
        return ("approx", s0 + m * t)
    return ("detail", s0 + m * t + alpha_c - 2)


def _wavelet_eps(d: int):
    out = []
    for bits in range(1, 2**d):
        out.append(tuple((bits >> (d - 1 - ax)) & 1 for ax in range(d)))
    return sorted(out)


def _pack_band(key, eps, level, block_idx, rows, pieces, m, s0, d):
    cols = []
    arrays = []
    t = max(level, 0)
    for alpha in rows:
        descs = tuple(_axis_desc(m, s0, t, e, a) for e, a in zip(eps, alpha))
        arr = pieces.pop(descs)
        cols.append(tuple((kind, scale, length) for (kind, scale), length in zip(descs, arr.shape[1:])))
        arrays.append(arr)
    kmax = tuple(max(col[ax][2] for col in cols) for ax in range(d))
    values = np.zeros((m, m) + kmax)
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
    filt, m, part = _basis_params(basis, signal.d, signal.m)
    smax = signal.n.bit_length() - 1
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    depth = m * levels + m - 1
    if depth > smax:
        raise ResolutionError(f"depth {depth} exceeds log2(n) = {smax}")
    s0 = smax - depth
    d = signal.d

    pieces = {}
    if d == 1:
        a = signal.values
        for sigma in range(smax - 1, s0 - 1, -1):
            a, det = _axis_analyze_step(a, filt, axis=1)
            pieces[(("detail", sigma),)] = det
        pieces[(("approx", s0),)] = a
        # the base packing consumes the approx plus the m - 1 coarsest details
    else:
        a = signal.values
        for t in range(levels - 1, -1, -1):
            base_scale = s0 + m * t
            ax, dxs = _axis_pyramid(a, filt, m, axis=1)
            a, dys = _axis_pyramid(ax, filt, m, axis=2)
            for j, dy in enumerate(dys):
                sig_y = base_scale + 2 * m - 2 - j
                rx, rdet = _axis_pyramid(dy, filt, m - 1, axis=1)
                pieces[(("approx", base_scale), ("detail", sig_y))] = rx
                for u, rd in enumerate(rdet):
                    pieces[(("detail", base_scale + m - 2 - u), ("detail", sig_y))] = rd
            for i, dx in enumerate(dxs):
                sig_x = base_scale + 2 * m - 2 - i
                ay, dys2 = _axis_pyramid(dx, filt, m, axis=2)
                ry, rdet = _axis_pyramid(ay, filt, m - 1, axis=2)
                pieces[(("detail", sig_x), ("approx", base_scale))] = ry
                for u, rd in enumerate(rdet):
                    pieces[(("detail", sig_x), ("detail", base_scale + m - 2 - u))] = rd
                for j, dy2 in enumerate(dys2):
                    pieces[(("detail", sig_x), ("detail", base_scale + 2 * m - 2 - j))] = dy2
        bx, bdx = _axis_pyramid(a, filt, m - 1, axis=1)
        xcomps = [(("approx", s0), bx)] + [(("detail", s0 + m - 2 - u), arr) for u, arr in enumerate(bdx)]
        for xdesc, arr in xcomps:
            by, bdy = _axis_pyramid(arr, filt, m - 1, axis=2)
            pieces[(xdesc, ("approx", s0))] = by
            for u, rd in enumerate(bdy):
                pieces[(xdesc, ("detail", s0 + m - 2 - u))] = rd

    bands = []
    base_eps = (0,) * d
    for l, rows in enumerate(part.blocks):
        bands.append(_pack_band(f"base-b{l}", base_eps, -1, l, rows, pieces, m, s0, d))
    for t in range(levels):
        for eps in _wavelet_eps(d):
            bits = "".join(str(b) for b in eps)
            for l, rows in enumerate(part.blocks):
                bands.append(_pack_band(f"w-e{bits}-t{t}-b{l}", eps, t, l, rows, pieces, m, s0, d))
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
    filt, m, part = _basis_params(basis, dec.d, dec.m)
    if filt.name != dec.filter_name:
        raise ValueError(f"decomposition was built with {dec.filter_name}, basis carries {filt.name}")
    if part.blocks != dec.partition.blocks:
        raise ValueError("basis partition does not match the decomposition")
    if n is not None and n != dec.n:
        raise DimensionError(f"requested n = {n} but decomposition holds n = {dec.n}")
    smax = dec.n.bit_length() - 1
    s0 = smax - (m * dec.levels + m - 1)
    pieces = _unpack_bands(dec)
    d = dec.d

    def grab(xdesc, ydesc=None):
        key = (xdesc,) if ydesc is None else (xdesc, ydesc)
        try:
            return pieces.pop(key)
        except KeyError:
            raise CorruptionError(f"decomposition is missing subband {key}") from None

    if d == 1:
        a = grab(("approx", s0))
        for sigma in range(s0, smax):
            a = _axis_synthesize_step(a, grab(("detail", sigma)), filt, axis=1)
    else:
        def comp_desc(t, alpha_c):
            return _axis_desc(m, s0, t, 0, alpha_c)

        by = grab(("approx", s0), ("approx", s0))
        xcomps = [_axis_ipyramid(by, [grab(("approx", s0), comp_desc(0, cc)) for cc in range(m, 1, -1)], filt, axis=2)]
        for a_x in range(2, m + 1):
            xd = comp_desc(0, a_x)
            col = _axis_ipyramid(grab(xd, ("approx", s0)), [grab(xd, comp_desc(0, cc)) for cc in range(m, 1, -1)], filt, axis=2)
            xcomps.append(col)
        a = _axis_ipyramid(xcomps[0], list(reversed(xcomps[1:])), filt, axis=1)
        for t in range(dec.levels):
            base_scale = s0 + m * t
            dys = []
            for j in range(m):
                sig_y = base_scale + 2 * m - 2 - j
                rx = grab(("approx", base_scale), ("detail", sig_y))
                rdet = [grab(comp_desc(t, m - u), ("detail", sig_y)) for u in range(m - 1)]
                dys.append(_axis_ipyramid(rx, rdet, filt, axis=1))
            ax = _axis_ipyramid(a, dys, filt, axis=2)
            dxs = []
            for i in range(m):
                sig_x = base_scale + 2 * m - 2 - i
                ry = grab(("detail", sig_x), ("approx", base_scale))
                rdet = [grab(("detail", sig_x), comp_desc(t, m - u)) for u in range(m - 1)]
                ay = _axis_ipyramid(ry, rdet, filt, axis=2)
                dys2 = [grab(("detail", sig_x), ("detail", base_scale + 2 * m - 2 - j)) for j in range(m)]
                dxs.append(_axis_ipyramid(ay, dys2, filt, axis=2))
            a = _axis_ipyramid(ax, dxs, filt, axis=1)
    if pieces:
        raise CorruptionError(f"decomposition holds unexpected subbands: {sorted(pieces)}")
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

_SIGNAL_RE = re.compile(rb"^VWAV1 d=([12]) m=([0-9]+) n=([0-9]+) dtype=f64le\n")
_DEC_RE = re.compile(
    r"^VDEC1 d=([12]) m=([0-9]+) n=([0-9]+) levels=([0-9]+) filter=(\S+) bands=([0-9]+)$"
)


def signal_to_bytes(signal: VectorSignal) -> bytes:
    header = f"VWAV1 d={signal.d} m={signal.m} n={signal.n} dtype=f64le\n"
    return b"".join([header.encode("ascii"), np.ascontiguousarray(signal.values, dtype="<f8")])


def signal_from_bytes(data: bytes) -> VectorSignal:
    match = _SIGNAL_RE.match(data)
    if not match:
        raise FileFormatError("missing or malformed VWAV1 header")
    d, m, n = (int(match.group(i)) for i in (1, 2, 3))
    if m < 1 or not _is_pow2(n):
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
    if m < 1 or not _is_pow2(n):
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
