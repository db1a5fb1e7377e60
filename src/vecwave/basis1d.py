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

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotOrthonormalError, ResolutionError, SizeGuardError
from .scalar import (
    MAX_TABLE_SAMPLES,
    ScalarFilter,
    _axiom_deviations,
    _dot,
    _finest_level,
    _frozen,
    scaled_atom_sample,
)
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
        return tuple(generator_component(self.m, 0, a, 0) for a in range(1, self.m + 1))

    def wavelet_components(self, t: int) -> tuple:
        return tuple(generator_component(self.m, 1, a, t) for a in range(1, self.m + 1))


def generator_component(m: int, eps: int, alpha: int, j: int) -> Component:
    """Channel alpha of the level-j m-channel generator of kind eps.

    eps = 0 is the scaling generator: phi at scale m j, then psi at scales
    m j .. m j + m - 2.  Any other eps is the wavelet generator: psi at
    scales m j + m - 1 onward.
    """
    if not 1 <= alpha <= m or j < 0:
        raise ValueError(f"need alpha in 1..{m} and level j >= 0, got alpha={alpha}, j={j}")
    if eps == 0 and alpha == 1:
        return Component("scaling", m * j)
    return Component("wavelet", m * j + alpha - 2 + (m if eps else 0))


def build_vector_basis(filt: ScalarFilter, m: int) -> VectorBasis1D:
    """Stack a scalar wavelet into an m-channel vector basis descriptor."""
    if not isinstance(filt, ScalarFilter):
        raise TypeError(f"filt must be a ScalarFilter, got {type(filt).__name__}")
    return VectorBasis1D(filt, m)


@dataclass(frozen=True, eq=False)
class MatrixFilter:
    """Matrix taps of the vector two-scale relation at dilation 2^m.

    ``taps[i]`` is the m x m coefficient of the dilate translated by
    ``start + i``; the identity reads Phi(x) = sum_k P_k Phi(2^m x - k)
    with the right side's atoms taken L2-normalized (amplitude 2^(m/2));
    ``==`` is identity.
    """

    taps: np.ndarray
    start: int
    dilation: int

    def __post_init__(self):
        t = _frozen(self.taps)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"taps must have shape (K, m, m), got {t.shape}")
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
    """One two-scale composition: new_k = sum_n c_n h_{k - 2n}, from +0.0 in ascending n.

    Tap i adds c_n h_i to new_{2n + i} for every n at once.  The taps go in
    descending order, so the terms of any one output arrive in ascending n.
    """
    out = np.zeros(2 * (len(c) - 1) + len(h))
    for i in range(len(h) - 1, -1, -1):
        out[i : i + 2 * len(c) - 1 : 2] += c * h[i]
    return out, 2 * c_start + h_start


# per filter object, one expansion per (kind, depth), dying with the filter:
# a factor's coefficients over phi_{scale + depth, n} do not depend on its
# scale, and its shift only moves their start.  Every Gram re-reads it: a
# warm run_verify of each of db10's d = 1, m = 1..3 bases looks it up 218
# times, every one a hit.
_expansion_cache: weakref.WeakKeyDictionary[ScalarFilter, dict] = weakref.WeakKeyDictionary()


def expand_factor(filt: ScalarFilter, kind: str, scale: int, shift: int, level: int) -> tuple:
    """Coefficients of the factor ``2**(scale/2) atom(2**scale x - shift)`` over
    the orthonormal ``phi_{level,n} = 2**(level/2) phi(2**level x - n)``.

    Returns ``(coeffs, start)``: ``coeffs[i]`` belongs to ``n = start + i``.
    A scaling key starts from ``[1]`` at its own scale, a wavelet key from g
    one level finer (``psi_{s,k} = sum_n g_n phi_{s+1,2k+n}``), and both then
    go through h one level per step.  The expansion is exact up to the
    rounding of its products and sums, and reads no cascade table.
    """
    if kind not in ("scaling", "wavelet"):
        raise ValueError(f"kind must be 'scaling' or 'wavelet', got {kind!r}")
    depth = level - scale
    if depth < (kind == "wavelet"):
        raise ResolutionError(f"level {level} too coarse for a {kind} factor at scale {scale}")
    # the deepest expansion whose (L - 1) * 2**depth coefficients fit, as for a cascade table
    finest = _finest_level(filt)
    if depth > finest:
        raise SizeGuardError(
            f"a depth-{depth} expansion of {filt.name} would hold about {filt.length - 1} * 2**{depth} "
            f"coefficients, more than the {MAX_TABLE_SAMPLES} allowed (depth {finest} at most)"
        )
    expansions = _expansion_cache.setdefault(filt, {})
    if (kind, depth) not in expansions:
        if kind == "scaling":
            seq, start, steps = np.ones(1), 0, depth
        else:
            seq, start, steps = filt.g, filt.g_start, depth - 1
        for _ in range(steps):
            seq, start = _compose_step(seq, start, filt.h, filt.h_start)
        seq.flags.writeable = False
        expansions[kind, depth] = (seq, start)
    seq, start = expansions[kind, depth]
    return seq, start + shift * 2 ** (level - scale)


def matrix_refinement_filter(basis: VectorBasis1D) -> MatrixFilter:
    """Taps P_k expressing each channel through the dilation-2^m relation.

    Channel r is expanded by :func:`expand_factor` over the scale-m
    translates of phi, so only the first tap column is nonzero.
    """
    m = basis.m
    rows = [expand_factor(basis.filter, c.kind, c.scale, 0, m) for c in basis.scaling_components()]
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
    absolute sum of the difference.  Only the nonzero entries of each P_k
    form products, each added to its own row's slice in tap-major order,
    so every sample of the right side has the bits of the sum of the full
    m x m products, signed zeros included.
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
    starts = {(i, c): atoms[c].start + (mf.start + i) * step for i, c in pairs}
    # Union window of Phi's rows and every term on the right side.
    lo = min([row.start for row in rows] + list(starts.values()))
    hi = max(
        [row.start + len(row.values) for row in rows]
        + [s + len(atoms[c].values) for (_, c), s in starts.items()]
    )
    rhs = np.zeros((m, hi - lo))
    # A zero coefficient would add a signed zero to a sum that starts at
    # +0.0 and never reaches -0.0, so skipping it moves no bit.
    nz = np.nonzero(mf.taps)
    for i, r, c, coef in zip(*(a.tolist() for a in nz), mf.taps[nz].tolist()):
        values = atoms[c].values
        s = starts[i, c] - lo
        rhs[r, s : s + len(values)] += coef * values
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
    axioms = _axiom_deviations(basis.filter)
    if axioms["sum"] > 1e-12 or axioms["orthonormality"] > 1e-12:
        raise NotOrthonormalError(
            f"filter {basis.filter.name} misses the orthonormal filter axioms by more than "
            f"1e-12: sum {axioms['sum']:.3e}, orthonormality {axioms['orthonormality']:.3e}"
        )
    return Multiwavelet(
        basis.filter, basis.scaling_components(), basis.wavelet_components(0)
    )


# translates of a factor key: a start moves by up to 2**26 per unit shift
# (the deepest expansion's), so starts and their differences fit an int64
_MAX_SHIFT = 2**35
# keys of one factor Gram: its n x n table and pair index arrays peak at
# about 28 n**2 bytes, 112 MiB at this bound
_MAX_GRAM_KEYS = 2**11


class FactorInnerCache:
    """Inner products of 1D scalar factors from their tap expansions.

    A key ``(kind, scale, shift)`` names the factor
    ``2**(scale/2) atom(2**scale x - shift)``.  Two factors pair as the dot of
    their :func:`expand_factor` coefficients at one common level: the
    ``phi_{L,n}`` are orthonormal, so the pairing is exact up to rounding
    (Plonka & Strela, *Adv. Comput. Math.* 8, 1998) and samples no cascade
    table.  J must still be >= 1, but the Gram does not depend on it.  The
    object holds only its filter: the expansions come from
    :func:`expand_factor`'s cache, and no dot is kept between calls.
    ``run_verify`` makes one call per object; repeated calls on one
    object, as ``star_nd_separable`` makes, dot their tags again.
    """

    def __init__(self, filt: ScalarFilter, J: int):
        if J < 1:
            raise ValueError(f"need a resolution margin J >= 1, got {J}")
        self.filt = filt

    def gram(self, keys: list) -> np.ndarray:
        """Gram matrix of the listed keys, one dot per translate offset.

        Entry (p, q), p <= q, is measured in that order and mirrored; a key
        listed twice gets two rows.  The pair is expanded to the level
        ``L = max(scale + [kind == "wavelet"])``, the coarsest both reach.
        Two pairs that differ by a common translate dot the same coefficient
        arrays at the same offsets, so one dot per ``(kind_a, scale_a,
        kind_b, scale_b, start_b - start_a)`` serves them all with the same
        bits.  The tags of all key pairs are formed by array arithmetic,
        each distinct tag is dotted once, and the dots of one overlap length
        go to ``_dot`` as one stack.  Translates must lie within
        ``+-2**35``, so that every expansion start fits an int64.
        """
        n = len(keys)
        if n > _MAX_GRAM_KEYS:
            raise SizeGuardError(f"factor Gram guard is {_MAX_GRAM_KEYS} keys, got {n}")
        if any(abs(key[2]) > _MAX_SHIFT for key in keys):
            raise SizeGuardError(f"factor translates must lie within +-2**35, got {max(abs(key[2]) for key in keys)}")
        descs = list(dict.fromkeys(key[:2] for key in keys))
        nd = len(descs)
        slot = {desc: i for i, desc in enumerate(descs)}
        desc = np.array([slot[key[:2]] for key in keys], dtype=np.int64)
        shift = np.array([key[2] for key in keys], dtype=np.int64)
        p, q = np.triu_indices(n)
        pair = desc[p] * nd + desc[q]
        # per descriptor pair that some key pair reaches, and per side: the
        # expansion at the pair's level, its start at shift 0, how far one
        # unit of shift moves that start, and its length
        used = np.zeros(nd * nd, dtype=bool)
        used[pair] = True
        start0, step, size = (np.zeros((nd * nd, 2), dtype=np.int64) for _ in range(3))
        seqs = {}
        for ab in np.flatnonzero(used).tolist():
            sides = descs[ab // nd], descs[ab % nd]
            level = max(scale + (kind == "wavelet") for kind, scale in sides)
            seqs[ab] = []
            for s, (kind, scale) in enumerate(sides):
                seq, start0[ab, s] = expand_factor(self.filt, kind, scale, 0, level)
                step[ab, s], size[ab, s] = 2 ** (level - scale), len(seq)
                seqs[ab].append(seq)
        offset = (start0[pair, 1] + shift[q] * step[pair, 1]) - (start0[pair, 0] + shift[p] * step[pair, 0])
        # only pairs whose expansions overlap need a dot; the rest stay +0.0
        hit = (offset < size[pair, 0]) & (-offset < size[pair, 1])
        p, q, pair, offset = p[hit], q[hit], pair[hit], offset[hit]
        # the tag as one int64: descriptor pair, then offset within +-reach
        reach = int(size.max(initial=0))
        codes = pair * (2 * reach + 1) + (offset + reach)
        # grouped by a dict, in order of first appearance: np.unique would
        # import numpy.ma, about 1.5 MiB more peak memory in a cold CLI run
        tags = {}
        inverse = np.array([tags.setdefault(c, len(tags)) for c in codes.tolist()], dtype=np.intp)
        values = np.empty(len(tags))
        todo = {}
        for t, code in enumerate(tags):
            ab, off = divmod(code, 2 * reach + 1)
            off -= reach
            ca, cb = seqs[ab]
            lo, hi = max(0, off), min(len(ca), off + len(cb))
            todo.setdefault(hi - lo, []).append((t, ca[lo:hi], cb[lo - off : hi - off]))
        for rows in todo.values():
            t, ra, rb = zip(*rows)
            values[list(t)] = _dot(np.array(ra), np.array(rb))
        out = np.zeros((n, n))
        out[p, q] = out[q, p] = values[inverse]
        return out


def translate_gram_deviation(mw: Multiwavelet, J: int = 8, k_range: int = 2) -> float:
    """How far the 2m generators are from translate-orthonormality.

    Every pair of generator translates with |k| <= k_range is measured
    by :meth:`FactorInnerCache.gram` from the filter taps, so the result
    does not depend on J, which must still be >= 1.  Returns the largest
    deviation from the identity pairing.
    """
    # One row per (slot, k), not per descriptor: duplicated generators must
    # pair to zero, so they may not alias each other here.
    comps = tuple(mw.scaling) + tuple(mw.wavelets)
    ks = range(-k_range, k_range + 1)
    keys = [(c.kind, c.scale, k * 2**c.scale) for c in comps for k in ks]
    gram = FactorInnerCache(mw.filter, J).gram(keys)
    return float(np.max(np.abs(gram - np.eye(len(keys))), initial=0.0))


def from_multiwavelet(mw: Multiwavelet, tol: float = 1e-10) -> VectorBasis1D:
    """Reassemble a vector basis from multiwavelet generators.

    The generators are Gram-checked under integer translation first (by
    :func:`translate_gram_deviation`, from the filter taps); a deviation
    above ``tol`` raises NotOrthonormalError.  The descriptor
    lists must form the laddered scale layout produced by
    :func:`to_multiwavelet`, which pins down the basis uniquely.
    """
    if len(mw.scaling) != len(mw.wavelets):
        raise ValueError(
            f"need equal generator counts, got {len(mw.scaling)} scaling and "
            f"{len(mw.wavelets)} wavelets"
        )
    dev = translate_gram_deviation(mw)
    if dev > tol:
        raise NotOrthonormalError(
            f"generator translates deviate from orthonormality by {dev:.3e}"
        )
    basis = VectorBasis1D(mw.filter, len(mw.scaling))
    if (tuple(mw.scaling), tuple(mw.wavelets)) != (basis.scaling_components(), basis.wavelet_components(0)):
        raise ValueError("generator scales do not form the laddered layout")
    return basis
