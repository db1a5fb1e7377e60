"""Multivariate vector-valued wavelet families over a block partition.

Stacking m separable scalar atoms per vector atom requires splitting
{1..m}^d into m^(d-1) blocks of m distinct index tuples.  Any valid
partition yields star-orthonormal families; the cyclic Latin-square
partition is the deterministic default.

Star orthonormality over the catalog (``catalog_star_deviation``) is
checked without forming the (N m) x (N m) star matrix.  Entry (p, q) is
the product, in coordinate order, of the Gram entries of the two rows'
1-D factor keys.  The rows fall into blocks, one per (family, level, row),
each over every translate k, so coordinate i of a block holds one
(kind, scale) descriptor, and the row pairs of two blocks form a product
set of per-coordinate key pairs (a Kronecker structure: Van Loan, "The
ubiquitous Kronecker product", *J. Comput. Appl. Math.* 123, 2000).
Round-to-nearest is monotone and fl(|x| |y|) = |fl(x y)| (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, sections
2.1-2.2), so the largest |entry| over a product set is the product of
the per-coordinate largest |G|, with the same bits.  Distinct rows of one
block differ in some coordinate i0, so their pairs are a union of product
sets, one per i0; and the diagonal S_pp - 1 is taken row by row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product
from numbers import Integral

import numpy as np

from .basis1d import FactorInnerCache, Multiwavelet, build_vector_basis, to_multiwavelet
from .errors import FileFormatError, SizeGuardError
from .scalar import MAX_TABLE_SAMPLES, ScalarFilter, filter_by_name, scaled_atom_sample
from .star import MatrixM, VectorSampledFunction
from .tensor import MAX_ENUM_D, MAX_ENUM_M, MAX_SAMPLE_D, MAX_SWEEP_BLOCKS, MAX_SWEEP_ROWS
from .tensor import _check_catalog_size, factor_component


@dataclass(frozen=True)
class Partition:
    """m^(d-1) disjoint blocks of m distinct tuples covering {1..m}^d."""

    d: int
    m: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(tuple(a) for a in block) for block in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        # m^(d-1) disjoint blocks of m distinct rows in {1..m}^d cover it, so
        # {1..m}^d, whose m may come from a file header, is never built
        if len(blocks) != self.m ** (self.d - 1):
            raise ValueError(
                f"need {self.m ** (self.d - 1)} blocks, got {len(blocks)}"
            )
        seen = set()
        for block in blocks:
            if len(block) != self.m or len(set(block)) != self.m:
                raise ValueError(f"block {block} must hold m={self.m} distinct rows")
            for row in block:
                if len(row) != self.d or not all(isinstance(a, Integral) and 1 <= a <= self.m for a in row):
                    raise ValueError(f"row {row} must hold d={self.d} entries in 1..{self.m}")
            if seen & set(block):
                raise ValueError("blocks must be pairwise disjoint")
            seen |= set(block)


def cyclic_partition(d: int, m: int) -> Partition:
    """The deterministic partition: row r of block beta shifts beta by r-1.

    Block indexed by beta in {1..m}^(d-1) holds rows
    alpha = (r, ((beta_i + r - 2) mod m) + 1, ...) for r = 1..m, a Latin
    square in each trailing coordinate.
    """
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    blocks = []
    for beta in product(range(1, m + 1), repeat=d - 1):
        rows = tuple(
            (r,) + tuple(((b + r - 2) % m) + 1 for b in beta)
            for r in range(1, m + 1)
        )
        blocks.append(rows)
    return Partition(d, m, tuple(blocks))


def random_partition(d: int, m: int, seed: int) -> Partition:
    """A uniformly shuffled valid partition, reproducible from the seed."""
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    rng = np.random.default_rng(seed)
    tuples = sorted(product(range(1, m + 1), repeat=d))
    order = rng.permutation(len(tuples))
    shuffled = [tuples[i] for i in order]
    blocks = tuple(
        tuple(shuffled[i * m : (i + 1) * m]) for i in range(m ** (d - 1))
    )
    return Partition(d, m, blocks)


@dataclass(frozen=True)
class FamilyND:
    """One vector-atom family: a wavelet-bit pattern paired with a block."""

    name: str
    eps: tuple
    block: int
    rows: tuple


@dataclass(frozen=True)
class VectorAtomND:
    """A concrete catalog atom: family shape plus level j and translation k."""

    eps: tuple
    block: int
    j: int
    k: tuple
    rows: tuple

    def __post_init__(self):
        if len(self.k) != len(self.eps):
            raise ValueError(
                f"k has {len(self.k)} coordinates, eps has {len(self.eps)}"
            )
        if any(b not in (0, 1) for b in self.eps):
            raise ValueError(f"eps must be bits, got {self.eps}")
        if self.j < 0:
            raise ValueError(f"level must be >= 0, got {self.j}")
        if any(len(row) != len(self.eps) for row in self.rows):
            raise ValueError("every row must have one index per coordinate")

    @property
    def d(self) -> int:
        return len(self.eps)

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class BasisND:
    """Catalog of d-variate m-channel families over one scalar filter."""

    mw: Multiwavelet
    d: int
    m: int
    partition: Partition
    families: tuple

    def scaling_families(self) -> tuple:
        return self.families[0]

    def wavelet_families(self) -> tuple:
        out = []
        for e in range(1, self.d + 1):
            out.extend(self.families[e])
        return tuple(out)

    def family_by_name(self, name: str) -> FamilyND:
        for fams in self.families:
            for fam in fams:
                if fam.name == name:
                    return fam
        raise KeyError(f"no family named {name!r}")


def build_basis_nd(
    filt: ScalarFilter, d: int, m: int, partition: Partition | None = None
) -> BasisND:
    """Assemble the family catalog from a scalar filter.

    Scaling families number m^(d-1) and live at the coarsest layer only;
    wavelet families number sum_e C(d,e) * m^(d-1) per level.
    """
    _check_catalog_size(d, m)
    mw = to_multiwavelet(build_vector_basis(filt, m))
    if partition is None:
        partition = cyclic_partition(d, m)
    if partition.d != d or partition.m != m:
        raise ValueError(
            f"partition is for d={partition.d}, m={partition.m}, "
            f"need d={d}, m={m}"
        )
    families = []
    n_psi = 0
    for e in range(d + 1):
        fams = []
        for eps in product((0, 1), repeat=d):
            if sum(eps) != e:
                continue
            for l, rows in enumerate(partition.blocks):
                if e == 0:
                    name = f"Phi{l + 1}"
                else:
                    n_psi += 1
                    name = f"Psi{n_psi}"
                fams.append(FamilyND(name, eps, l, tuple(rows)))
        families.append(tuple(fams))
    return BasisND(mw, d, m, partition, tuple(families))


def make_atom(family: FamilyND, j: int, k: tuple) -> VectorAtomND:
    """Instantiate a family at level j and translation k."""
    return VectorAtomND(family.eps, family.block, j, tuple(k), family.rows)


def catalog_2x2(basis: BasisND) -> list:
    """The eight explicit bivariate two-channel families, in order.

    Only defined for d = m = 2: two scaling families then six wavelet
    families, ordered by (e, eps, block).
    """
    if basis.d != 2 or basis.m != 2:
        raise ValueError(f"catalog needs d=m=2, got d={basis.d}, m={basis.m}")
    return [fam for fams in basis.families for fam in fams]


def sample_vector_atom_nd(
    atom: VectorAtomND, basis: BasisND, J: int
) -> VectorSampledFunction:
    """Sample all m channels of one atom densely on the level-J grid."""
    if atom.d > MAX_SAMPLE_D:
        raise SizeGuardError(
            f"dense sampling is limited to d <= {MAX_SAMPLE_D}, got d={atom.d}"
        )
    mw = basis.mw
    channels = []
    for row in atom.rows:
        factors = []
        for i in range(atom.d):
            comp = factor_component(mw, atom.eps[i], row[i], atom.j)
            factors.append(
                scaled_atom_sample(mw.filter, comp.kind, comp.scale, atom.k[i], J)
            )
        channels.append(factors)
    # Union window over all channels, then embed each separable product.
    lo = [min(ch[i].start for ch in channels) for i in range(atom.d)]
    hi = [
        max(ch[i].start + len(ch[i].values) for ch in channels)
        for i in range(atom.d)
    ]
    shape = (atom.m, *[hi[i] - lo[i] for i in range(atom.d)])
    # bounded like one cascade table: each factor table passed that guard,
    # but their outer product need not
    if math.prod(shape) > MAX_TABLE_SAMPLES:
        raise SizeGuardError(
            f"a level-{J} sampling of this atom would hold {math.prod(shape)} samples, "
            f"more than the {MAX_TABLE_SAMPLES} allowed"
        )
    values = np.zeros(shape)
    for r, factors in enumerate(channels):
        prod = factors[0].values
        for f in factors[1:]:
            prod = np.multiply.outer(prod, f.values)
        sl = tuple(
            slice(f.start - lo[i], f.start - lo[i] + len(f.values))
            for i, f in enumerate(factors)
        )
        values[(r, *sl)] = prod
    return VectorSampledFunction(tuple(lo), J, values)


def _row_keys(atoms: list, mw: Multiwavelet) -> tuple:
    """The sorted distinct (kind, scale, k) factor keys of the atoms' rows.

    Returns ``(keys, idx)``: ``keys[idx[i, ia * m + r]]`` is the factor on
    coordinate i of row r of atom ia.
    """
    rows = [
        [(*factor_component(mw, e, a, atom.j), k) for e, a, k in zip(atom.eps, row, atom.k)]
        for atom in atoms
        for row in atom.rows
    ]
    keys = sorted({key for row in rows for key in row})
    pos = {key: n for n, key in enumerate(keys)}
    return keys, np.array([[pos[key] for key in row] for row in rows], dtype=np.intp).T


def _star_product(gram: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entry (p, q) is the product over coordinates i of gram[rows[i, p], cols[i, q]].

    Factors multiply in coordinate order, and an entry stops at its first
    zero, signed zero and all, like ``v = 1.0; v *= g_i`` with an early
    exit on zero.
    """
    out = gram[rows[0]][:, cols[0]]
    for r, c in zip(rows[1:], cols[1:]):
        np.multiply(out, gram[r][:, c], out=out, where=out != 0.0)
    return out


def star_nd_separable(
    atom_a: VectorAtomND,
    atom_b: VectorAtomND,
    basis: BasisND,
    cache: FactorInnerCache,
) -> MatrixM:
    """The star pairing of two atoms via per-coordinate factorization.

    Entry (r, r') is the product over coordinates of scalar inner
    products, gathered from one Gram table of the two atoms' distinct 1-D
    factors instead of a dense d-dimensional quadrature.
    """
    keys, idx = _row_keys([atom_a, atom_b], basis.mw)
    return MatrixM(_star_product(cache.gram(keys), idx[:, : atom_a.m], idx[:, atom_a.m :]))


def catalog_atoms(basis: BasisND, max_level: int, k_range: int) -> list:
    """All catalog atoms: scaling at the base layer, wavelets per level.

    Translations run over {-k_range..k_range}^d; wavelet levels run over
    0..max_level.
    """
    ks = list(product(range(-k_range, k_range + 1), repeat=basis.d))
    atoms = []
    for fam in basis.scaling_families():
        atoms.extend(make_atom(fam, 0, k) for k in ks)
    for fam in basis.wavelet_families():
        for j in range(max_level + 1):
            atoms.extend(make_atom(fam, j, k) for k in ks)
    return atoms


def catalog_rows(d: int, m: int, max_level: int, k_range: int) -> int:
    """Atom rows N * m of ``catalog_atoms`` at these sizes, by arithmetic."""
    families = m ** (d - 1) * (1 + (2**d - 1) * max(max_level + 1, 0))
    return families * max(2 * k_range + 1, 0) ** d * m


def check_sweep_size(d: int, m: int, max_level: int, k_range: int) -> None:
    """Refuse a sweep of more than MAX_SWEEP_BLOCKS blocks, whose pairs it forms, or MAX_SWEEP_ROWS atom rows."""
    n = catalog_rows(d, m, max_level, k_range)
    nb = catalog_rows(d, m, max_level, 0) if n else 0  # one translate: one row per block
    if nb > MAX_SWEEP_BLOCKS or n > MAX_SWEEP_ROWS:
        raise SizeGuardError(f"gram sweep guard is {MAX_SWEEP_BLOCKS} blocks, {MAX_SWEEP_ROWS} rows; got {nb}, {n}")


def _catalog_blocks(basis: BasisND, max_level: int) -> tuple:
    """The catalog's rows in blocks, one per (family, level, row).

    A block's rows are that row over every translate k, so coordinate i of
    all of them holds one (kind, scale) descriptor.  Returns ``(descs,
    blocks)``: ``descs`` lists the sorted distinct descriptors, and
    ``descs[blocks[b, i]]`` is the one on coordinate i of block b.
    """
    levels = [(fam, 0) for fam in basis.scaling_families()] + [
        (fam, j) for fam in basis.wavelet_families() for j in range(max_level + 1)
    ]
    rows = [
        [tuple(factor_component(basis.mw, e, a, j)) for e, a in zip(fam.eps, row)]
        for fam, j in levels
        for row in fam.rows
    ]
    descs = sorted({desc for row in rows for desc in row})
    pos = {desc: n for n, desc in enumerate(descs)}
    return descs, np.array([[pos[desc] for desc in row] for row in rows], dtype=np.intp)


def _translate_keys(descs: list, k_range: int) -> list:
    """The factor keys (kind, scale, k) of every descriptor at every translate
    |k| <= k_range, descriptor-major."""
    return [(*desc, k) for desc in descs for k in range(-k_range, k_range + 1)]


def catalog_star_deviation(
    basis: BasisND, max_level: int, k_range: int, J: int
) -> float:
    """Largest deviation of pairwise star products from delta * identity.

    Distinct atoms must pair to the zero matrix, each atom to identity.
    The Gram entries come from the filter taps (see FactorInnerCache), so
    the result does not depend on J, which must still be >= 1.  It equals,
    bit for bit, the largest |S_pq - delta_pq| over all row pairs, taken
    over product blocks as the module docstring explains: one Gram over
    the keys (descriptor, k) gives ``top[a, b]``, the largest |G| over all
    (k, k'); ``top_off[a]``, the largest over k != k'; and G at k = k'.
    Pairs of distinct blocks take ``top`` on every coordinate; distinct
    rows of one block take ``top_off`` on one coordinate i0 and ``top`` on
    the others; and |S_pp - 1| is taken at every translate of every block.
    """
    check_sweep_size(basis.d, basis.m, max_level, k_range)
    cache = FactorInnerCache(basis.mw.filter, J)
    if catalog_rows(basis.d, basis.m, max_level, k_range) == 0:
        return 0.0
    descs, blocks = _catalog_blocks(basis, max_level)
    nd, t = len(descs), 2 * k_range + 1
    gram = cache.gram(_translate_keys(descs, k_range))
    mag = np.abs(gram).reshape(nd, t, nd, t)
    top = mag.max(axis=(1, 3))
    own = mag[np.arange(nd), :, np.arange(nd), :]
    own[:, np.arange(t), np.arange(t)] = 0.0
    top_off = own.max(axis=(1, 2))
    diag = gram.diagonal().reshape(nd, t)

    # The products run in coordinate order over |G| >= 0.  The dense form
    # stopped a product at its first zero; with finite entries that only set
    # the sign of a zero, which |.| drops.
    # rows p != q in distinct blocks, at most 2^15 products at a time
    nb = len(blocks)
    step = max(1, (1 << 15) // nb)
    worst = 0.0
    for lo in range(0, nb, step):
        rows = blocks[lo : lo + step]
        prod = top[rows[:, 0, None], blocks[None, :, 0]]
        for i in range(1, basis.d):
            prod *= top[rows[:, i, None], blocks[None, :, i]]
        prod[np.arange(len(rows)), np.arange(lo, lo + len(rows))] = 0.0
        worst = max(worst, float(prod.max()))
    # rows p != q of one block: k_i0 != k'_i0 for some i0
    for i0 in range(basis.d):
        factors = np.where(np.arange(basis.d) == i0, top_off[blocks], top[blocks, blocks])
        prod = factors[:, 0]
        for i in range(1, basis.d):
            prod = prod * factors[:, i]
        worst = max(worst, float(prod.max()))
    # S_pp - 1 at every translate of every block
    prod = diag[blocks[:, 0]]
    for i in range(1, basis.d):
        prod = (prod[:, :, None] * diag[blocks[:, i]][:, None, :]).reshape(nb, -1)
    return max(worst, float(np.abs(prod - 1.0).max()))


def _rows_text(rows) -> str:
    """A block's rows as manifest text: ``1,1;2,2``, rows in order."""
    return ";".join(",".join(str(int(a)) for a in row) for row in rows)


def _parse_rows(text: str) -> tuple:
    """The rows of ``_rows_text``; ValueError if an index is not an integer."""
    return tuple(tuple(int(a) for a in row.split(",")) for row in text.split(";"))


def _departure(text: str, got) -> FileFormatError:
    """The refusal of `got` (a str, or bytes-like read as ASCII), which does
    not start with the manifest `text`: it names the first line of `text`
    that `got` does not hold in place.  Lines are compared whole, so the
    search costs one slice per line, not a step per byte.
    """
    want = text if isinstance(got, str) else text.encode("ascii")
    lines = text.split("\n")
    start = 0
    for k, line in enumerate(lines):
        end = start + len(line) + 1
        if got[start:end] != want[start:end]:
            break
        start = end
    return FileFormatError(f"manifest line {k + 1} departs from {lines[k]!r}, the line its header and partition fix")


def catalog_manifest(basis: BasisND) -> str:
    """Plain-text family listing, one line per family.

    Block indices are 0-based positions into the partition's block list;
    rows are semicolon-separated index tuples in row order.
    """
    lines = [
        f"filter={basis.mw.filter.name} d={basis.d} m={basis.m} "
        f"dilation={2**basis.m} blocks={len(basis.partition.blocks)}"
    ]
    # the families of one block share its rows, so each block's text is
    # formed once: a d = 6 manifest lists 65 536 families over 1 024 blocks
    texts = {}
    for fams in basis.families:
        for fam in fams:
            eps = "".join(str(b) for b in fam.eps)
            rows = texts.get(fam.rows) or texts.setdefault(fam.rows, _rows_text(fam.rows))
            lines.append(f"family={fam.name} eps={eps} block={fam.block} rows={rows}")
    return "\n".join(lines) + "\n"


# the header fields that fix a manifest; at most 20 digits, so int() never
# meets a huge field
_MANIFEST_HEAD = re.compile(r"filter=(\S+) d=([0-9]{1,20}) m=([0-9]{1,20})(?= |$)")
# the most of a malformed header line that its refusal quotes
_HEAD_QUOTE = 80


def load_manifest(text: str) -> BasisND:
    """Rebuild a basis from the manifest ``catalog_manifest`` writes for it.

    Only the header's filter, d and m are parsed, then the ``rows=`` of the
    m^(d-1) lines after it, the scaling families in block order, which give
    the partition.  These fix the basis, and the whole text, CRLF line ends
    read as LF, must be its manifest: any other difference is refused,
    naming the first line that departs; a lone CR is refused first.
    """
    text = text.replace("\r\n", "\n")
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise FileFormatError(f"manifest line {line} holds a lone CR: only LF or CRLF line ends are read")
    header = text.split("\n", 1)[0]
    head = _MANIFEST_HEAD.match(header)
    if not head:
        cut = f" (first {_HEAD_QUOTE} of {len(header)} characters)" if len(header) > _HEAD_QUOTE else ""
        raise FileFormatError(f"malformed manifest header: {header[:_HEAD_QUOTE]!r}{cut}")
    d, m = int(head.group(2)), int(head.group(3))
    # checked before the block count m ** (d - 1) and the basis grow with the fields
    if not (1 <= d <= MAX_ENUM_D and 1 <= m <= MAX_ENUM_M):
        raise FileFormatError(f"manifest needs 1 <= d <= {MAX_ENUM_D}, 1 <= m <= {MAX_ENUM_M}; got d={d} m={m}")
    try:
        filt = filter_by_name(head.group(1))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    lines = text.split("\n", m ** (d - 1) + 1)[1 : m ** (d - 1) + 1]
    try:
        partition = Partition(d, m, tuple(_parse_rows(line.rpartition(" rows=")[2]) for line in lines))
    except ValueError as exc:
        raise FileFormatError(f"invalid partition: {exc}") from exc
    basis = build_basis_nd(filt, d, m, partition)
    expected = catalog_manifest(basis)
    if text + "\n" == expected:
        raise FileFormatError("manifest is missing its final newline")
    if text != expected:
        raise _departure(expected, text)
    return basis
