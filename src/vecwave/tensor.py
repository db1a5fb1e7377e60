"""Separable multivariate atoms built from an m-multiwavelet.

The 2m univariate generators (m scaling functions, m wavelets) combine
coordinatewise into (2m)^d atom shapes per level, organized into subband
families by the number e of wavelet coordinates.  Level t advances every
coordinate by the m-fold dyadic step, so factor scales stay disjoint
across levels and the products remain orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import comb

import numpy as np

from .basis1d import Component, Multiwavelet
from .errors import ResolutionError, SizeGuardError
from .star import MatrixM
from .scalar import scaled_atom_sample

MAX_ENUM_D = 6
MAX_ENUM_M = 4
MAX_SAMPLE_D = 3
MAX_GRAM_ATOMS = 512
# atom rows N * m of the catalog star sweep; every d <= 3 catalog fits
MAX_SWEEP_ROWS = 1 << 15


@dataclass(frozen=True)
class TensorAtom:
    """One separable atom: level j, translations k, bits eps, indices alpha.

    Coordinate i contributes the alpha_i-th scaling generator when
    eps_i = 0 and the alpha_i-th wavelet generator when eps_i = 1, both
    advanced to level j.
    """

    j: int
    k: tuple
    eps: tuple
    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        object.__setattr__(self, "eps", tuple(int(v) for v in self.eps))
        object.__setattr__(self, "alpha", tuple(int(v) for v in self.alpha))
        d = len(self.eps)
        if d < 1 or len(self.k) != d or len(self.alpha) != d:
            raise ValueError(
                f"k, eps, alpha must share one length >= 1, got "
                f"{len(self.k)}, {d}, {len(self.alpha)}"
            )
        if any(b not in (0, 1) for b in self.eps):
            raise ValueError(f"eps must be bits, got {self.eps}")
        if any(a < 1 for a in self.alpha):
            raise ValueError(f"alpha entries must be >= 1, got {self.alpha}")
        if self.j < 0:
            raise ValueError(f"level must be >= 0, got {self.j}")

    @property
    def d(self) -> int:
        return len(self.eps)

    @property
    def e(self) -> int:
        return sum(self.eps)


@dataclass(frozen=True)
class SubbandFamily:
    """All (eps, alpha) shapes with exactly e wavelet coordinates."""

    e: int
    members: tuple

    def __len__(self) -> int:
        return len(self.members)


def enumerate_families(d: int, m: int) -> list:
    """List the base family (e=0) and the d wavelet families in lex order.

    Family e holds C(d,e) * m^d members, (2m)^d shapes in total.  The
    enumeration is exponential in d, hence the size guard.
    """
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    if d > MAX_ENUM_D or m > MAX_ENUM_M:
        raise SizeGuardError(
            f"enumeration guard is d <= {MAX_ENUM_D}, m <= {MAX_ENUM_M}; "
            f"got d={d}, m={m}"
        )
    alphas = list(product(range(1, m + 1), repeat=d))
    families = []
    for e in range(d + 1):
        members = tuple(
            (eps, alpha)
            for eps in product((0, 1), repeat=d)
            if sum(eps) == e
            for alpha in alphas
        )
        assert len(members) == comb(d, e) * m**d
        families.append(SubbandFamily(e, members))
    return families


@dataclass(frozen=True)
class SampledField:
    """A d-dimensional sampled function on the 2^-level grid.

    ``start`` is the grid index of the first sample along each axis;
    ``values[i1, ..., id]`` sits at x = (start + index) / 2^level.
    """

    start: tuple
    level: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != len(self.start):
            raise ValueError(
                f"start has {len(self.start)} axes but values has {v.ndim}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "start", tuple(int(s) for s in self.start))

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)


def factor_component(mw: Multiwavelet, eps_i: int, alpha_i: int, j: int) -> Component:
    """The scalar component behind coordinate factor (eps_i, alpha_i) at level j."""
    gens = mw.scaling if eps_i == 0 else mw.wavelets
    if not 1 <= alpha_i <= mw.m:
        raise ValueError(f"alpha must lie in 1..{mw.m}, got {alpha_i}")
    comp = gens[alpha_i - 1]
    return Component(comp.kind, comp.scale + mw.m * j)


def sample_tensor_atom(atom: TensorAtom, mw: Multiwavelet, J: int) -> SampledField:
    """Sample a separable atom densely as the outer product of its factors."""
    if atom.d > MAX_SAMPLE_D:
        raise SizeGuardError(
            f"dense sampling is limited to d <= {MAX_SAMPLE_D}, got d={atom.d}"
        )
    factors = []
    for i in range(atom.d):
        comp = factor_component(mw, atom.eps[i], atom.alpha[i], atom.j)
        factors.append(
            scaled_atom_sample(mw.filter, comp.kind, comp.scale, atom.k[i], J)
        )
    values = reduce(np.multiply.outer, (f.values for f in factors))
    return SampledField(tuple(f.start for f in factors), J, values)


def field_inner(a: SampledField, b: SampledField) -> float:
    """Quadrature inner product of two fields on their overlap box."""
    if a.level != b.level:
        raise ResolutionError(
            f"fields live on different grids: levels {a.level} and {b.level}"
        )
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    sl_a, sl_b = [], []
    for ax in range(a.d):
        lo = max(a.start[ax], b.start[ax])
        hi = min(a.start[ax] + a.values.shape[ax], b.start[ax] + b.values.shape[ax])
        if hi <= lo:
            return 0.0
        sl_a.append(slice(lo - a.start[ax], hi - a.start[ax]))
        sl_b.append(slice(lo - b.start[ax], hi - b.start[ax]))
    dot = float(np.sum(a.values[tuple(sl_a)] * b.values[tuple(sl_b)]))
    return dot * a.step**a.d


def gram_matrix(atoms: list, mw: Multiwavelet, J: int) -> MatrixM:
    """Pairwise quadrature inner products of a list of tensor atoms."""
    n = len(atoms)
    if n > MAX_GRAM_ATOMS:
        raise SizeGuardError(f"gram guard is {MAX_GRAM_ATOMS} atoms, got {n}")
    fields = [sample_tensor_atom(a, mw, J) for a in atoms]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            v = field_inner(fields[i], fields[j])
            out[i, j] = v
            out[j, i] = v
    return MatrixM(out)


def families_to_csv(d: int, m: int) -> str:
    """Serialize the family listing: one row per member, fixed columns.

    Columns are e, the d bits of eps, then the d entries of alpha.
    """
    lines = [f"# d={d} m={m}"]
    for fam in enumerate_families(d, m):
        for eps, alpha in fam.members:
            cells = [str(fam.e)] + [str(b) for b in eps] + [str(a) for a in alpha]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
