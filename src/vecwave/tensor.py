"""Separable atom shapes of an m-multiwavelet: families, factor map, size guards.

The 2m univariate generators (m scaling functions, m wavelets) combine
coordinatewise into (2m)^d atom shapes per level, organized into subband
families by the number e of wavelet coordinates.  Level t advances every
coordinate by the m-fold dyadic step, so factor scales stay disjoint
across levels and the products remain orthonormal.  `factor_component`
names the scalar factor behind one coordinate of a shape; it is
`basis1d.generator_component`, the one generator ladder, which the
transform's band layout reads too.
A one-row `basisnd.VectorAtomND` is a separable scalar atom, sampled
densely by `basisnd.sample_vector_atom_nd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .basis1d import Component, Multiwavelet, generator_component
from .errors import SizeGuardError

MAX_ENUM_D = 6  # the one cap on space axes: of bases, signals, decompositions and both file formats
MAX_ENUM_M = 4
MAX_SAMPLE_D = 3  # dense sampling only: basisnd.sample_vector_atom_nd, and through it plot
# blocks (family, level, row) and atom rows of the catalog star sweep; every d <= 3 catalog fits
MAX_SWEEP_BLOCKS, MAX_SWEEP_ROWS = 1 << 12, 1 << 20


def _check_catalog_size(d: int, m: int) -> None:
    """Refuse a (d, m) outside 1..MAX_ENUM_D by 1..MAX_ENUM_M, before any catalog is enumerated."""
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    if d > MAX_ENUM_D or m > MAX_ENUM_M:
        raise SizeGuardError(f"enumeration guard is d <= {MAX_ENUM_D}, m <= {MAX_ENUM_M}; got d={d}, m={m}")


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
    _check_catalog_size(d, m)
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


def factor_component(mw: Multiwavelet, eps_i: int, alpha_i: int, j: int) -> Component:
    """The scalar component behind coordinate factor (eps_i, alpha_i) at level j."""
    return generator_component(mw.m, eps_i, alpha_i, j)
