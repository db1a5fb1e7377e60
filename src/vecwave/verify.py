"""The construction's invariant checks: one table of rows, each with its
measured value and its gate under every profile.  The filter and Gram rows
are tap sums and the refinement and moment rows read level-J tables; every
built-in filter passes ``exact`` at J = 10.  ``sampled`` keeps the looser
gates from when the Gram rows were dyadic quadratures.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis1d import (
    build_vector_basis,
    matrix_refinement_filter,
    refine_residual,
    translate_gram_deviation,
)
from .basisnd import BasisND, catalog_star_deviation, check_sweep_size
from .scalar import _moments, filter_deviations, scaled_atom_sample
from .tensor import enumerate_families
from .transform import VectorSignal, analyze_vector, synthesize_vector

__all__ = ["PROFILES", "VerifyReport", "run_verify"]

# the profiles, in the order of each check's gates
PROFILES = ("exact", "sampled")

# the catalog of the gram-nd row: wavelet levels <= 1, translates |k| <= 1
_CATALOG_LEVEL, _CATALOG_K = 1, 1
# by d, the reconstruction signal's side n: up to 2 wavelet levels, but none
# at (d, m) = (2, 4), (3, 4) and (4, 3), where the perfect-reconstruction and
# energy-conservation rows test the base packing only; one level at (4, 3)
# needs n = 32: 0.5 s (haar) to 2.2 s (db10), 330-375 MB, on one Xeon core
_SIGNAL_N = {1: 256, 2: 64, 3: 64, 4: 16, 5: 8, 6: 8}


def _signal_levels(d: int, m: int) -> int:
    return max(0, min(2, (_SIGNAL_N[d].bit_length() - m) // m))


@dataclass(frozen=True)
class VerifyReport:
    """Check rows (name, measured, tolerance), sorted by name."""

    filter_name: str
    d: int
    m: int
    profile: str
    j: int
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(measured <= tol for _, measured, tol in self.rows)

    def to_csv(self) -> str:
        lines = ["check,measured,tolerance,status"]
        for name, measured, tol in self.rows:
            status = "pass" if measured <= tol else "fail"
            lines.append(f"{name},{format(measured, '.17g')},{format(tol, '.17g')},{status}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"verify filter={self.filter_name} d={self.d} m={self.m} "
            f"profile={self.profile} J={self.j}"
        ]
        for name, measured, tol in self.rows:
            status = "pass" if measured <= tol else "FAIL"
            lines.append(
                f"{status:4} {name:24} measured={format(measured, '.17g')} "
                f"tolerance={format(tol, '.17g')}"
            )
        good = sum(1 for _, measured, tol in self.rows if measured <= tol)
        verdict = "PASS" if good == len(self.rows) else "FAIL"
        lines.append(f"{verdict} {good}/{len(self.rows)} checks")
        return "\n".join(lines) + "\n"


def run_verify(basis: BasisND, j: int, profile: str) -> VerifyReport:
    # refused before any Gram sweep: a catalog too large to sweep
    check_sweep_size(basis.d, basis.m, _CATALOG_LEVEL, _CATALOG_K)
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {', '.join(PROFILES)}, got {profile!r}")
    filt = basis.mw.filter
    d, m = basis.d, basis.m
    dev = filter_deviations(filt)
    gram_1d = translate_gram_deviation(basis.mw, J=j, k_range=2)
    gram_nd = catalog_star_deviation(basis, _CATALOG_LEVEL, _CATALOG_K, J=j)
    basis1 = build_vector_basis(filt, m)
    refine = refine_residual(basis1, matrix_refinement_filter(basis1), j)
    wav = scaled_atom_sample(filt, "wavelet", 0, 0, j)
    worst = max(abs(v) for v in _moments(wav, filt.vanishing_moments))
    mismatches = 0
    for e in range(d + 1):
        if len(basis.families[e]) != math.comb(d, e) * m ** (d - 1):
            mismatches += 1
    if sum(len(fam.members) for fam in enumerate_families(d, m)) != (2 * m) ** d:
        mismatches += 1
    n, levels = _SIGNAL_N[d], _signal_levels(d, m)
    rng = np.random.default_rng(0)
    sig = VectorSignal(rng.standard_normal((m,) + (n,) * d))
    dec = analyze_vector(sig, basis, levels)
    rec = synthesize_vector(dec, basis)
    pr = float(np.max(np.abs(rec.values - sig.values)) / np.max(np.abs(sig.values)))
    energy = abs(dec.energy() - sig.energy()) / sig.energy()
    checks = (
        # name, measured, gate under each of PROFILES
        ("filter-sum", dev["sum"], 1e-12, 1e-12),
        ("filter-orthonormality", dev["orthonormality"], 1e-12, 1e-12),
        ("filter-wavelet-sum", dev["wavelet_sum"], 1e-12, 1e-12),
        ("filter-moments", dev["moments"], 1e-10, 1e-10),
        ("gram-1d", gram_1d, 1e-10, 1e-3),
        ("gram-nd", gram_nd, 1e-10, 1e-3),
        ("refinement-residual", refine, 1e-12, 1e-8),
        ("vanishing-moments", worst, 1e-12, 1e-6),
        ("family-counts", float(mismatches), 0.0, 0.0),
        ("perfect-reconstruction", pr, 1e-10, 1e-10),
        ("energy-conservation", energy, 1e-10, 1e-10),
    )
    col = PROFILES.index(profile)
    rows = sorted((name, measured, gates[col]) for name, measured, *gates in checks)
    return VerifyReport(filt.name, d, m, profile, j, tuple(rows))
