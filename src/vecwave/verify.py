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
# by d, the reconstruction signal's side n: up to 2 wavelet levels.  Where n
# gives none, it is doubled once if that gives one and m * n^d stays within
# the d = 3, m = 3 signal's 3 * 64^3 samples, the largest that runs a level:
# (2, 4) runs n = 128.  (3, 4) and (4, 3) stay base-only, and their
# perfect-reconstruction and energy-conservation rows test the base packing;
# one level at (4, 3) needs n = 32: 0.5 s (haar) to 2.2 s (db10), 330-375 MB,
# on one Xeon core
_SIGNAL_N = {1: 256, 2: 64, 3: 64, 4: 16, 5: 8, 6: 8}


def _levels(n: int, m: int) -> int:
    return max(0, min(2, (n.bit_length() - m) // m))


def _signal_grid(d: int, m: int) -> tuple:
    """The reconstruction signal's side n and its wavelet levels."""
    n = _SIGNAL_N[d]
    if not _levels(n, m) and _levels(2 * n, m) and m * (2 * n) ** d <= 3 * _SIGNAL_N[3] ** 3:
        n *= 2
    return n, _levels(n, m)


def _test_signal(shape: tuple) -> np.ndarray:
    """The fixed reconstruction signal: sample i (1-based, C order) is output
    i of SplitMix64 seeded with 0, the finaliser of i * 0x9E3779B97F4A7C15
    (Steele, Lea & Flood, OOPSLA 2014), whose top 53 bits map exactly to
    [-1, 1).  Integer arithmetic only, so every machine gets the same bits."""
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    top = (z >> np.uint64(11)).astype(np.int64) - 2**52
    return (top * 2.0**-52).reshape(shape)


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
    n, levels = _signal_grid(d, m)
    sig = VectorSignal(_test_signal((m,) + (n,) * d))
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
