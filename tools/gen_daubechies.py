"""Print the module holding vecwave's minimal-phase Daubechies taps.

Each filter db2..db10 comes from a spectral factorization of the Daubechies
moment polynomial: the roots are extracted in high precision (mpmath), the
factor with all roots outside the unit circle is kept, multiplied by
``(1+z)**N`` and normalized to ``sum(h) == sqrt(2)``.  The result is rounded
to float64 once, at the very end; for ``N >= 7`` a few ulp-sized nudges then
restore the decay of the high wavelet moments.

The package never imports this script, so it does not depend on mpmath.
Regenerate the table from the repository root with

    python tools/gen_daubechies.py > src/vecwave/_daubechies_taps.py

``tests/test_filters.py`` checks that the committed module equals this
script's output byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vecwave.scalar import _exact_wavelet_moments, _qmf_pair  # noqa: E402

HEADER = '''\
"""Minimal-phase Daubechies low-pass taps ``h[0..2N-1]`` for N = 2..10.

Generated by ``tools/gen_daubechies.py``; do not edit.  Each tap is the
float64 value written with ``float.hex``, so it reads back bit for bit.
"""

DAUBECHIES_H = {'''

TAPS_PER_LINE = 3


def _polish_high_moments(h: np.ndarray, N: int) -> np.ndarray:
    """Nudge float64 filter coefficients to restore high-order moment decay.

    Rounding a length-2N filter to float64 perturbs the wavelet moment sums
    by up to ``ulp * k**p``, which for N >= 9 exceeds the coefficients' own
    accuracy by orders of magnitude.  Two stages repair this within the float
    lattice: a least-squares step against exactly-computed residuals, then an
    integer search over ulp-sized nudges on the columns whose moment step is
    comparable to the remaining residual.  Coefficients move by at most a few
    ulp, so the filter axioms are untouched at the 1e-15 scale.
    """
    L = len(h)
    g_start = 2 - L

    def moments_of(hh):
        g, _ = _qmf_pair(hh)
        return _exact_wavelet_moments(g, g_start, N)

    # Sensitivity of moment p to h[j]: g[L-1-j] = (-1)**(L-1-j) * h[j].
    A = np.zeros((N, L))
    for j in range(L):
        i = L - 1 - j
        A[:, j] = [(-1.0) ** i * float(g_start + i) ** p for p in range(N)]

    best_w, best_h = np.inf, h.copy()
    cur = h.copy()
    for _ in range(8):
        m = np.array([float(x) for x in moments_of(cur)])
        w = np.max(np.abs(m))
        if w < best_w:
            best_w, best_h = w, cur.copy()
        delta, *_ = np.linalg.lstsq(A, -m, rcond=None)
        nxt = cur + delta
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    h = best_h
    if best_w <= 1e-11:
        return h

    # Columns whose single-ulp step on the top moment is below the residual
    # form a ladder fine enough to cancel it; six suffice in practice.
    base = np.array([float(x) for x in moments_of(h)])
    steps = sorted(
        (np.spacing(abs(h[j])) * abs(g_start + L - 1 - j) ** (N - 1), j)
        for j in range(L)
    )
    cols = [j for s, j in steps if 0 < s <= 1.5 * best_w][-6:]
    qmax = 5
    incr = np.zeros((len(cols), N))
    for c, j in enumerate(cols):
        i = L - 1 - j
        u = np.spacing(abs(h[j]))
        incr[c] = [(-1.0) ** i * u * float(g_start + i) ** p for p in range(N)]
    grids = np.meshgrid(*([np.arange(-qmax, qmax + 1)] * len(cols)), indexing="ij")
    Q = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    worst = np.max(np.abs(Q @ incr + base), axis=1)
    qbest = Q[int(np.argmin(worst))]
    out = h.copy()
    for q, j in zip(qbest, cols):
        out[j] += q * np.spacing(abs(h[j]))
    if max(abs(float(x)) for x in moments_of(out)) < best_w:
        return out
    return h


def factorized_taps(N: int) -> np.ndarray:
    """Taps of the minimal-phase Daubechies filter with ``2 <= N <= 10``."""
    with mp.workdps(60):
        # Moment polynomial P(y) = sum_{k<N} C(N-1+k, k) y^k, roots in y.
        coeffs = [mp.binomial(N - 1 + k, k) for k in range(N)]
        yroots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=80)
        # Map each y-root to the z-root of modulus > 1 under
        # y = (2 - z - 1/z)/4 and accumulate q(z) = prod (z - z_i).
        q = [mp.mpf(1)]
        for y in yroots:
            c = 1 - 2 * y
            part = 2 * mp.sqrt(y * (y - 1))
            z1 = c + part
            if abs(z1) < 1:
                z1 = c - part
            q = _poly_mul(q, [mp.mpf(1), -z1])
        # Multiply by (1 + z)^N.
        for _ in range(N):
            q = _poly_mul(q, [mp.mpf(1), mp.mpf(1)])
        q = [mp.re(c) for c in q]
        total = mp.fsum(q)
        scale = mp.sqrt(2) / total
        h_mp = [c * scale for c in reversed(q)]
        h = np.array([float(c) for c in h_mp])

    if N >= 7:
        h = _polish_high_moments(h, N)
    return h


def _poly_mul(a: list, b: list) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def main() -> None:
    print(HEADER)
    for N in range(2, 11):
        taps = [f'"{float(x).hex()}",' for x in factorized_taps(N)]
        print(f"    {N}: (")
        for i in range(0, len(taps), TAPS_PER_LINE):
            print("        " + " ".join(taps[i : i + TAPS_PER_LINE]))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
