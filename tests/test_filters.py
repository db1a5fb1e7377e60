import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vecwave
from vecwave import _daubechies_taps
from vecwave.scalar import (
    ScalarFilter,
    _exact_wavelet_moments,
    daubechies_filter,
    filter_by_name,
    filter_deviations,
    haar_filter,
)

ALL_NAMES = ["haar"] + [f"db{N}" for N in range(1, 11)]

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "gen_daubechies.py"


def test_haar_values():
    f = haar_filter()
    r = 1.0 / math.sqrt(2.0)
    assert_allclose(f.h, [r, r], rtol=0, atol=0)
    assert_allclose(f.g, [r, -r], rtol=0, atol=0)
    assert f.h_start == 0
    assert f.g_start == 0
    assert f.vanishing_moments == 1


def test_db1_equals_haar():
    a = daubechies_filter(1)
    b = haar_filter()
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.g, b.g)
    assert a.name == "db1"


def test_db2_closed_form():
    """The four db2 coefficients have the closed form (1 +- sqrt3)/(4 sqrt2)."""
    s3 = math.sqrt(3.0)
    s2 = math.sqrt(2.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * s2)
    assert_allclose(daubechies_filter(2).h, expected, rtol=0, atol=5e-16)


def test_db4_reference_values():
    # Minimal-phase 8-tap coefficients, normalized to sum sqrt(2).
    expected = [
        0.230377813309,
        0.714846570553,
        0.630880767930,
        -0.027983769417,
        -0.187034811719,
        0.030841381836,
        0.032883011667,
        -0.010597401785,
    ]
    assert_allclose(daubechies_filter(4).h, expected, rtol=0, atol=1e-11)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_filter_axioms(name):
    dev = filter_deviations(filter_by_name(name))
    assert dev["sum"] <= 1e-12
    assert dev["orthonormality"] <= 1e-12
    assert dev["wavelet_sum"] <= 1e-12
    assert dev["moments"] <= 1e-10


def test_construction_computes_no_wavelet_moment(monkeypatch):
    # to_multiwavelet checks only the sum and orthonormality axioms, which
    # need no exact moment
    calls = []

    def counted(*args):
        calls.append(args)
        return _exact_wavelet_moments(*args)

    monkeypatch.setattr(vecwave.scalar, "_exact_wavelet_moments", counted)
    vecwave.build_basis_nd(daubechies_filter(10), 1, 2)
    assert calls == []
    # the verify report's moment row still reads them
    assert filter_deviations(daubechies_filter(10))["moments"] <= 1e-10
    assert len(calls) == 1


@pytest.mark.parametrize("N", range(2, 11))
def test_qmf_mirror_relation(N):
    f = daubechies_filter(N)
    L = f.length
    assert f.g_start == 2 - L
    for i in range(L):
        assert f.g[i] == (-1.0) ** i * f.h[L - 1 - i]


@pytest.mark.parametrize("N", range(1, 11))
def test_cross_orthogonality(N):
    """h and g generate orthogonal subspaces: sum_k h[k] g[k + 2n] = 0."""
    f = daubechies_filter(N)
    L = f.length
    # Align on absolute indices; g starts at 2 - L.
    full = np.zeros(6 * L)
    full[2 * L + f.g_start : 2 * L + f.g_start + L] = f.g
    for n in range(-L, L + 1):
        acc = math.fsum(
            f.h[k] * full[2 * L + k + 2 * n] for k in range(L)
        )
        assert abs(acc) <= 1e-12


def test_filter_lengths():
    for N in range(1, 11):
        assert daubechies_filter(N).length == 2 * N


def test_filter_by_name_rejects_unknown():
    for bad in ("sym4", "dbx", "db", "coif1", ""):
        with pytest.raises(ValueError):
            filter_by_name(bad)


def test_order_guard():
    with pytest.raises(ValueError):
        daubechies_filter(0)
    with pytest.raises(ValueError):
        daubechies_filter(11)


def test_filter_arrays_frozen():
    f = daubechies_filter(3)
    with pytest.raises(ValueError):
        f.h[0] = 0.0


def test_mismatched_pair_rejected():
    with pytest.raises(ValueError):
        ScalarFilter("bad", np.ones(4), 0, np.ones(2), 0, 1)


def _fraction_moments(g, g_start, count):
    """The moments as sums of Fraction products, tap by tap: the oracle."""
    out = []
    for p in range(count):
        acc = Fraction(0)
        for i, gi in enumerate(g):
            acc += Fraction(float(gi)) * Fraction(g_start + i) ** p
        out.append(acc)
    return out


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(2, 11)])
def test_exact_moments_match_fraction_products(name):
    f = filter_by_name(name)
    count = f.vanishing_moments + 2
    for g_start in (f.g_start, f.g_start + 3):
        got = _exact_wavelet_moments(f.g, g_start, count)
        assert got == _fraction_moments(f.g, g_start, count)
        assert all(type(m) is Fraction for m in got)


def test_taps_table_matches_generator():
    """The tabulated db2..db10 taps are bit for bit what the spectral
    factorization in tools/gen_daubechies.py prints."""
    pytest.importorskip("mpmath")
    # A child process keeps the generator's ~0.5 GB peak out of this one.
    out = subprocess.run(
        [sys.executable, str(GENERATOR)],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert out == Path(_daubechies_taps.__file__).read_text()


def test_cold_construction_skips_factorization():
    """A fresh process builds db2..db10 without importing mpmath and with a
    peak resident size far below the ~470 MB the factorization needed."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    # VmHWM, not ru_maxrss: Linux carries the parent's peak into a child's
    # ru_maxrss across exec, so the child would report this test process.
    code = (
        "import sys, vecwave\n"
        "for N in range(2, 11):\n"
        "    vecwave.filter_by_name(f'db{N}')\n"
        "hwm = next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))\n"
        "print('mpmath' in sys.modules, int(hwm.split()[1]) * 1024 / 1e6)\n"
    )
    src = str(Path(vecwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    loaded, peak_mb = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert loaded == "False"
    assert float(peak_mb) < 150
