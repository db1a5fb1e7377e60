import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecwave import scalar
from vecwave.errors import FileFormatError, ResolutionError, SizeGuardError
from vecwave.scalar import (
    ScalarFilter,
    daubechies_filter,
    filter_by_name,
    haar_filter,
    moment,
    quad_inner,
    refine_sample,
    sampled_from_csv,
    sampled_to_csv,
    scaled_atom_sample,
    support_start,
)


def test_haar_scaling_is_unit_indicator():
    p = refine_sample(haar_filter(), "scaling", 3)
    assert p.start == 0
    assert p.level == 3
    assert np.array_equal(p.values, np.ones(8))


def test_haar_wavelet_square_wave():
    w = refine_sample(haar_filter(), "wavelet", 3)
    assert w.start == 0
    assert np.array_equal(w.values, np.r_[np.ones(4), -np.ones(4)])


def test_db2_integer_values_closed_form():
    """Interior scaling-function values at the integers solve the two-scale
    eigenproblem in closed form: phi(1) = (1+sqrt3)/2, phi(2) = (1-sqrt3)/2."""
    p = refine_sample(daubechies_filter(2), "scaling", 0)
    s3 = math.sqrt(3.0)
    assert_allclose(p.values[1], (1 + s3) / 2, rtol=0, atol=1e-14)
    assert_allclose(p.values[2], (1 - s3) / 2, rtol=0, atol=1e-14)
    assert p.values[0] == 0.0


@pytest.mark.parametrize("name", ["db2", "db3", "db4", "db5", "db6"])
def test_partition_of_unity(name):
    # Integer translates of phi sum to one, so the left-endpoint sum over
    # the support picks up every grid cell exactly once.
    p = refine_sample(filter_by_name(name), "scaling", 8)
    assert abs(moment(p, 0) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ["haar", "db2", "db5"])
def test_refinement_is_nested(name):
    f = filter_by_name(name)
    for which in ("scaling", "wavelet"):
        fine = refine_sample(f, which, 6)
        coarse = refine_sample(f, which, 5)
        assert np.array_equal(fine.values[0::2], coarse.values)


def test_two_scale_relation_on_grid():
    f = daubechies_filter(3)
    coarse = refine_sample(f, "scaling", 5)
    fine = refine_sample(f, "scaling", 6)
    n = len(coarse.values)
    recon = np.zeros(n)
    # phi(x) = sqrt2 sum_k h[k] phi(2x - k) at x = p / 2**5; the argument
    # sits at index 4p - k 2**6 of the level-6 table.
    for k, hk in enumerate(f.h):
        src = 4 * np.arange(n) - k * 2**6
        ok = (src >= 0) & (src < len(fine.values))
        recon[ok] += math.sqrt(2.0) * hk * fine.values[src[ok]]
    assert_allclose(recon, coarse.values, rtol=0, atol=1e-12)


def test_quadrature_norm_converges():
    errs = {}
    for name, final in (("db2", 1e-5), ("db3", 1e-8)):
        f = filter_by_name(name)
        seq = []
        for J in (6, 8, 10):
            p = refine_sample(f, "scaling", J)
            seq.append(abs(quad_inner(p, p) - 1.0))
        assert seq[0] > seq[1] > seq[2]
        assert seq[2] <= final
        errs[name] = seq
    # finer filters converge faster
    assert errs["db3"][2] < errs["db2"][2]


def test_scaling_wavelet_quadrature_orthogonal():
    for name, tol in (("db2", 1e-5), ("db3", 1e-8)):
        f = filter_by_name(name)
        p = refine_sample(f, "scaling", 10)
        w = refine_sample(f, "wavelet", 10)
        assert abs(quad_inner(p, w)) <= tol
        assert abs(quad_inner(w, w) - 1.0) <= 1e-4


def test_wavelet_moments_vanish_under_quadrature():
    for name in ("db2", "db3"):
        w = refine_sample(filter_by_name(name), "wavelet", 10)
        assert abs(moment(w, 0)) <= 1e-12
        assert abs(moment(w, 1)) <= 1e-12


def test_scaled_atom_translation_and_norm():
    rng = np.random.default_rng(7)
    for f in (haar_filter(), daubechies_filter(2)):
        for _ in range(20):
            scale = int(rng.integers(0, 5))
            k = int(rng.integers(-10, 11))
            J = scale + int(rng.integers(1, 4))
            a = scaled_atom_sample(f, "wavelet", scale, k, J)
            b = scaled_atom_sample(f, "wavelet", scale, 0, J)
            assert np.array_equal(a.values, b.values)
            assert a.start - b.start == k * 2 ** (J - scale)
            assert a.level == J


def test_haar_scaled_atom_is_normalized():
    a = scaled_atom_sample(haar_filter(), "wavelet", 2, 3, 6)
    assert quad_inner(a, a) == 1.0
    assert a.start == (support_start(haar_filter(), "wavelet") + 3) * 2**4


def test_scaled_atom_amplitude():
    f = haar_filter()
    a = scaled_atom_sample(f, "scaling", 3, 0, 5)
    assert_allclose(np.max(a.values), 2.0 ** 1.5, rtol=0, atol=0)


def test_resolution_guards():
    f = daubechies_filter(2)
    with pytest.raises(ResolutionError):
        scaled_atom_sample(f, "scaling", 5, 0, 4)
    with pytest.raises(ResolutionError):
        refine_sample(f, "scaling", -1)
    a = refine_sample(f, "scaling", 4)
    b = refine_sample(f, "scaling", 5)
    with pytest.raises(ResolutionError):
        quad_inner(a, b)


def test_kind_vocabulary():
    f = haar_filter()
    with pytest.raises(ValueError):
        refine_sample(f, "phi", 3)
    with pytest.raises(ValueError):
        scaled_atom_sample(f, "psi", 0, 0, 3)
    with pytest.raises(ValueError):
        support_start(f, "mother")


def test_moment_order_guard():
    p = refine_sample(haar_filter(), "scaling", 3)
    with pytest.raises(ValueError):
        moment(p, 13)
    with pytest.raises(ValueError):
        moment(p, -1)


def test_csv_roundtrip_bitwise():
    w = refine_sample(daubechies_filter(2), "wavelet", 9)
    text = sampled_to_csv(w)
    r = sampled_from_csv(text)
    assert r.start == w.start
    assert r.level == w.level
    assert np.array_equal(r.values, w.values)
    assert text.splitlines()[0] == f"# start={w.start} step=2^-9 len={len(w.values)}"


def test_csv_rejects_garbage():
    with pytest.raises(FileFormatError):
        sampled_from_csv("1.0\n2.0\n")
    with pytest.raises(FileFormatError):
        sampled_from_csv("# start=0 step=linear len=2\n1.0\n2.0\n")
    with pytest.raises(FileFormatError):
        sampled_from_csv("# start=0 step=2^-3 len=5\n1.0\n2.0\n")


def test_grid_positions():
    w = refine_sample(haar_filter(), "wavelet", 2)
    assert_allclose(w.grid(), [0.0, 0.25, 0.5, 0.75], rtol=0, atol=0)
    assert w.step == 0.25


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "db7", "db10"])
def test_tables_independent_of_request_order(name, monkeypatch):
    """Tables restricted from finer cached ones or refined from coarser ones
    equal, byte for byte, a build from scratch with an empty cache."""
    filt = filter_by_name(name)
    cache = {}
    monkeypatch.setattr(scalar, "_table_cache", cache)
    levels = [0, 1, 2, 3, 5, 7, 9, 10, 11]
    requests = [(which, J) for J in levels for which in ("scaling", "wavelet")]
    fresh = {}
    for which, J in requests:
        cache.clear()
        fresh[which, J] = refine_sample(filt, which, J).values.tobytes()
    # ascending resumes refinement, descending restricts, shuffled mixes both
    shuffled = list(requests)
    np.random.default_rng(0).shuffle(shuffled)
    for order in (requests, requests[::-1], shuffled):
        cache.clear()
        for which, J in order:
            values = refine_sample(filt, which, J).values
            # strided views could take another summation path in np.dot
            assert values.flags.c_contiguous
            assert values.tobytes() == fresh[which, J], (which, J)


def test_caches_keyed_by_taps_not_name(monkeypatch):
    """A filter that reuses a builtin name with other taps gets its own
    samples, not the builtin's cached ones."""
    monkeypatch.setattr(scalar, "_table_cache", {})
    monkeypatch.setattr(scalar, "_scaled_cache", {})
    db2, db3 = filter_by_name("db2"), filter_by_name("db3")
    assert len(refine_sample(db2, "scaling", 3).values) == 24
    scaled_atom_sample(db2, "wavelet", 1, 0, 3)
    impostor = ScalarFilter("db2", db3.h, 0, db3.g, -4, 3)
    table = refine_sample(impostor, "scaling", 3).values
    assert len(table) == 40
    assert table.tobytes() == refine_sample(db3, "scaling", 3).values.tobytes()
    scaled = scaled_atom_sample(impostor, "wavelet", 1, 0, 3).values
    assert scaled.tobytes() == scaled_atom_sample(db3, "wavelet", 1, 0, 3).values.tobytes()
    # the builtin's entries are untouched by the impostor
    assert len(refine_sample(db2, "scaling", 3).values) == 24


def test_table_size_guard_fires_before_allocating():
    # each request below would need a table of 2**27 to 2**64 samples
    with pytest.raises(SizeGuardError):
        refine_sample(filter_by_name("db10"), "wavelet", 60)
    with pytest.raises(SizeGuardError):
        refine_sample(haar_filter(), "scaling", 27)
    with pytest.raises(SizeGuardError):
        scaled_atom_sample(daubechies_filter(2), "scaling", 3, 0, 30)
    assert (filter_by_name("db10").length - 1) * 2**17 <= scalar.MAX_TABLE_SAMPLES


def test_huge_levels_are_refused_before_any_power_of_two():
    # 2**J for these J would be an integer of 10**11 digits or more
    with pytest.raises(SizeGuardError, match="level 24 at most"):
        refine_sample(daubechies_filter(2), "scaling", 10**12)
    with pytest.raises(SizeGuardError, match="past 1022"):
        scaled_atom_sample(daubechies_filter(2), "scaling", 0, 0, 10**12)
    # a fine atom on a grid only a few levels finer: its amplitude
    # 2**(scale/2) would overflow a float
    with pytest.raises(SizeGuardError, match="past 1022"):
        scaled_atom_sample(haar_filter(), "wavelet", 2000, 0, 2004)


def _mask_phi(filt, J, j0=0, vals=None):
    """Reference refinement: the index-mask-and-gather form that the slice
    kernel replaced, resuming from level ``j0`` values when given."""
    L = filt.length
    if vals is None:
        vals = scalar._integer_values(filt)[:-1]
    for j in range(j0, J):
        n_new = (L - 1) * 2 ** (j + 1)
        new = np.zeros(n_new)
        new[0::2] = vals
        odd = np.arange(1, n_new, 2)
        acc = np.zeros(len(odd))
        for i, hk in enumerate(filt.h):
            src = odd - (filt.h_start + i) * 2**j
            ok = (src >= 0) & (src < len(vals))
            acc[ok] += math.sqrt(2.0) * hk * vals[src[ok]]
        new[1::2] = acc
        vals = new
    return vals


def _mask_psi(filt, J, phi):
    """Reference wavelet sum in mask form, against the level-max(J-1, 0)
    scaling table ``phi``."""
    L = filt.length
    n = (L - 1) * 2**J
    p = np.arange(n) + (1 - L // 2) * 2**J
    out = np.zeros(n)
    shift = 2 ** (J - 1) if J >= 1 else 1
    base = 2 * p if J == 0 else p
    for i, gk in enumerate(filt.g):
        src = base - (filt.g_start + i) * shift
        ok = (src >= 0) & (src < len(phi))
        out[ok] += math.sqrt(2.0) * gk * phi[src[ok]]
    return out


def _assert_kernels_match_mask_form(filt, levels, monkeypatch):
    ref_phi = [_mask_phi(filt, 0)]
    for J in range(1, max(levels) + 1):
        ref_phi.append(_mask_phi(filt, J, J - 1, ref_phi[-1]))
    for J in levels:
        monkeypatch.setattr(scalar, "_table_cache", {})
        assert scalar._phi_table(filt, J).tobytes() == ref_phi[J].tobytes(), ("scaling", J)
        monkeypatch.setattr(scalar, "_table_cache", {})
        ref_psi = _mask_psi(filt, J, ref_phi[max(J - 1, 0)])
        assert scalar._psi_table(filt, J).tobytes() == ref_psi.tobytes(), ("wavelet", J)


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(2, 11)])
def test_slice_kernels_equal_mask_form(name, monkeypatch):
    """The one-slice-add-per-tap tables equal the mask-and-gather form's,
    byte for byte, built from an empty cache."""
    _assert_kernels_match_mask_form(filter_by_name(name), range(15), monkeypatch)


@pytest.mark.parametrize("name", ["db3", "db10"])
def test_slice_refinement_resumes_bitwise(name, monkeypatch):
    """Refinement resumed from each cached coarser level gives the mask
    form's bytes."""
    filt = filter_by_name(name)
    J = 10
    expected = _mask_phi(filt, J).tobytes()
    for j0 in range(J):
        monkeypatch.setattr(scalar, "_table_cache", {})
        scalar._table(filt, "scaling", j0)
        assert scalar._phi_table(filt, J).tobytes() == expected, j0


@pytest.mark.parametrize("h_start", [-3, -1, 0, 2, 7])
@pytest.mark.parametrize("g_start", [-9, -4, 0, 3])
def test_slice_kernels_shifted_taps(h_start, g_start, monkeypatch):
    """Shifted offsets put whole taps outside the source table, where the
    slices are empty; the tables still equal the mask form's."""
    db3 = filter_by_name("db3")
    filt = ScalarFilter("shifted", db3.h, h_start, db3.g, g_start, 3)
    _assert_kernels_match_mask_form(filt, range(9), monkeypatch)
