import gc
import math
import operator
import weakref
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecwave import scalar
from vecwave.errors import FileFormatError, ResolutionError, SizeGuardError
from vecwave.scalar import (
    _dot,
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


BUILTIN_NAMES = ["haar"] + [f"db{N}" for N in range(2, 11)]


def _exact_sampled_moments(f, count):
    """``sum_i x_i**p v_i * step`` for ``p < count``, as exact Fractions.

    Every sample is ``num / 2**e``; on the largest such denominator the
    samples become integers, and with ``x_i = n_i 2**-level`` each sum runs
    in Python ints.
    """
    ratios = [float(v).as_integer_ratio() for v in f.values]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    nums = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    ns = list(range(f.start, f.start + len(f.values)))
    out, terms = [], nums
    for p in range(count):
        out.append(Fraction(sum(terms), 1 << (shift + f.level * (p + 1))))
        terms = list(map(operator.mul, terms, ns))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_moments_match_an_exact_sum_of_the_samples(name):
    filt = filter_by_name(name)
    for J in (6, 8, 10, 12):
        w = refine_sample(filt, "wavelet", J)
        exact = _exact_sampled_moments(w, filt.vanishing_moments)
        for p, want in enumerate(exact):
            assert abs(moment(w, p) - float(want)) <= 1e-12, (J, p)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_low_moments_keep_the_bits_of_pow(name):
    # the elementwise pow that moment used before its product ladder
    def pow_moment(f, p):
        return _dot(f.grid() ** p, f.values) * f.step

    filt = filter_by_name(name)
    for J in (6, 8, 10, 12):
        for which in ("scaling", "wavelet"):
            f = refine_sample(filt, which, J)
            for p in (1, 2, 3):
                assert moment(f, p).hex() == pow_moment(f, p).hex(), (J, which, p)


@pytest.mark.parametrize("count", [14, 20])
def test_moments_refusal_names_the_highest_order_asked(count):
    w = refine_sample(haar_filter(), "wavelet", 4)
    with pytest.raises(ValueError, match=f"^moment order must be in 0..12, got {count - 1}$"):
        scalar._moments(w, count)


def test_verify_refuses_more_vanishing_moments_than_it_can_take():
    # a hand-built filter may claim any count; the moment row asks for
    # orders 0..count-1
    from vecwave.basisnd import build_basis_nd
    from vecwave.verify import run_verify

    base = haar_filter()
    filt = ScalarFilter("haar", base.h, base.h_start, base.g, base.g_start, 20)
    with pytest.raises(ValueError, match="^moment order must be in 0..12, got 19$"):
        run_verify(build_basis_nd(filt, 1, 1), 6, "exact")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_zeroth_moment_keeps_the_bits_of_fsum_over_the_array(name):
    filt = filter_by_name(name)
    for J in (6, 10):
        for which in ("scaling", "wavelet"):
            f = refine_sample(filt, which, J)
            want = math.fsum(f.values) * f.step
            assert moment(f, 0).hex() == want.hex(), (J, which)


def test_dot_is_the_sum_of_the_rounded_products_to_one_rounding():
    rng = np.random.default_rng(5)
    for n in (1, 7, 8, 129, 20000):
        # terms near 2**30 that cancel in pairs, leaving a sum near sqrt(n)
        big = rng.standard_normal(n) * 2.0**30
        a = rng.permutation(np.concatenate([big, rng.standard_normal(n) - big]))
        b = np.ones(2 * n)
        products = a * b
        exact = math.fsum(products.tolist())
        # one rounding, plus the pairwise sum of remainders below 2**-53 sigma
        # with sigma < 4 (2n + 2) max|p|
        bound = math.ulp(exact) + (2 * n) * (2 * n + 2) * 2.0**-100 * np.max(np.abs(products))
        assert abs(_dot(a, b) - exact) <= bound, n
        # a plain float sum of the same products misses by far more
        assert n < 100 or abs(float(np.sum(products)) - exact) > 1e3 * bound
    assert _dot(np.zeros(0), np.zeros(0)) == 0.0
    assert _dot(np.zeros(3), np.ones(3)) == 0.0
    # past the range where sigma is a normal float, the plain pairwise sum
    huge = np.array([2.0**1000, -(2.0**1000), 1.0])
    assert _dot(huge, np.ones(3)) == 1.0


def _row_dot(a, b):
    """One vector's ``_dot`` as the package computed it before rows could
    be stacked: the bitwise reference of every row of a stack."""
    p = a * b
    top = float(abs(p).max(initial=0.0))
    if not 2.0**-900 < top < 2.0**900:
        return float(p.sum())
    sigma = 2.0 ** ((len(p) + 1).bit_length() + math.frexp(top)[1])
    q = (sigma + p) - sigma
    return float(q.sum()) + float((p - q).sum())


@pytest.mark.parametrize("n", [*range(1, 10), 127, 128, 129, 8191, 8192, 8193, 131073])
def test_stacked_dot_rows_keep_the_bits_of_one_row_calls(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, 8, n))
    a[1] = 0.0  # an all-zero row
    a[2], b[2] = -0.0, abs(b[2])  # products all -0.0
    a[3, ::2] = -0.0  # signed zeros among values
    b[3, 1::3] = 0.0
    a[4] *= 2.0**460  # products past 2**900: the plain pairwise sum
    b[4] *= 2.0**460
    a[5] *= 2.0**-460  # and below 2**-900
    b[5] *= 2.0**-460
    a[6] = rng.permutation(np.concatenate([a[6, : n // 2] * 2.0**30, -a[6, : n // 2] * 2.0**30, a[6, n // 2 * 2 :]]))
    got = _dot(a, b)
    assert got.shape == (8,)
    for r in range(8):
        want = _row_dot(a[r], b[r])
        assert got[r].hex() == want.hex() == _dot(a[r], b[r]).hex(), r
    # a stack whose every row is in range, and one whose every row is not
    for rows in ([0, 3, 6, 7], [1, 2, 4, 5]):
        got = _dot(a[rows], b[rows])
        assert [v.hex() for v in got.tolist()] == [_row_dot(a[r], b[r]).hex() for r in rows]


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


def test_caches_keyed_by_filter_not_name(monkeypatch):
    """A filter that reuses a builtin name with other taps gets its own
    samples, not the builtin's cached ones."""
    monkeypatch.setattr(scalar, "_table_cache", {})
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


def test_memos_die_with_their_filter():
    """The cascade tables and factor expansions are kept per filter object
    and freed with it; a filter compares and hashes by identity."""
    from vecwave import basis1d, build_basis_nd
    from vecwave.cli import run_verify

    gc.collect()
    sizes = len(scalar._table_cache), len(basis1d._expansion_cache)
    filt = filter_by_name("db4")
    basis = build_basis_nd(filt, 1, 2)
    assert run_verify(basis, 8, "sampled").passed
    table = weakref.ref(scalar._table_cache[filt]["scaling"][1])
    expansion = weakref.ref(basis1d._expansion_cache[filt]["scaling", 2][0])
    assert filt == filt
    assert filt != filter_by_name(filt.name)
    assert hash(filt) == hash(filt)
    del filt, basis
    gc.collect()
    assert table() is None and expansion() is None
    assert (len(scalar._table_cache), len(basis1d._expansion_cache)) == sizes


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
    with pytest.raises(SizeGuardError, match="past 1022"):
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
        ref_psi = _mask_psi(filt, J, ref_phi[max(J - 1, 0)])
        for which, ref in (("scaling", ref_phi[J]), ("wavelet", ref_psi)):
            monkeypatch.setattr(scalar, "_table_cache", {})
            assert scalar._table(filt, which, J).tobytes() == ref.tobytes(), (which, J)


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(2, 11)])
def test_slice_kernels_equal_mask_form(name, monkeypatch):
    """The one-slice-add-per-tap tables equal the mask-and-gather form's,
    byte for byte, built from an empty cache."""
    _assert_kernels_match_mask_form(filter_by_name(name), range(15), monkeypatch)


@pytest.mark.parametrize("name", ["db3", "db10"])
def test_slice_refinement_resumes_bitwise(name, monkeypatch):
    """Refinement resumed from each cached coarser level gives the mask
    form's bytes, for the scaling function and the wavelet alike."""
    filt = filter_by_name(name)
    J = 10
    expected = {
        "scaling": _mask_phi(filt, J).tobytes(),
        "wavelet": _mask_psi(filt, J, _mask_phi(filt, J - 1)).tobytes(),
    }
    for which in ("scaling", "wavelet"):
        for j0 in range(J):
            monkeypatch.setattr(scalar, "_table_cache", {})
            scalar._table(filt, which, j0)
            assert scalar._table(filt, which, J).tobytes() == expected[which], (which, j0)


def test_cache_keeps_one_table_per_function(monkeypatch):
    cache = {}
    monkeypatch.setattr(scalar, "_table_cache", cache)
    filt = filter_by_name("db4")
    for J in range(10, 15):
        scalar._table(filt, "wavelet", J)
    assert list(cache) == [filt]
    assert sorted(cache[filt]) == ["scaling", "wavelet"]
    assert cache[filt]["scaling"][0] == 13
    assert cache[filt]["wavelet"][0] == 14


@pytest.mark.parametrize("J", [0, 1, 9])
def test_wavelet_is_one_pass_over_the_scaling_table(J, monkeypatch):
    """With phi cached at level max(J - 1, 0), psi_J is one pass of the g
    taps over it: no refinement ladder of its own."""
    monkeypatch.setattr(scalar, "_table_cache", {})
    filt = filter_by_name("db4")
    scalar._table(filt, "scaling", max(J - 1, 0))
    calls = []
    add_taps = scalar._add_taps

    def counted(*args):
        calls.append(args)
        add_taps(*args)

    monkeypatch.setattr(scalar, "_add_taps", counted)
    scalar._table(filt, "wavelet", J)
    assert len(calls) == 1


def test_scale0_atoms_share_the_cached_tables(monkeypatch):
    """After a cold verify, a scale-0 atom on the grid of a cached table
    holds that table itself, not a copy of it."""
    from vecwave import build_basis_nd
    from vecwave.cli import run_verify

    monkeypatch.setattr(scalar, "_table_cache", {})
    filt = filter_by_name("db4")
    run_verify(build_basis_nd(filt, 1, 2), 8, "sampled")
    tables = scalar._table_cache[filt]
    assert sorted(tables) == ["scaling", "wavelet"]
    for which, (level, _) in tables.items():
        for k in (0, 3):
            assert scaled_atom_sample(filt, which, 0, k, level).values is scalar._table(filt, which, level)


@pytest.mark.parametrize("name", ["haar", "db2", "db5"])
def test_scale0_atom_is_the_cached_table_at_every_level(name, monkeypatch):
    """Asked in ascending order, every level is the cached one, level 0
    included, where phi's table is cut from the integer-grid values."""
    monkeypatch.setattr(scalar, "_table_cache", {})
    filt = filter_by_name(name)
    for which in ("scaling", "wavelet"):
        for J in range(6):
            assert scaled_atom_sample(filt, which, 0, 1, J).values is scalar._table(filt, which, J)


@pytest.mark.parametrize("name", ["haar", "db2", "db7"])
@pytest.mark.parametrize("which", ["scaling", "wavelet"])
def test_dilated_atom_is_the_scaled_table(name, which, monkeypatch):
    """At scale s > 0 the samples are 2**(s/2) times the level J - s table,
    bit for bit, and read-only like the table itself.  They are formed
    once: `SampledFunction` keeps them uncopied."""
    filt = filter_by_name(name)
    frozen, kept = scalar._frozen, []

    def spy(values):
        out = frozen(values)
        kept.append(out is values)
        return out

    monkeypatch.setattr(scalar, "_frozen", spy)
    J = 9
    for s in (1, 2, 5, J):
        sample = scaled_atom_sample(filt, which, s, 2, J)
        table = scalar._table(filt, which, J - s)
        assert sample.values.tobytes() == (2.0 ** (s / 2.0) * table).tobytes()
        assert sample.values is not table
        assert kept.pop() and not kept
        assert not sample.values.flags.writeable
        with pytest.raises(ValueError):
            sample.values[0] = 1.0


def test_restricted_table_is_read_only_and_contiguous(monkeypatch):
    monkeypatch.setattr(scalar, "_table_cache", {})
    filt = filter_by_name("db3")
    fine = scalar._table(filt, "wavelet", 12)
    for J in (0, 5, 11, 12):
        table = scalar._table(filt, "wavelet", J)
        assert table.flags.c_contiguous
        assert not table.flags.writeable
        assert table.tobytes() == fine[:: 2 ** (12 - J)].tobytes()
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_verify_report_independent_of_cached_levels(monkeypatch):
    """A verify report reads the same bytes from tables restricted from
    level 17 as from tables refined up from an empty cache."""
    from vecwave import build_basis_nd
    from vecwave.cli import run_verify

    filt = filter_by_name("db4")
    basis = build_basis_nd(filt, 1, 2)
    reports = []
    for warm in (False, True):
        monkeypatch.setattr(scalar, "_table_cache", {})
        if warm:
            for which in ("scaling", "wavelet"):
                scalar._table(filt, which, 17)
        reports.append(run_verify(basis, 8, "sampled").to_csv())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("h_start", [-3, -1, 0, 2, 7])
@pytest.mark.parametrize("g_start", [-9, -4, 0, 3])
def test_slice_kernels_shifted_taps(h_start, g_start, monkeypatch):
    """Shifted offsets put whole taps outside the source table, where the
    slices are empty; the tables still equal the mask form's."""
    db3 = filter_by_name("db3")
    filt = ScalarFilter("shifted", db3.h, h_start, db3.g, g_start, 3)
    _assert_kernels_match_mask_form(filt, range(9), monkeypatch)
