import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vecwave.basis1d import (
    Component,
    FactorInnerCache,
    MatrixFilter,
    Multiwavelet,
    build_vector_basis,
    expand_factor,
    from_multiwavelet,
    matrix_refinement_filter,
    refine_residual,
    to_multiwavelet,
    translate_gram_deviation,
)
from vecwave.basisnd import build_basis_nd, catalog_star_deviation, make_atom, sample_vector_atom_nd
from vecwave.errors import NotOrthonormalError, ResolutionError, SizeGuardError
from vecwave.scalar import (
    ScalarFilter,
    _dot,
    filter_by_name,
    haar_filter,
    quad_inner,
    scaled_atom_sample,
)
from vecwave.star import star


BUILTIN_NAMES = ["haar"] + [f"db{N}" for N in range(1, 11)]


def catalog_atom_1d(basis, which, k, J):
    """A 1-D vector atom, the d = 1 catalog atom, on the level-J grid.

    ``which`` is ``"scaling"`` or an integer wavelet level t.
    """
    catalog = build_basis_nd(basis.filter, 1, basis.m)
    if which == "scaling":
        atom = make_atom(catalog.family_by_name("Phi1"), 0, (k,))
    else:
        atom = make_atom(catalog.family_by_name("Psi1"), which, (k,))
    return sample_vector_atom_nd(atom, catalog, J)


def test_component_layout_haar_m2():
    b = build_vector_basis(haar_filter(), 2)
    assert b.dilation == 4
    assert b.scaling_components() == (
        Component("scaling", 0),
        Component("wavelet", 0),
    )
    assert b.wavelet_components(0) == (
        Component("wavelet", 1),
        Component("wavelet", 2),
    )
    assert b.wavelet_components(1) == (
        Component("wavelet", 3),
        Component("wavelet", 4),
    )


def test_component_layout_db2_m3():
    b = build_vector_basis(filter_by_name("db2"), 3)
    assert b.dilation == 8
    assert b.scaling_components() == (
        Component("scaling", 0),
        Component("wavelet", 0),
        Component("wavelet", 1),
    )
    # Level t occupies scalar scales m*t + m - 1 + r for r = 0..m-1.
    assert b.wavelet_components(0) == tuple(
        Component("wavelet", 2 + r) for r in range(3)
    )
    assert b.wavelet_components(2) == tuple(
        Component("wavelet", 8 + r) for r in range(3)
    )


def test_m1_reduces_to_scalar():
    b = build_vector_basis(haar_filter(), 1)
    assert b.dilation == 2
    assert b.scaling_components() == (Component("scaling", 0),)
    assert b.wavelet_components(0) == (Component("wavelet", 0),)
    assert b.wavelet_components(3) == (Component("wavelet", 3),)


def test_scale_coverage_partition():
    # Wavelet-kind scales across the scaling atom plus levels 0..T-1 cover
    # {0, ..., m*T + m - 2} exactly once, with no gap and no overlap.
    for m in (1, 2, 3, 4):
        b = build_vector_basis(haar_filter(), m)
        T = 3
        comps = list(b.scaling_components())
        for t in range(T):
            comps.extend(b.wavelet_components(t))
        assert comps.count(Component("scaling", 0)) == 1
        wavelet_scales = sorted(c.scale for c in comps if c.kind == "wavelet")
        assert wavelet_scales == list(range(m * T + m - 1))


def test_build_guards():
    with pytest.raises(ValueError):
        build_vector_basis(haar_filter(), 0)
    with pytest.raises(TypeError):
        build_vector_basis("haar", 2)
    b = build_vector_basis(haar_filter(), 2)
    with pytest.raises(ValueError):
        b.wavelet_components(-1)


def test_sample_scaling_atom_haar_m2():
    b = build_vector_basis(haar_filter(), 2)
    f = catalog_atom_1d(b, "scaling", 0, 4)
    assert f.m == 2
    assert f.start == (0,)
    assert f.values.shape == (2, 16)
    assert_array_equal(f.values[0], np.ones(16))
    assert_array_equal(f.values[1], np.r_[np.ones(8), -np.ones(8)])


def test_sample_wavelet_atom_haar_m2():
    # Level-0 channels sit at scalar scales 1 and 2 with amplitudes
    # sqrt(2) and 2, padded onto the union window [0, 1/2).
    b = build_vector_basis(haar_filter(), 2)
    f = catalog_atom_1d(b, 0, 0, 4)
    assert f.start == (0,)
    assert f.values.shape == (2, 8)
    s = np.sqrt(2.0)
    assert_allclose(f.values[0], [s, s, s, s, -s, -s, -s, -s], atol=1e-15)
    assert_array_equal(f.values[1], [2, 2, -2, -2, 0, 0, 0, 0])


def test_sample_matches_channel_oracle():
    b = build_vector_basis(filter_by_name("db2"), 3)
    for which, comps in (
        ("scaling", b.scaling_components()),
        (1, b.wavelet_components(1)),
    ):
        f = catalog_atom_1d(b, which, -3, 8)
        for r, comp in enumerate(comps):
            want = scaled_atom_sample(b.filter, comp.kind, comp.scale, -3, 8)
            seg = f.values[r, want.start - f.start[0] :][: len(want.values)]
            assert_array_equal(seg, want.values)
            outside = np.sum(np.abs(f.values[r])) - np.sum(np.abs(want.values))
            assert outside == 0.0


def test_translation_covariance_rigid_when_scales_match():
    # Both channels of the Haar m=2 scaling atom live at scale 0, so the
    # k=3 atom is the k=0 atom shifted rigidly by 3 * 2^J grid units.
    b = build_vector_basis(haar_filter(), 2)
    f0 = catalog_atom_1d(b, "scaling", 0, 4)
    f3 = catalog_atom_1d(b, "scaling", 3, 4)
    assert f3.start[0] == f0.start[0] + 3 * 2**4
    assert_array_equal(f3.values, f0.values)


def test_translation_covariance_per_channel():
    # Mixed-scale atoms translate channelwise: channel r shifts by
    # k * 2^(J - s_r) grid units.
    b = build_vector_basis(haar_filter(), 3)
    J = 6
    f0 = catalog_atom_1d(b, 0, 0, J)
    f2 = catalog_atom_1d(b, 0, 2, J)
    for r, comp in enumerate(b.wavelet_components(0)):
        a0 = scaled_atom_sample(b.filter, comp.kind, comp.scale, 0, J)
        a2 = scaled_atom_sample(b.filter, comp.kind, comp.scale, 2, J)
        assert a2.start == a0.start + 2 * 2 ** (J - comp.scale)
        assert_array_equal(a0.values, a2.values)
        seg = f2.values[r, a2.start - f2.start[0] :][: len(a2.values)]
        assert_array_equal(seg, a2.values)


def test_resolution_guard():
    b = build_vector_basis(haar_filter(), 3)
    # Level 1 tops out at scalar scale 7, finer than a J=4 grid.
    with pytest.raises(ResolutionError):
        catalog_atom_1d(b, 1, 0, 4)


def test_star_orthonormality_haar_small_scope():
    # All pairings of scaling and level <= 1 atoms for |k| <= 2 reproduce
    # delta * I exactly on the dyadic grid.
    b = build_vector_basis(haar_filter(), 2)
    J = 8
    atoms = []
    for k in range(-2, 3):
        atoms.append((("s", k), catalog_atom_1d(b, "scaling", k, J)))
        for t in (0, 1):
            atoms.append(((t, k), catalog_atom_1d(b, t, k, J)))
    eye = np.eye(2)
    worst = 0.0
    for i in range(len(atoms)):
        for j in range(i, len(atoms)):
            (la, fa), (lb, fb) = atoms[i], atoms[j]
            want = eye if la == lb else np.zeros((2, 2))
            dev = np.max(np.abs(star(fa, fb).entries - want))
            worst = max(worst, dev)
    assert worst <= 1e-12


def test_star_orthonormality_haar_m3():
    b = build_vector_basis(haar_filter(), 3)
    J = 8
    atoms = [(("s", k), catalog_atom_1d(b, "scaling", k, J)) for k in (-1, 0, 1)]
    atoms += [((0, k), catalog_atom_1d(b, 0, k, J)) for k in (-1, 0, 1)]
    eye = np.eye(3)
    for i in range(len(atoms)):
        for j in range(i, len(atoms)):
            (la, fa), (lb, fb) = atoms[i], atoms[j]
            want = eye if la == lb else np.zeros((3, 3))
            assert np.max(np.abs(star(fa, fb).entries - want)) <= 1e-12


def test_matrix_filter_haar_m2():
    b = build_vector_basis(haar_filter(), 2)
    mf = matrix_refinement_filter(b)
    assert mf.dilation == 4
    assert mf.start == 0
    assert mf.taps.shape == (4, 2, 2)
    # Composed taps carry one rounding step from squaring sqrt(2)/2.
    assert_allclose(mf.taps[:, 0, 0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert_allclose(mf.taps[:, 1, 0], [0.5, 0.5, -0.5, -0.5], atol=1e-15)
    assert_array_equal(mf.taps[:, :, 1], np.zeros((4, 2)))
    assert_allclose(mf.coefficient(0).entries, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)
    assert_allclose(mf.coefficient(3).entries, [[0.5, 0.0], [-0.5, 0.0]], atol=1e-15)
    assert_array_equal(mf.coefficient(9).entries, np.zeros((2, 2)))
    assert_array_equal(mf.coefficient(-1).entries, np.zeros((2, 2)))


def compose(c, c_start, h, h_start):
    """Plain-loop oracle for the two-scale composition (a o b)_k."""
    out_start = 2 * c_start + h_start
    out = np.zeros(2 * (len(c) - 1) + len(h))
    for n, cn in enumerate(c):
        for i, hi in enumerate(h):
            out[2 * n + i] += cn * hi
    return out, out_start


def test_matrix_filter_rows_match_composition_oracle():
    f = filter_by_name("db2")
    b = build_vector_basis(f, 3)
    mf = matrix_refinement_filter(b)
    # Row r composes the first-step filter with m - 1 - s_r copies of h.
    firsts = [(f.h, f.h_start), (f.g, f.g_start), (f.g, f.g_start)]
    extras = [2, 2, 1]
    for r in range(3):
        seq, start = firsts[r]
        for _ in range(extras[r]):
            seq, start = compose(seq, start, f.h, f.h_start)
        got = mf.taps[:, r, 0]
        seg = got[start - mf.start :][: len(seq)]
        assert_allclose(seg, seq, atol=1e-15)
        assert np.sum(np.abs(got)) == pytest.approx(np.sum(np.abs(seq)))
    assert_array_equal(mf.taps[:, :, 1:], np.zeros_like(mf.taps[:, :, 1:]))


# The composition loop that expand_factor replaced, kept as a bitwise
# reference for the refinement taps.
def _loop_matrix_refinement_filter(basis):
    filt, m = basis.filter, basis.m

    def compose_step(c, c_start):
        L = len(filt.h)
        out = np.zeros(2 * (len(c) - 1) + L)
        for n, cn in enumerate(c):
            out[2 * n : 2 * n + L] += cn * filt.h
        return out, 2 * c_start + filt.h_start

    rows = []
    for c in basis.scaling_components():
        if c.kind == "scaling":
            seq, start, extra = filt.h.copy(), filt.h_start, m - 1
        else:
            seq, start, extra = filt.g.copy(), filt.g_start, m - c.scale - 1
        for _ in range(extra):
            seq, start = compose_step(seq, start)
        rows.append((seq, start))
    lo = min(s for _, s in rows)
    taps = np.zeros((max(s + len(q) for q, s in rows) - lo, m, m))
    for r, (seq, start) in enumerate(rows):
        taps[start - lo : start - lo + len(seq), r, 0] = seq
    return taps, lo


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_matrix_filter_keeps_the_bits_of_the_composition_loop(name):
    for m in (1, 2, 3):
        b = build_vector_basis(filter_by_name(name), m)
        mf = matrix_refinement_filter(b)
        taps, start = _loop_matrix_refinement_filter(b)
        assert mf.start == start
        assert mf.taps.tobytes() == taps.tobytes()


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "db10"])
def test_expand_factor_matches_the_dense_loop_bitwise(name):
    filt = filter_by_name(name)
    for kind in ("scaling", "wavelet"):
        for scale in (0, 1, 3):
            for shift in (-5, 0, 2):
                for depth in range(kind == "wavelet", 6):
                    seq, start = expand_factor(filt, kind, scale, shift, scale + depth)
                    want, want_start = dense_expansion(filt, kind, scale, shift, scale + depth)
                    assert start == want_start
                    assert seq.tobytes() == want.tobytes()
                    assert not seq.flags.writeable


def test_expand_factor_guards():
    filt = filter_by_name("db2")
    with pytest.raises(ValueError):
        expand_factor(filt, "psi", 0, 0, 2)
    with pytest.raises(ResolutionError):
        expand_factor(filt, "wavelet", 2, 0, 2)
    with pytest.raises(ResolutionError):
        expand_factor(filt, "scaling", 2, 0, 1)
    # a depth whose coefficients pass MAX_TABLE_SAMPLES stops before it is built
    with pytest.raises(SizeGuardError):
        expand_factor(filt, "scaling", 0, 0, 60)
    assert expand_factor(filt, "scaling", 3, 7, 3)[0].tolist() == [1.0]
    assert expand_factor(filt, "scaling", 3, 7, 3)[1] == 7


def test_factor_gram_is_bounded_by_its_key_count():
    cache = FactorInnerCache(haar_filter(), 8)
    keys = [("scaling", 0, k) for k in range(2**11 + 1)]
    with pytest.raises(SizeGuardError, match="2048 keys, got 2049"):
        cache.gram(keys)
    assert_array_equal(cache.gram(keys[:-1]), np.eye(2**11))
    # 32 766 atom rows pass MAX_SWEEP_ROWS, but their 32 766 keys would ask
    # for a 4 GiB pair table
    with pytest.raises(SizeGuardError, match="factor Gram guard"):
        catalog_star_deviation(build_basis_nd(haar_filter(), 1, 1), 0, 8191, 8)


def test_refine_residual_haar():
    b = build_vector_basis(haar_filter(), 2)
    mf = matrix_refinement_filter(b)
    assert refine_residual(b, mf, 6) <= 1e-12
    assert refine_residual(b, mf, 2) <= 1e-12


def test_refine_residual_db2():
    b = build_vector_basis(filter_by_name("db2"), 2)
    mf = matrix_refinement_filter(b)
    assert refine_residual(b, mf, 10) <= 1e-8


def test_refine_residual_db2_m3():
    b = build_vector_basis(filter_by_name("db2"), 3)
    mf = matrix_refinement_filter(b)
    assert refine_residual(b, mf, 10) <= 1e-8


def test_refine_residual_zero_filter():
    # The trivial candidate leaves the full atom: the residual equals the
    # max pointwise 1-norm of Phi, which is 2 for Haar m=2.
    b = build_vector_basis(haar_filter(), 2)
    zeros = MatrixFilter(np.zeros((4, 2, 2)), 0, 4)
    assert refine_residual(b, zeros, 6) == pytest.approx(2.0)


def test_refine_residual_resolution_guard():
    b = build_vector_basis(haar_filter(), 3)
    mf = matrix_refinement_filter(b)
    with pytest.raises(ResolutionError):
        refine_residual(b, mf, 2)


# The per-tap loop form that one sample per generator replaced, kept as a
# bitwise reference.
def _loop_refine_residual(basis, mf, J):
    m = basis.m
    comps = basis.scaling_components()
    rows = [scaled_atom_sample(basis.filter, c.kind, c.scale, 0, J) for c in comps]
    lo = min(row.start for row in rows)
    hi = max(row.start + len(row.values) for row in rows)
    pieces = []
    for i in range(len(mf.taps)):
        k = mf.start + i
        for c_idx, comp in enumerate(comps):
            coeffs = mf.taps[i, :, c_idx]
            if not np.any(coeffs):
                continue
            atom = scaled_atom_sample(
                basis.filter, comp.kind, m + comp.scale, (2**comp.scale) * k, J
            )
            pieces.append((coeffs, atom))
            lo = min(lo, atom.start)
            hi = max(hi, atom.start + len(atom.values))
    rhs = np.zeros((m, hi - lo))
    for coeffs, atom in pieces:
        seg = slice(atom.start - lo, atom.start - lo + len(atom.values))
        rhs[:, seg] += np.outer(coeffs, atom.values)
    full = np.zeros((m, hi - lo))
    for r, row in enumerate(rows):
        full[r, row.start - lo : row.start - lo + len(row.values)] = row.values
    return float(np.max(np.sum(np.abs(full - rhs), axis=0)))


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "db7", "db10"])
def test_refine_residual_matches_loop_bitwise(name):
    rng = np.random.default_rng(3)
    entries = np.random.default_rng(4)
    for m in (1, 2, 3):
        b = build_vector_basis(filter_by_name(name), m)
        mf = matrix_refinement_filter(b)
        # the real taps fill only column 0; random ones, some columns and
        # taps zeroed, reach the later columns and their scales
        noise = rng.standard_normal((5, m, m)) * (rng.random((5, 1, m)) < 0.7)
        filters = (mf, MatrixFilter(noise, -3, mf.dilation))
        # single entries zeroed, so a term reaches only some rows; then
        # -0.0 in their place, and a column of -0.0 alone
        sparse = entries.standard_normal((6, m, m)) * (entries.random((6, m, m)) < 0.6)
        signed = np.where(sparse == 0.0, -0.0, sparse)
        signed[1, :, -1] = -0.0
        filters += (MatrixFilter(sparse, -2, mf.dilation), MatrixFilter(signed, -2, mf.dilation))
        for f in filters:
            for J in (2 * m, 2 * m + 3):
                got = refine_residual(b, f, J)
                assert got.hex() == _loop_refine_residual(b, f, J).hex()


def test_matrix_filter_validation():
    with pytest.raises(ValueError):
        MatrixFilter(np.zeros((4, 2, 3)), 0, 4)
    with pytest.raises(ValueError):
        MatrixFilter(np.zeros((4,)), 0, 4)


def test_to_multiwavelet_haar_m2():
    b = build_vector_basis(haar_filter(), 2)
    mw = to_multiwavelet(b)
    assert mw.m == 2
    assert mw.scaling == (Component("scaling", 0), Component("wavelet", 0))
    assert mw.wavelets == (Component("wavelet", 1), Component("wavelet", 2))
    # Generator sqrt(2) psi(2x) on [0, 1/2), sampled at J=3.
    g0 = scaled_atom_sample(b.filter, "wavelet", 1, 0, 3)
    s = np.sqrt(2.0)
    assert g0.start == 0
    assert_allclose(g0.values, [s, s, -s, -s], atol=1e-15)


def test_to_multiwavelet_db2_m3():
    b = build_vector_basis(filter_by_name("db2"), 3)
    mw = to_multiwavelet(b)
    assert mw.m == 3
    assert mw.wavelets == tuple(Component("wavelet", 2 + r) for r in range(3))


def _perturbed_filter(defect: str) -> ScalarFilter:
    """A builtin filter with one defect in its low-pass taps or their offset."""
    base = filter_by_name("db4" if defect == "swapped-taps" else "db2")
    h, h_start = base.h.copy(), base.h_start
    if defect == "scaled-tap":
        h[0] *= 1.01
    elif defect in ("swapped-taps", "swapped-middle-taps"):
        # db2's two middle taps swapped still admit a refinable phi, which
        # only the filter axioms reject; db4's do not
        h[[1, 2]] = h[[2, 1]]
    else:
        h_start += 1
    return ScalarFilter(
        f"{base.name}-{defect}", h, h_start, base.g, base.g_start, base.vanishing_moments
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("defect", ["scaled-tap", "swapped-taps", "shifted-h-start"])
def test_to_multiwavelet_rejects_a_perturbed_filter(defect, m):
    filt = _perturbed_filter(defect)
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        to_multiwavelet(build_vector_basis(filt, m))
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        build_basis_nd(filt, 2, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_to_multiwavelet_rejects_a_refinable_non_orthonormal_filter(m):
    filt = _perturbed_filter("swapped-middle-taps")
    with pytest.raises(NotOrthonormalError, match="orthonormality 3.750e-01"):
        to_multiwavelet(build_vector_basis(filt, m))
    for d in (1, 2):
        with pytest.raises(NotOrthonormalError):
            build_basis_nd(filt, d, m)


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(1, 11)])
def test_every_builtin_filter_builds(name):
    filt = filter_by_name(name)
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            assert build_basis_nd(filt, d, m).m == m


def test_translate_gram_deviation_haar():
    for m in (1, 2, 3):
        mw = to_multiwavelet(build_vector_basis(haar_filter(), m))
        assert translate_gram_deviation(mw) <= 1e-12


def test_translate_gram_deviation_guard():
    mw = to_multiwavelet(build_vector_basis(haar_filter(), 2))
    with pytest.raises(ValueError):
        translate_gram_deviation(mw, J=0)


def test_round_trip_haar():
    for m in (1, 2, 3):
        b = build_vector_basis(haar_filter(), m)
        rt = from_multiwavelet(to_multiwavelet(b))
        assert rt.filter is b.filter
        assert rt.m == b.m
        assert rt.scaling_components() == b.scaling_components()
        # Atoms agree channelwise after reassembly.
        fa = catalog_atom_1d(b, "scaling", 1, 8)
        fb = catalog_atom_1d(rt, "scaling", 1, 8)
        assert fa.start == fb.start
        assert_array_equal(fa.values, fb.values)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip_every_builtin_filter(name):
    # the translate Gram comes from the taps, so no quadrature floor (6.6e-4
    # for db2 at J = 8) stands between an orthonormal filter and tol = 1e-10
    for m in (1, 2, 3):
        b = build_vector_basis(filter_by_name(name), m)
        rt = from_multiwavelet(to_multiwavelet(b))
        assert rt.filter is b.filter and rt.m == b.m


def test_from_multiwavelet_count_mismatch():
    f = haar_filter()
    mw = Multiwavelet(
        f,
        (Component("scaling", 0),),
        (Component("wavelet", 1), Component("wavelet", 2)),
    )
    with pytest.raises(ValueError):
        from_multiwavelet(mw)


def test_from_multiwavelet_rejects_non_orthonormal():
    # A duplicated generator makes the translate Gram matrix singular.
    f = haar_filter()
    mw = Multiwavelet(
        f,
        (Component("scaling", 0), Component("scaling", 0)),
        (Component("wavelet", 1), Component("wavelet", 2)),
    )
    with pytest.raises(NotOrthonormalError):
        from_multiwavelet(mw)


def test_from_multiwavelet_rejects_shuffled_layout():
    # These four generators are mutually orthonormal but sit in the wrong
    # slots, so the Gram check passes and the layout check fires.
    f = haar_filter()
    mw = Multiwavelet(
        f,
        (Component("scaling", 0), Component("wavelet", 1)),
        (Component("wavelet", 0), Component("wavelet", 2)),
    )
    with pytest.raises(ValueError):
        from_multiwavelet(mw)


def test_generator_cross_scale_orthogonality():
    # Independent spot check behind the Gram test: distinct-scale Haar
    # generators pair to zero and each has unit norm.
    mw = to_multiwavelet(build_vector_basis(haar_filter(), 2))
    J = 8
    comps = tuple(mw.scaling) + tuple(mw.wavelets)
    samples = [
        scaled_atom_sample(mw.filter, c.kind, c.scale, 0, J) for c in comps
    ]
    for i in range(4):
        assert quad_inner(samples[i], samples[i]) == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, 4):
            assert abs(quad_inner(samples[i], samples[j])) <= 1e-12


_DENSE = {}


def dense_expansion(filt, kind, scale, shift, level):
    """Plain-loop oracle of ``expand_factor``: the factor's coefficients over
    phi_{level, n}, one composition per level from its own shift, in Python
    floats."""
    key = (filt.name, filt.h.tobytes(), kind, scale, shift, level)
    if key not in _DENSE:
        h = filt.h.tolist()
        if kind == "scaling":
            seq, start, steps = [1.0], shift, level - scale
        else:
            seq, start, steps = filt.g.tolist(), 2 * shift + filt.g_start, level - scale - 1
        for _ in range(steps):
            out = [0.0] * (2 * (len(seq) - 1) + len(h))
            for n, cn in enumerate(seq):
                for i, hi in enumerate(h):
                    out[2 * n + i] += cn * hi
            seq, start = out, 2 * start + filt.h_start
        _DENSE[key] = (np.array(seq), start)
    return _DENSE[key]


def tap_inner(filt, key_a, key_b):
    """Inner product of two factor keys from their dense expansions at the
    coarsest level both reach, summed by the package's fixed-order dot."""
    level = max(scale + (kind == "wavelet") for kind, scale, _ in (key_a, key_b))
    (ca, sa), (cb, sb) = (dense_expansion(filt, *key, level) for key in (key_a, key_b))
    lo, hi = max(sa, sb), min(sa + len(ca), sb + len(cb))
    return _dot(ca[lo - sa : hi - sa], cb[lo - sb : hi - sb]) if lo < hi else 0.0


# The per-pair loop form that the Gram table replaced, kept as a bitwise
# reference; each pair is measured from dense tap expansions.
def _loop_translate_gram_deviation(mw, J=8, k_range=2):
    if J < 1:
        raise ValueError(f"need a resolution margin J >= 1, got {J}")
    comps = tuple(mw.scaling) + tuple(mw.wavelets)
    labels = [
        (slot, k)
        for slot in range(len(comps))
        for k in range(-k_range, k_range + 1)
    ]
    worst = 0.0
    for a_idx in range(len(labels)):
        for b_idx in range(a_idx, len(labels)):
            (sa, ka), (sb, kb) = labels[a_idx], labels[b_idx]
            ca, cb = comps[sa], comps[sb]
            v = tap_inner(
                mw.filter, (ca.kind, ca.scale, ka * 2**ca.scale), (cb.kind, cb.scale, kb * 2**cb.scale)
            )
            want = 1.0 if labels[a_idx] == labels[b_idx] else 0.0
            worst = max(worst, abs(v - want))
    return worst


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "db10"])
def test_translate_gram_matches_loop_bitwise(name):
    for m in (1, 2, 3):
        mw = to_multiwavelet(build_vector_basis(filter_by_name(name), m))
        for J, k_range in ((8, 2), (10, 2), (8, 0), (8, -1)):
            got = translate_gram_deviation(mw, J=J, k_range=k_range)
            assert got.hex() == _loop_translate_gram_deviation(mw, J, k_range).hex()


def test_translate_gram_keeps_duplicated_generators_apart():
    # Rows are slots, not descriptors: the two copies of phi pair to 1
    # where 0 is wanted.
    mw = Multiwavelet(
        haar_filter(),
        (Component("scaling", 0), Component("scaling", 0)),
        (Component("wavelet", 1), Component("wavelet", 2)),
    )
    got = translate_gram_deviation(mw)
    assert got == 1.0
    assert got.hex() == _loop_translate_gram_deviation(mw).hex()
