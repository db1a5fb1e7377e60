"""Tests for the matrix-coefficient transform and its file formats."""

import copy
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vecwave import (
    CorruptionError,
    DimensionError,
    FileFormatError,
    ResolutionError,
    VectorDecomposition,
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    build_vector_basis,
    cyclic_partition,
    decomposition_from_bytes,
    decomposition_manifest,
    decomposition_to_bytes,
    dwt2_channel,
    dwt_channel,
    filter_by_name,
    idwt2_channel,
    idwt_channel,
    make_atom,
    sample_vector_atom_nd,
    signal_from_bytes,
    signal_to_bytes,
    synthesize_vector,
    threshold_matrix,
)
from vecwave.basis1d import MatrixFilter, expand_factor
from vecwave.basisnd import FamilyND
from vecwave.scalar import SampledFunction, ScalarFilter
from vecwave.star import MatrixM, VectorSampledFunction
from vecwave.tensor import factor_component
from vecwave.transform import (
    Band,
    _axis_analyze_step,
    _axis_synthesize_step,
    _decomposition_chunks,
    _signal_chunks,
    _unpack_bands,
)

HAAR = filter_by_name("haar")
DB2 = filter_by_name("db2")


def test_dwt_constant_signal_has_zero_details():
    approx, details = dwt_channel(np.full(64, 3.25), HAAR, 5)
    for d in details:
        assert_allclose(d, 0.0, atol=1e-14)
    # total mass survives in the approx band
    assert_allclose(approx, 3.25 * np.sqrt(2.0) ** 5 * np.ones(2), atol=1e-12)


def test_dwt_round_trip_db2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(64)
        approx, details = dwt_channel(x, DB2, 3)
        back = idwt_channel(approx, details, DB2)
        assert np.max(np.abs(back - x)) <= 1e-12
        energy = np.sum(approx**2) + sum(np.sum(d**2) for d in details)
        assert abs(energy - np.sum(x**2)) <= 1e-10 * np.sum(x**2)


def test_dwt_subband_lengths():
    x = np.zeros(64)
    approx, details = dwt_channel(x, HAAR, 4)
    assert len(approx) == 4
    # details come finest first
    assert [len(d) for d in details] == [32, 16, 8, 4]


def test_dwt_guards():
    with pytest.raises(ValueError):
        dwt_channel(np.zeros(48), HAAR, 2)
    with pytest.raises(ValueError):
        dwt_channel(np.zeros(16), HAAR, 5)
    with pytest.raises(ValueError):
        dwt_channel(np.zeros(16), HAAR, -1)
    with pytest.raises(DimensionError):
        dwt_channel(np.zeros((4, 4)), HAAR, 1)


def test_idwt_rejects_empty_subbands():
    with pytest.raises(ValueError, match="empty"):
        idwt_channel(np.zeros(0), [np.zeros(0)], DB2)


def test_dwt2_round_trip_and_energy():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((32, 32))
    approx, shells = dwt2_channel(x, DB2, 3)
    back = idwt2_channel(approx, shells, DB2)
    assert np.max(np.abs(back - x)) <= 1e-12
    energy = np.sum(approx**2) + sum(np.sum(b**2) for sh in shells for b in sh)
    assert abs(energy - np.sum(x**2)) <= 1e-10 * np.sum(x**2)
    assert approx.shape == (4, 4)
    assert shells[0][0].shape == (16, 16)


def test_dwt2_guards():
    with pytest.raises(ValueError):
        dwt2_channel(np.zeros((8, 16)), HAAR, 1)
    with pytest.raises(DimensionError):
        dwt2_channel(np.zeros(8), HAAR, 1)


# Reference periodic steps by modular fancy indexing, independent of the
# kernel: analysis correlates and decimates, synthesis is its transpose.
# Both start from zeros and add the h taps in order, then the g taps.


def _oracle_analyze(x, taps, start, axis):
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    j = np.arange(n // 2)
    acc = np.zeros(x.shape[:-1] + (n // 2,))
    for i, c in enumerate(taps):
        acc += c * x[..., (2 * j + start + i) % n]
    return np.moveaxis(acc, -1, axis)


def _oracle_synthesize(approx, detail, filt, axis):
    approx, detail = np.moveaxis(approx, axis, -1), np.moveaxis(detail, axis, -1)
    half = approx.shape[-1]
    j = np.arange(half)
    out = np.zeros(approx.shape[:-1] + (2 * half,))
    for band, taps, start in ((approx, filt.h, filt.h_start), (detail, filt.g, filt.g_start)):
        for i, c in enumerate(taps):
            # one tap hits distinct output slots, so the fancy += is safe
            out[..., (2 * j + start + i) % (2 * half)] += c * band
    return np.moveaxis(out, -1, axis)


def _with_signed_zeros(rng, shape):
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.2] = -0.0
    flat[rng.random(flat.size) < 0.1] = 0.0
    return x


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert_array_equal(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))


def _assert_step_matches_oracle(x, filt, axis):
    approx, detail = _axis_analyze_step(x, filt, axis)
    _assert_bitwise(approx, _oracle_analyze(x, filt.h, filt.h_start, axis))
    _assert_bitwise(detail, _oracle_analyze(x, filt.g, filt.g_start, axis))
    return approx, detail


@pytest.mark.parametrize("name", ["haar"] + [f"db{k}" for k in range(2, 11)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_step_matches_modular_oracle(name, axis):
    filt = filter_by_name(name)
    rng = np.random.default_rng(7 + axis)
    # every length 2..1024: haar's extension window never wraps, db10's always does
    for n in (2**p for p in range(1, 11)):
        shape = [3, 2, 2]
        shape[axis] = n
        approx, detail = _assert_step_matches_oracle(_with_signed_zeros(rng, shape), filt, axis)
        a, d = _with_signed_zeros(rng, approx.shape), _with_signed_zeros(rng, detail.shape)
        _assert_bitwise(_axis_synthesize_step(a, d, filt, axis), _oracle_synthesize(a, d, filt, axis))
        # all-negative-zero input: zero-start sums give +0.0 everywhere
        z = np.full(shape, -0.0)
        for band in _axis_analyze_step(z, filt, axis):
            _assert_bitwise(band, np.zeros(band.shape))
        zh = z[tuple(slice(0, s // 2 if ax == axis else s) for ax, s in enumerate(shape))]
        _assert_bitwise(_axis_synthesize_step(zh, zh, filt, axis), np.zeros(shape))


@pytest.mark.parametrize("base, h_start, g_start", [
    ("db4", 1, -6), ("db4", 0, -5), ("db4", -3, 2), ("db4", 5, 7),
    # one phase of the window wraps and the other does not
    ("haar", -1, 0), ("haar", 0, -1),
])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_step_phases_for_either_start_parity(base, h_start, g_start, axis):
    src = filter_by_name(base)
    filt = ScalarFilter(f"{base}-shifted", src.h, h_start, src.g, g_start, src.vanishing_moments)
    rng = np.random.default_rng(11 + axis)
    for n in (2, 4, 8, 16, 256):
        shape = [3, 2, 2]
        shape[axis] = n
        _assert_step_matches_oracle(_with_signed_zeros(rng, shape), filt, axis)


@pytest.mark.parametrize("name", ["haar", "db4", "db10"])
def test_step_reads_strided_and_read_only_inputs(name):
    filt = filter_by_name(name)
    rng = np.random.default_rng(5)
    base = _with_signed_zeros(rng, (64, 6, 32))
    views = [
        base.T,  # (32, 6, 64), Fortran-ordered
        base[::-1],  # negative stride along the stepped axis 0
        base[:, ::-2, ::-1],  # negative strides along the other axes
        base[::2, :, 1:17],  # step-2 rows, an offset window of columns
    ]
    readonly = base.copy()
    readonly.flags.writeable = False
    views.append(readonly)
    for x in views:
        before = x.copy()
        for axis in range(x.ndim):
            if x.shape[axis] % 2 == 0:
                _assert_step_matches_oracle(x, filt, axis)
        _assert_bitwise(x, before)


def test_vector_signal_validation():
    sig = VectorSignal(np.ones((3, 8)))
    assert (sig.m, sig.d, sig.n) == (3, 1, 8)
    assert sig.energy() == 24.0
    with pytest.raises(ValueError):
        VectorSignal(np.ones((2, 12)))
    with pytest.raises(ValueError):
        VectorSignal(np.ones((2, 8, 4)))
    with pytest.raises(DimensionError):
        VectorSignal(np.ones(8))
    with pytest.raises(DimensionError):
        VectorSignal(np.ones((2,) + (2,) * 7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_signal_rejects_non_finite(bad):
    values = np.ones((2, 16, 16))
    values[1, 3, 5] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        VectorSignal(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_signal_bytes_rejects_non_finite(bad):
    values = np.ones((2, 16))
    values[0, 7] = bad
    blob = b"VWAV1 d=1 m=2 n=16 dtype=f64le\n" + values.astype("<f8").tobytes()
    with pytest.raises(FileFormatError, match="NaN or infinite"):
        signal_from_bytes(blob)


def _with_band(dec, i, **changes):
    return replace(dec, bands=dec.bands[:i] + (replace(dec.bands[i], **changes),) + dec.bands[i + 1:])


def _with_scale(dec, i, scale):
    # column 0 of band i keeps its length and takes another scale on axis 0
    (kind, _, length), *rest = dec.bands[i].cols[0]
    cols = (((kind, scale, length), *rest),) + dec.bands[i].cols[1:]
    return _with_band(dec, i, cols=cols)


def _resized(dec, i, grow):
    values = dec.bands[i].values
    if grow:
        out = np.zeros(values.shape[:2] + tuple(2 * k for k in values.shape[2:]))
        out[(slice(None), slice(None)) + tuple(slice(0, k) for k in values.shape[2:])] = values
    else:
        out = values[..., :-1]
    return _with_band(dec, i, values=out)


# mutations of haar d=2 m=2 n=16 at one level, whose band 1 is base-b1
# and band 2 is w-e01-t0-b0
_LAYOUT_MUTATIONS = {
    "missing-band": lambda dec: replace(dec, bands=dec.bands[:-1]),
    "extra-band": lambda dec: replace(dec, bands=dec.bands + dec.bands[-1:]),
    "swapped-bands": lambda dec: replace(dec, bands=(dec.bands[0], dec.bands[2], dec.bands[1]) + dec.bands[3:]),
    "changed-key": lambda dec: _with_band(dec, 2, key="w-e01-t0-b1"),
    "changed-eps": lambda dec: _with_band(dec, 2, eps=(1, 1)),
    "changed-level": lambda dec: _with_band(dec, 2, level=1),
    "changed-block": lambda dec: _with_band(dec, 2, block=1),
    # four translates hold scales 0..2, and 2**scale is never formed
    "column-scale--1": lambda dec: _with_scale(dec, 2, -1),
    "column-scale-3": lambda dec: _with_scale(dec, 2, 3),
    "column-scale-10**12": lambda dec: _with_scale(dec, 2, 10**12),
    "four-translate-axes": lambda dec: _with_band(dec, 2, values=dec.bands[2].values[..., None, None]),
    # zero-padded: synthesis read only its leading slots, and the encoder
    # wrote a .vdec its decoder refused
    "oversized-band": lambda dec: _resized(dec, 1, True),
    "undersized-band": lambda dec: _resized(dec, 1, False),
    "levels-0": lambda dec: replace(dec, levels=0),
    "levels-2": lambda dec: replace(dec, levels=2),
    "levels-10**9": lambda dec: replace(dec, levels=10**9),
    "partition-of-d1": lambda dec: replace(dec, partition=cyclic_partition(1, 2)),
    "partition-of-m3": lambda dec: replace(dec, partition=cyclic_partition(2, 3)),
    "swapped-partition-blocks": lambda dec: replace(
        dec, partition=replace(dec.partition, blocks=dec.partition.blocks[::-1])
    ),
    "d-4": lambda dec: replace(dec, d=4),
    "n-32": lambda dec: replace(dec, n=32),
    "filter-name-with-a-space": lambda dec: replace(dec, filter_name="my haar"),
    "non-ascii-filter-name": lambda dec: replace(dec, filter_name="ha\u00e4r"),
}


@pytest.mark.parametrize("name", list(_LAYOUT_MUTATIONS))
def test_a_decomposition_off_its_layout_cannot_be_built(name):
    dec = analyze_vector(VectorSignal(np.ones((2, 16, 16))), build_basis_nd(HAAR, 2, 2), 1)
    assert [band.key for band in dec.bands[1:3]] == ["base-b1", "w-e01-t0-b0"]
    replace(dec)
    with pytest.raises(CorruptionError):
        _LAYOUT_MUTATIONS[name](dec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_rejects_non_finite(bad):
    dec = analyze_vector(VectorSignal(np.ones((2, 16))), build_vector_basis(DB2, 2), 1)
    band = dec.bands[-1]
    values = np.array(band.values)
    values[0, 1, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        replace(band, values=values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decomposition_bytes_rejects_non_finite(bad):
    dec = analyze_vector(VectorSignal(np.ones((2, 16, 16))), build_basis_nd(DB2, 2, 2), 1)
    blob = bytearray(decomposition_to_bytes(dec))
    # overwrite the last payload value, a slot of the last band
    blob[-8:] = np.array([bad], dtype="<f8").tobytes()
    with pytest.raises(FileFormatError, match="NaN or infinite"):
        decomposition_from_bytes(bytes(blob))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_vector_basis_over_a_non_orthonormal_filter_is_refused(m):
    # haar with h and g scaled by 1.01 does not refine; a VectorBasis1D
    # over it gets the checks of build_basis_nd, in both directions
    bad = ScalarFilter("haar-scaled", HAAR.h * 1.01, HAAR.h_start, HAAR.g * 1.01, HAAR.g_start, 1)
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        build_basis_nd(bad, 1, m)
    basis = build_vector_basis(bad, m)
    sig = VectorSignal(np.random.default_rng(4).standard_normal((m, 64)))
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        analyze_vector(sig, basis, 1)
    dec = analyze_vector(sig, build_vector_basis(HAAR, m), 1)
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        synthesize_vector(dec, basis)


def test_analyze_zero_signal():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.zeros((2, 32))), basis, 2)
    for band in dec.bands:
        assert not np.any(band.values)


def test_analyze_haar_identity_matrix_example():
    # channels aligned with the two coarsest-cell generators produce a
    # single nonzero base matrix equal to 2^(3/2) I
    sig = VectorSignal(np.array([[1.0] * 8, [1, 1, 1, 1, -1, -1, -1, -1]]))
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(sig, basis, 1)
    base = dec.band("base-b0")
    assert_allclose(base.values[:, :, 0], 2.0**1.5 * np.eye(2), atol=1e-12)
    assert_allclose(dec.band("w-e1-t0-b0").values, 0.0, atol=1e-12)


def test_census_counts():
    cases = [
        (build_vector_basis(HAAR, 3), (3, 64), 1),
        (build_basis_nd(HAAR, 2, 2), (2, 32, 32), 1),
        (build_basis_nd(DB2, 2, 3), (3, 64, 64), 1),
    ]
    for basis, shape, levels in cases:
        sig = VectorSignal(np.zeros(shape))
        dec = analyze_vector(sig, basis, levels)
        m, n = shape[0], shape[1]
        assert dec.census() == m * n ** (len(shape) - 1)


def test_round_trip_grid_1d():
    rng = np.random.default_rng(2)
    for name in ("haar", "db2", "db3", "db4"):
        filt = filter_by_name(name)
        for m, levels in ((1, 4), (2, 2), (3, 2)):
            basis = build_vector_basis(filt, m)
            sig = VectorSignal(rng.standard_normal((m, 256)))
            dec = analyze_vector(sig, basis, levels)
            rec = synthesize_vector(dec, basis)
            scale = np.max(np.abs(sig.values))
            assert np.max(np.abs(rec.values - sig.values)) <= 1e-10 * scale
            assert abs(dec.energy() - sig.energy()) <= 1e-10 * sig.energy()
            assert dec.census() == m * 256


def test_round_trip_grid_2d():
    rng = np.random.default_rng(3)
    for name in ("haar", "db2", "db3", "db4"):
        filt = filter_by_name(name)
        for m, levels in ((1, 3), (2, 1), (3, 1)):
            basis = build_basis_nd(filt, 2, m)
            sig = VectorSignal(rng.standard_normal((m, 64, 64)))
            dec = analyze_vector(sig, basis, levels)
            rec = synthesize_vector(dec, basis)
            scale = np.max(np.abs(sig.values))
            assert np.max(np.abs(rec.values - sig.values)) <= 1e-10 * scale
            assert abs(dec.energy() - sig.energy()) <= 1e-10 * sig.energy()
            assert dec.census() == m * 64**2


def test_round_trip_grid_3d():
    rng = np.random.default_rng(13)
    for name in ("haar", "db2", "db4"):
        filt = filter_by_name(name)
        for m, levels in ((1, 3), (2, 2), (3, 1)):
            basis = build_basis_nd(filt, 3, m)
            sig = VectorSignal(rng.standard_normal((m, 32, 32, 32)))
            dec = analyze_vector(sig, basis, levels)
            rec = synthesize_vector(dec, basis)
            scale = np.max(np.abs(sig.values))
            assert np.max(np.abs(rec.values - sig.values)) <= 1e-10 * scale
            assert abs(dec.energy() - sig.energy()) <= 1e-10 * sig.energy()
            assert dec.census() == m * 32**3


def test_m1_reduces_bitwise_to_scalar_dwt_1d():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64)
    dec = analyze_vector(VectorSignal(x[None, :]), build_vector_basis(DB2, 1), 4)
    approx, details = dwt_channel(x, DB2, 4)
    assert_array_equal(dec.band("base-b0").values[0, 0], approx)
    for t in range(4):
        # vector level t holds the (t+1)-th coarsest detail band
        assert_array_equal(dec.band(f"w-e1-t{t}-b0").values[0, 0], details[3 - t])


def test_m1_reduces_bitwise_to_scalar_dwt_2d():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 16))
    dec = analyze_vector(VectorSignal(x[None, :, :]), build_basis_nd(DB2, 2, 1), 3)
    approx, shells = dwt2_channel(x, DB2, 3)
    assert_array_equal(dec.band("base-b0").values[0, 0], approx)
    for t in range(3):
        d_xa, d_ay, d_xy = shells[2 - t]
        assert_array_equal(dec.band(f"w-e01-t{t}-b0").values[0, 0], d_ay)
        assert_array_equal(dec.band(f"w-e10-t{t}-b0").values[0, 0], d_xa)
        assert_array_equal(dec.band(f"w-e11-t{t}-b0").values[0, 0], d_xy)


def _scalar_pyramid_3d(x, filt, levels):
    # per level: one step along x, then y, then z, on every block
    a, shells = x, []
    for _ in range(levels):
        blocks = {(): a}
        for axis in range(3):
            blocks = {
                bits + (b,): sub
                for bits, block in blocks.items()
                for b, sub in enumerate(_axis_analyze_step(block, filt, axis))
            }
        a = blocks.pop((0, 0, 0))
        shells.append(blocks)
    return a, shells


def test_m1_reduces_bitwise_to_scalar_dwt_3d():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((16, 16, 16))
    x[x > 1.5] = -0.0
    dec = analyze_vector(VectorSignal(x[None]), build_basis_nd(DB2, 3, 1), 3)
    approx, shells = _scalar_pyramid_3d(x, DB2, 3)
    _assert_bitwise(dec.band("base-b0").values[0, 0], approx)
    for t in range(3):
        blocks = shells[2 - t]
        assert len(blocks) == 7
        for eps, block in blocks.items():
            bits = "".join(str(b) for b in eps)
            _assert_bitwise(dec.band(f"w-e{bits}-t{t}-b0").values[0, 0], block)


def test_levels_zero_is_base_only():
    rng = np.random.default_rng(6)
    for basis, shape in (
        (build_vector_basis(HAAR, 2), (2, 16)),
        (build_basis_nd(HAAR, 2, 2), (2, 16, 16)),
    ):
        sig = VectorSignal(rng.standard_normal(shape))
        dec = analyze_vector(sig, basis, 0)
        assert all(band.level == -1 for band in dec.bands)
        rec = synthesize_vector(dec, basis)
        assert np.max(np.abs(rec.values - sig.values)) <= 1e-12


def test_analyze_guards():
    basis = build_vector_basis(HAAR, 2)
    sig = VectorSignal(np.zeros((2, 16)))
    with pytest.raises(ValueError):
        analyze_vector(sig, basis, -1)
    with pytest.raises(ResolutionError):
        analyze_vector(sig, basis, 2)  # depth 5 > log2(16)
    with pytest.raises(DimensionError):
        analyze_vector(VectorSignal(np.zeros((3, 16))), basis, 1)
    with pytest.raises(DimensionError):
        analyze_vector(VectorSignal(np.zeros((2, 16, 16))), basis, 1)
    with pytest.raises(DimensionError):
        analyze_vector(sig, build_basis_nd(HAAR, 2, 2), 1)
    with pytest.raises(TypeError):
        analyze_vector(sig, HAAR, 1)


def test_heads_equal_to_the_layout_encode_its_manifest():
    # bools and floats equal to the layout's integers pass the layout
    # check, and the manifest writes them as the integers the decoder reads
    dec = analyze_vector(VectorSignal(np.ones((2, 16, 16))), build_basis_nd(HAAR, 2, 2), 1)
    band = dec.bands[2]
    other = replace(_with_band(dec, 2, eps=tuple(map(bool, band.eps)), level=float(band.level)), levels=True)
    assert decomposition_to_bytes(other) == decomposition_to_bytes(dec)


def test_synthesize_validation():
    sig = VectorSignal(np.zeros((2, 16, 16)))
    basis = build_basis_nd(HAAR, 2, 2)
    dec = analyze_vector(sig, basis, 1)
    with pytest.raises(ValueError):
        synthesize_vector(dec, build_basis_nd(DB2, 2, 2))
    swapped = build_basis_nd(HAAR, 2, 2, replace(basis.partition, blocks=basis.partition.blocks[::-1]))
    with pytest.raises(ValueError):
        synthesize_vector(analyze_vector(sig, swapped, 1), basis)
    assert synthesize_vector(dec, basis).n == 16


def test_masked_slot_corruption_detected():
    rng = np.random.default_rng(7)
    basis = build_basis_nd(HAAR, 2, 2)
    dec = analyze_vector(VectorSignal(rng.standard_normal((2, 32, 32))), basis, 1)
    band = dec.band("w-e01-t0-b0")
    values = np.array(band.values)
    values[0, 0, 0, band.col_lengths(0)[1]] = 0.5  # just past the column-0 mask
    bands = tuple(replace(b, values=values) if b.key == band.key else b for b in dec.bands)
    with pytest.raises(CorruptionError):
        synthesize_vector(replace(dec, bands=bands), basis)


def _two_count_accepts(band):
    """The former rule: a column holds as many nonzeros as its valid slots do."""
    for rho, col in enumerate(band.cols):
        full = band.values[:, rho]
        valid = full[(slice(None),) + tuple(slice(0, length) for _, _, length in col)]
        if np.count_nonzero(full) != np.count_nonzero(valid):
            return False
    return True


def _unpack_refusal(band):
    """The CorruptionError text synthesis gives for `band`, or None if it unpacks."""
    try:
        _unpack_bands((band,))
    except CorruptionError as exc:
        return str(exc)
    return None


def _masked_slots(band, rho):
    """Two slots of each class of masked slots of column rho.

    A class is the nonempty set of axes on which the slot lies past the
    column's length: each axis alone, every pair, and the corner past every
    axis.  Each class gets the slot nearest the valid block and the one
    farthest from it.
    """
    lengths = band.col_lengths(rho)
    sizes = band.values.shape[2:]
    d = len(sizes)
    for bits in range(1, 2**d):
        past = [(bits >> ax) & 1 for ax in range(d)]
        if any(p and length == size for p, length, size in zip(past, lengths, sizes)):
            continue
        near = tuple(length if p else length - 1 for p, length in zip(past, lengths))
        far = tuple(size - 1 if p else 0 for p, size in zip(past, sizes))
        yield tuple(past), near
        yield tuple(past), far


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("name", ("haar", "db4"))
def test_masked_slot_check_matches_the_two_count_rule(name, d, m):
    # one vector level: the smallest grid is 2 ** (2m - 1) per axis
    n = 2 ** (2 * m - 1)
    basis = build_basis_nd(filter_by_name(name), d, m)
    dec = analyze_vector(VectorSignal(np.random.default_rng(14).standard_normal((m,) + (n,) * d)), basis, 1)
    classes = set()
    for band in dec.bands:
        assert _unpack_refusal(band) is None and _two_count_accepts(band)
        for rho in range(m):
            row = (m - 1 - rho) % m
            for past, slot in _masked_slots(band, rho):
                for value, verdict in ((0.5, False), (-0.0, True)):
                    values = np.array(band.values)
                    values[(row, rho) + slot] = value
                    bad = replace(band, values=values)
                    assert _two_count_accepts(bad) is verdict, (band.key, rho, slot)
                    refusal = None if verdict else f"nonzero coefficient in a masked slot of {band.key} column {rho}"
                    assert _unpack_refusal(bad) == refusal, (band.key, rho, slot)
                classes.add(past)
            # a valid slot may hold anything
            values = np.array(band.values)
            values[(row, rho) + tuple(length - 1 for length in band.col_lengths(rho))] = 0.5
            assert _unpack_refusal(replace(band, values=values)) is None
    if m > 1:
        # every axis's slab and the corner past every axis were corrupted
        assert {tuple(int(ax == i) for ax in range(d)) for i in range(d)} <= classes
        assert (1,) * d in classes
    else:
        assert not classes


def test_missing_band_corruption_detected():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.ones((2, 16))), basis, 1)
    with pytest.raises(CorruptionError):
        synthesize_vector(replace(dec, bands=dec.bands[:-1]), basis)
    # a level count that does not fit the bands, or not even the grid
    with pytest.raises(CorruptionError, match="depart from the layout"):
        synthesize_vector(replace(dec, levels=0), basis)
    for levels in (2, 10**9):
        with pytest.raises(CorruptionError, match="exceed log2"):
            synthesize_vector(replace(dec, levels=levels), basis)


def test_all_zero_decomposition_synthesizes_zero():
    basis = build_basis_nd(HAAR, 2, 2)
    dec = analyze_vector(VectorSignal(np.random.default_rng(8).standard_normal((2, 16, 16))), basis, 1)
    zeroed = replace(dec, bands=tuple(replace(b, values=np.zeros_like(b.values)) for b in dec.bands))
    rec = synthesize_vector(zeroed, basis)
    assert not np.any(rec.values)


def test_threshold_tau_zero_is_identity():
    rng = np.random.default_rng(9)
    basis = build_vector_basis(DB2, 2)
    dec = analyze_vector(VectorSignal(rng.standard_normal((2, 64))), basis, 2)
    same = threshold_matrix(dec, 0.0)
    for a, b in zip(dec.bands, same.bands):
        assert_array_equal(a.values, b.values)


def test_threshold_tau_inf_keeps_approx_only():
    rng = np.random.default_rng(10)
    for basis, shape in (
        (build_vector_basis(HAAR, 2), (2, 32)),
        (build_basis_nd(HAAR, 2, 3), (3, 32, 32)),
    ):
        dec = analyze_vector(VectorSignal(rng.standard_normal(shape)), basis, 1)
        out = threshold_matrix(dec, np.inf)
        for band in out.bands:
            src = dec.band(band.key)
            for r, col in enumerate(band.cols):
                if all(kind == "approx" for kind, _, _ in col):
                    assert_array_equal(band.values[:, r], src.values[:, r])
                else:
                    assert not np.any(band.values[:, r])


def test_threshold_nan_or_negative_is_refused():
    # norms < tau is never true for these, so each would keep every coefficient
    dec = analyze_vector(VectorSignal(np.random.default_rng(12).standard_normal((2, 32))), build_vector_basis(HAAR, 2), 1)
    for tau in (np.nan, float("nan"), "nan", -1.0, -np.inf):
        with pytest.raises(ValueError, match="NaN or negative"):
            threshold_matrix(dec, tau)
    # -0.0 is not below zero, and acts as 0
    assert decomposition_to_bytes(threshold_matrix(dec, -0.0)) == decomposition_to_bytes(dec)


def test_threshold_zeroes_exactly_one_of_two_matrices():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.zeros((2, 16))), basis, 1)
    band = dec.band("w-e1-t0-b0")
    values = np.array(band.values)
    values[0, 0, 0] = 1.0  # matrix at k=0, frobenius norm 1
    values[0, 0, 1] = 3.0  # matrix at k=1, frobenius norm 3
    crafted = replace(dec, bands=tuple(replace(b, values=values) if b.key == band.key else b for b in dec.bands))
    out = threshold_matrix(crafted, 2.0)
    kept = out.band("w-e1-t0-b0").values
    assert kept[0, 0, 0] == 0.0
    assert kept[0, 0, 1] == 3.0


def test_threshold_norm_choice_matters():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.zeros((2, 16))), basis, 1)
    band = dec.band("w-e1-t0-b0")
    values = np.array(band.values)
    values[0, 0, 0] = 3.0
    values[1, 1, 0] = -4.0  # frobenius 5, max abs column sum 4
    crafted = replace(dec, bands=tuple(replace(b, values=values) if b.key == band.key else b for b in dec.bands))
    assert np.any(threshold_matrix(crafted, 4.5, norm="frobenius").band(band.key).values)
    assert not np.any(threshold_matrix(crafted, 4.5, norm="norm1").band(band.key).values)
    with pytest.raises(ValueError):
        threshold_matrix(dec, 1.0, norm="spectral")


def test_base_detail_columns_thresholded_independently():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.ones((2, 16))), basis, 1)
    out = threshold_matrix(dec, np.inf)
    base = out.band("base-b0")
    assert_array_equal(base.values[:, 0], dec.band("base-b0").values[:, 0])
    assert not np.any(base.values[:, 1])


def _threshold_reference(dec, tau, norm):
    # The form before the single product: a copy, a fancy-indexed copy, the
    # product, and the band's own copy.
    bands = []
    for band in dec.bands:
        if band.level >= 0:
            col_idx = list(range(band.m))
        else:
            col_idx = [r for r, col in enumerate(band.cols) if any(kind == "detail" for kind, _, _ in col)]
        if not col_idx:
            bands.append(band)
            continue
        values = np.array(band.values)
        sub = values[:, col_idx]
        if norm == "frobenius":
            norms = np.sqrt(np.sum(sub**2, axis=(0, 1)))
        else:
            norms = np.max(np.sum(np.abs(sub), axis=0), axis=0)
        values[:, col_idx] = sub * np.where(norms < tau, 0.0, 1.0)
        bands.append(replace(band, values=values))
    return replace(dec, bands=tuple(bands))


def _encode_reference(dec):
    payload = b"".join(band.values.astype("<f8").tobytes() for band in dec.bands)
    return decomposition_manifest(dec).encode("ascii") + payload


def test_threshold_and_encoder_match_copying_forms_bytewise():
    rng = np.random.default_rng(12)
    for basis, shape, levels in (
        (build_vector_basis(DB2, 3), (3, 512), 2),
        (build_basis_nd(HAAR, 2, 3), (3, 64, 64), 1),
        (build_basis_nd(DB2, 2, 2), (2, 32, 32), 1),
    ):
        dec = analyze_vector(VectorSignal(_with_signed_zeros(rng, shape)), basis, levels)
        before = [band.values.tobytes() for band in dec.bands]
        assert decomposition_to_bytes(dec) == _encode_reference(dec)
        for norm in ("frobenius", "norm1"):
            for tau in (0.0, 0.25, 1.0, np.inf):
                got = decomposition_to_bytes(threshold_matrix(dec, tau, norm))
                assert got == _encode_reference(_threshold_reference(dec, tau, norm))
        # the input decomposition is never written through
        assert [band.values.tobytes() for band in dec.bands] == before


def test_synthesis_hands_over_its_own_read_only_result():
    rng = np.random.default_rng(16)
    for basis, shape, levels in (
        (build_vector_basis(DB2, 2), (2, 64), 2),
        (build_basis_nd(HAAR, 2, 3), (3, 32, 32), 1),
        (build_basis_nd(HAAR, 1, 1), (1, 16), 2),
    ):
        dec = analyze_vector(VectorSignal(rng.standard_normal(shape)), basis, levels)
        values = synthesize_vector(dec, basis).values
        assert values.flags.owndata and not values.flags.writeable
        assert values.dtype == np.float64 and values.shape == shape


def test_synthesis_without_steps_copies_band_storage():
    # m = 1, levels = 0 runs no scalar step: the result is a view of the base band
    basis = build_basis_nd(HAAR, 2, 1)
    x = np.random.default_rng(17).standard_normal((1, 8, 8))
    dec = analyze_vector(VectorSignal(x), basis, 0)
    rec = synthesize_vector(dec, basis)
    assert rec.values.flags.owndata and not rec.values.flags.writeable
    assert not any(np.shares_memory(rec.values, band.values) for band in dec.bands)
    assert_array_equal(rec.values, x)


# per value type: a constructor from one values array, the arrays the
# value stores, and a shape it accepts
_VALUE_TYPES = {
    "ScalarFilter": (lambda v: ScalarFilter("t", v, 0, v, 0, 1), lambda f: [f.h, f.g], (4,)),
    "SampledFunction": (lambda v: SampledFunction(0, 2, v), lambda f: [f.values], (4,)),
    "MatrixM": (MatrixM, lambda a: [a.entries], (2, 2)),
    "VectorSampledFunction": (lambda v: VectorSampledFunction((0,), 2, v), lambda f: [f.values], (2, 4)),
    "MatrixFilter": (lambda v: MatrixFilter(v, 0, 4), lambda f: [f.taps], (3, 2, 2)),
    "VectorSignal": (VectorSignal, lambda s: [s.values], (2, 8)),
    "Band": (lambda v: Band("w", (1,), 0, 0, ((("detail", 0, 1),),), v), lambda b: [b.values], (1, 1, 1)),
    "VectorDecomposition": (
        lambda v: VectorDecomposition(
            1, 1, 1, 0, "t", cyclic_partition(1, 1), (Band("base-b0", (0,), -1, 0, ((("approx", 0, 1),),), v),)
        ),
        lambda dec: [dec.bands[0].values],
        (1, 1, 1),
    ),
}


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_value_types_keep_frozen_owned_arrays_and_copy_others(name):
    make, stored, shape = _VALUE_TYPES[name]
    # kept: a read-only float64 array that owns its memory, and a view of immutable bytes
    frozen = np.ones(shape)
    frozen.flags.writeable = False
    bytes_view = np.frombuffer(np.ones(shape).tobytes()).reshape(shape)
    for arg in (frozen, bytes_view):
        arrays = stored(make(arg))
        assert all(a is arg for a in arrays)

    # copied: a writable array, views of another array, float32, a list
    live = np.ones(shape)
    base = np.ones(shape + (2,))
    readonly_view = base[..., 0]
    readonly_view.flags.writeable = False
    float32 = np.ones(shape, dtype=np.float32)
    float32.flags.writeable = False
    for arg in (live, base[..., 1], readonly_view, float32, np.ones(shape).tolist()):
        arrays = stored(make(arg))
        # the caller's array stays as it was, writable or not
        assert live.flags.writeable and base.flags.writeable
        assert all(a.flags.owndata and a.dtype == np.float64 for a in arrays)
        assert not any(np.shares_memory(a, b) for a in arrays for b in (live, base))
        live[...] = 5.0
        base[...] = 5.0
        for a in arrays:
            assert_array_equal(a, np.ones(shape))
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 2.0
        live[...] = 1.0
        base[...] = 1.0


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_value_types_compare_and_hash_by_identity(name):
    make, _, shape = _VALUE_TYPES[name]
    value = make(np.ones(shape))
    assert value == value
    assert value != copy.copy(value)
    assert hash(value) == hash(value)


def _bytes_view(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.uint8)


def test_decoders_view_immutable_bytes_read_only():
    rng = np.random.default_rng(30)
    basis = build_basis_nd(DB2, 2, 2)
    sig = VectorSignal(rng.standard_normal((2, 32, 32)))
    dec = analyze_vector(sig, basis, 1)
    vdec, vwav = decomposition_to_bytes(dec), signal_to_bytes(sig)
    decoded = [(band.values, vdec) for band in decomposition_from_bytes(vdec).bands]
    decoded.append((signal_from_bytes(vwav).values, vwav))
    for values, blob in decoded:
        assert np.shares_memory(values, _bytes_view(blob))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values.flags.writeable = True
    # with no scalar step synthesis hands over a view of the base band,
    # which stays a view of the file when the band is one
    basis1 = build_basis_nd(HAAR, 2, 1)
    blob = decomposition_to_bytes(analyze_vector(VectorSignal(rng.standard_normal((1, 8, 8))), basis1, 0))
    rec = synthesize_vector(decomposition_from_bytes(blob), basis1)
    assert np.shares_memory(rec.values, _bytes_view(blob)) and not rec.values.flags.writeable


def test_decoders_copy_writable_buffers():
    rng = np.random.default_rng(31)
    basis = build_basis_nd(DB2, 2, 2)
    sig = VectorSignal(rng.standard_normal((2, 32, 32)))
    dec = analyze_vector(sig, basis, 1)
    vdec, vwav = decomposition_to_bytes(dec), signal_to_bytes(sig)
    # (decoder, its argument, the bytearray under it); a read-only
    # memoryview of a bytearray is copied too, since the bytearray can change
    cases = []
    for decode, blob in ((signal_from_bytes, vwav), (decomposition_from_bytes, vdec)):
        buf = bytearray(blob)
        cases.append((decode, buf, buf))
    for wrap in (memoryview, lambda b: memoryview(b).toreadonly()):
        for decode, blob in ((signal_from_bytes, vwav), (decomposition_from_bytes, vdec)):
            buf = bytearray(blob)
            cases.append((decode, wrap(buf), buf))
    for decode, arg, buf in cases:
        got = decode(arg)
        arrays = [got.values] if decode is signal_from_bytes else [band.values for band in got.bands]
        before = [a.copy() for a in arrays]
        assert all(a.flags.owndata and not a.flags.writeable for a in arrays)
        # overwrite every payload byte
        tail = sum(a.nbytes for a in arrays)
        buf[len(buf) - tail:] = np.full(tail // 8, 7.0).tobytes()
        for a, b in zip(arrays, before):
            assert_array_equal(a, b)


def test_encoders_hand_over_band_buffers_uncopied():
    rng = np.random.default_rng(32)
    basis = build_basis_nd(HAAR, 2, 3)
    sig = VectorSignal(rng.standard_normal((3, 64, 64)))
    dec = analyze_vector(sig, basis, 1)
    chunks = _decomposition_chunks(dec)
    assert b"".join(chunks) == decomposition_to_bytes(dec) == _encode_reference(dec)
    assert len(chunks) == 1 + len(dec.bands)
    assert all(np.shares_memory(chunk, band.values) for chunk, band in zip(chunks[1:], dec.bands))
    header, payload = _signal_chunks(sig)
    assert header + payload.tobytes() == signal_to_bytes(sig)
    assert np.shares_memory(payload, sig.values)


@pytest.mark.parametrize("name", ["haar", "db4", "db10"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_synthesis_of_misaligned_byte_views_matches_aligned_arrays(name, d):
    # a .vdec's bands start at len(manifest) mod 8 in the file's bytes; lay
    # the same payload after 0..7 pad bytes, so the band views sit at every
    # offset mod 8, and require the bits of synthesis from aligned arrays
    basis = build_basis_nd(filter_by_name(name), d, 2)
    n = {1: 64, 2: 16, 3: 8}[d]
    x = _with_signed_zeros(np.random.default_rng(33 + d), (2,) + (n,) * d)
    dec = analyze_vector(VectorSignal(x), basis, 1)
    want = synthesize_vector(dec, basis).values
    _assert_bitwise(synthesize_vector(decomposition_from_bytes(decomposition_to_bytes(dec)), basis).values, want)
    payload = b"".join(band.values.tobytes() for band in dec.bands)
    residues = set()
    for pad in range(8):
        blob = bytes(pad) + payload
        bands, offset = [], pad
        for band in dec.bands:
            view = np.frombuffer(blob, dtype="<f8", count=band.values.size, offset=offset).reshape(band.values.shape)
            offset += view.nbytes
            bands.append(replace(band, values=view))
            assert bands[-1].values is view
            residues.add(view.ctypes.data % 8)
        _assert_bitwise(synthesize_vector(replace(dec, bands=tuple(bands)), basis).values, want)
    assert residues == set(range(8))


def _traced_peak(decode, blob) -> int:
    decode(blob)
    tracemalloc.start()
    try:
        decode(blob)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decoders_allocate_no_copy_of_the_payload():
    # haar d=2 m=3 256^2, two levels: a 4.50 MB .vdec and a 1.57 MB .vwav.
    # Copying decoders peaked at 4.67 MB and 1.77 MB; the views peak at
    # 0.24 MB (one band's finiteness mask) and under 0.01 MB
    basis = build_basis_nd(HAAR, 2, 3)
    sig = VectorSignal(np.random.default_rng(34).standard_normal((3, 256, 256)))
    vdec = decomposition_to_bytes(analyze_vector(sig, basis, 2))
    vwav = signal_to_bytes(sig)
    assert _traced_peak(decomposition_from_bytes, vdec) < 0.1 * len(vdec)
    assert _traced_peak(signal_from_bytes, vwav) < 0.1 * len(vwav)


def test_signal_bytes_round_trip():
    rng = np.random.default_rng(11)
    for shape in ((2, 32), (3, 16, 16)):
        sig = VectorSignal(rng.standard_normal(shape))
        blob = signal_to_bytes(sig)
        d = len(shape) - 1
        assert blob.startswith(f"VWAV1 d={d} m={shape[0]} n={shape[1]} dtype=f64le\n".encode())
        back = signal_from_bytes(blob)
        assert_array_equal(back.values, sig.values)


def test_signal_bytes_rejects_garbage():
    for blob in (
        b"",
        b"VWAV1 d=7 m=2 n=2 dtype=f64le\n" + b"\0" * 2048,
        b"VWAV1 d=1 m=2 n=7 dtype=f64le\n" + b"\0" * 112,
        b"VWAV1 d=1 m=2 n=8 dtype=f64le\n" + b"\0" * 100,
        b"VWAV2 d=1 m=2 n=8 dtype=f64le\n" + b"\0" * 128,
        b"VWAV1 d=1 m=" + b"9" * 5000 + b" n=8 dtype=f64le\n",
    ):
        with pytest.raises(FileFormatError):
            signal_from_bytes(blob)


def test_seven_space_axes_are_refused_everywhere():
    # build's d <= 6 is the one cap: signals, decompositions and both
    # decoders take six space axes and refuse a seventh
    assert VectorSignal(np.ones((1,) + (2,) * 6)).d == 6
    with pytest.raises(DimensionError, match="1 to 6 space axes"):
        VectorSignal(np.ones((1,) + (2,) * 7))
    with pytest.raises(FileFormatError, match="invalid signal geometry d=7"):
        signal_from_bytes(b"VWAV1 d=7 m=1 n=2 dtype=f64le\n" + bytes(8 * 2**7))
    with pytest.raises(FileFormatError, match="invalid geometry d=7"):
        decomposition_from_bytes(b"VDEC1 d=7 m=1 n=2 levels=0 filter=haar bands=1\npartition=1,1,1,1,1,1,1\nend\n")
    with pytest.raises(CorruptionError, match="invalid geometry d=7"):
        VectorDecomposition(7, 1, 2, 0, "haar", cyclic_partition(7, 1), ())


def test_decomposition_bytes_round_trip():
    rng = np.random.default_rng(12)
    basis = build_basis_nd(DB2, 2, 2)
    sig = VectorSignal(rng.standard_normal((2, 32, 32)))
    dec = analyze_vector(sig, basis, 1)
    back = decomposition_from_bytes(decomposition_to_bytes(dec))
    assert (back.d, back.m, back.n, back.levels, back.filter_name) == (2, 2, 32, 1, "db2")
    assert back.partition.blocks == dec.partition.blocks
    for a, b in zip(dec.bands, back.bands):
        assert a.key == b.key and a.cols == b.cols and a.eps == b.eps
        assert_array_equal(a.values, b.values)
    rec = synthesize_vector(back, basis)
    assert np.max(np.abs(rec.values - sig.values)) <= 1e-10


def test_decomposition_bytes_rejects_garbage():
    basis = build_basis_nd(HAAR, 2, 2)
    dec = analyze_vector(VectorSignal(np.ones((2, 16, 16))), basis, 1)
    blob = decomposition_to_bytes(dec)
    mutations = (
        blob[:40],
        blob.replace(b"VDEC1", b"VDEC9", 1),
        blob + b"\0" * 8,
        blob.replace(b"partition=1,1;2,2/1,2;2,1", b"partition=1,1;2,2/1,2;2,2", 1),
        blob.replace(b"bands=8", b"bands=7", 1),
        blob.replace(b"VDEC1 d=2", b"VDEC1 d=4", 1),
        blob.replace(b"levels=1", b"levels=" + b"1" * 5000, 1),
    )
    for mut in mutations:
        with pytest.raises((FileFormatError, CorruptionError)):
            decomposition_from_bytes(mut)


def test_manifest_golden_1d():
    basis = build_vector_basis(HAAR, 2)
    dec = analyze_vector(VectorSignal(np.zeros((2, 8))), basis, 1)
    assert decomposition_manifest(dec) == (
        "VDEC1 d=1 m=2 n=8 levels=1 filter=haar bands=2\n"
        "partition=1;2\n"
        "base-b0,0,-1,0,approx:0:1;detail:0:1\n"
        "w-e1-t0-b0,1,0,0,detail:1:2;detail:2:4\n"
        "end\n"
    )


def test_regrouping_bijection_1d():
    # every scalar pyramid subband appears in the manifest exactly once
    basis = build_vector_basis(HAAR, 3)
    dec = analyze_vector(VectorSignal(np.zeros((3, 256))), basis, 2)
    seen = []
    for band in dec.bands:
        for col in band.cols:
            seen.append(col[0])
    smax, depth = 8, 3 * 2 + 2
    expected = [("approx", smax - depth, 2 ** (smax - depth))]
    expected += [("detail", s, 2**s) for s in range(smax - depth, smax)]
    assert sorted(seen) == sorted(expected)
    assert dec.census() == 3 * 256


def test_regrouping_bijection_2d():
    basis = build_basis_nd(HAAR, 2, 3)
    dec = analyze_vector(VectorSignal(np.zeros((3, 64, 64))), basis, 1)
    pairs = [col for band in dec.bands for col in band.cols]
    assert len(pairs) == len(set(pairs))
    total = sum(3 * lx * ly for ((_, _, lx), (_, _, ly)) in pairs)
    assert total == 3 * 64**2


def test_regrouping_bijection_3d():
    basis = build_basis_nd(HAAR, 3, 2)
    dec = analyze_vector(VectorSignal(np.zeros((2, 32, 32, 32))), basis, 2)
    triples = [col for band in dec.bands for col in band.cols]
    assert len(triples) == len(set(triples))
    total = sum(2 * lx * ly * lz for ((_, _, lx), (_, _, ly), (_, _, lz)) in triples)
    assert total == 2 * 32**3
    assert dec.census() == 2 * 32**3


# ---------------------------------------------------------------------------
# the bands hold star products with the catalog's atoms


def _catalog_band(x: np.ndarray, basis, band, depth: int) -> np.ndarray:
    """What `band.values` must hold: entry (r, rho, k...) is <x_r, row rho of
    the band family's catalog atom at translate k>, with the atom sampled one
    sample per signal sample (J = depth) and periodized mod n.

    Row rho of an atom is the product of one factor per axis, and on axis i
    the factors of all m rows at translate k_i are the rows of a one-axis
    catalog atom.  So each axis samples one such atom per k_i, where the
    full atoms would be one per k, with windows that grow with k.
    """
    (fam,) = [f for fams in basis.families for f in fams if (f.eps, f.block) == (band.eps, band.block)]
    m, d, n = x.shape[0], x.ndim - 1, x.shape[1]
    tables = []
    for i, size in enumerate(band.values.shape[2:]):
        axis_fam = FamilyND(fam.name, (fam.eps[i],), fam.block, tuple((row[i],) for row in fam.rows))
        table = np.zeros((m, size, n))
        for k in range(size):
            f = sample_vector_atom_nd(make_atom(axis_fam, max(band.level, 0), (k,)), basis, depth)
            wrapped = np.arange(f.start[0], f.start[0] + f.values.shape[1]) % n
            for rho in range(m):
                table[rho, k] = np.bincount(wrapped, weights=f.values[rho], minlength=n)
        # catalog scale s is scalar scale s0 + s with s0 = log2(n) - depth,
        # which puts 2^(-depth/2) on each axis
        tables.append(table * 2.0 ** (-depth / 2))
    if d == 1:
        want = np.einsum("rp,sap->rsa", x, tables[0])
    else:
        # axis 2 first, then axis 1: two small contractions, not one of all four indices
        want = np.einsum("sap,rpsb->rsab", tables[0], np.tensordot(x, tables[1], axes=(2, 2)))
    # slots past a column's length are structural zeros
    for rho in range(m):
        valid = (slice(None), rho) + tuple(slice(0, length) for length in band.col_lengths(rho))
        column = want[valid].copy()
        want[:, rho] = 0.0
        want[valid] = column
    return want


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("levels", (0, 1, 2))
def test_bands_are_star_products_with_catalog_atoms_haar(d, m, levels):
    depth = m * levels + m - 1
    n = 2 ** max(depth, 5)
    basis = build_basis_nd(HAAR, d, m)
    x = np.random.default_rng(13).standard_normal((m,) + (n,) * d)
    dec = analyze_vector(VectorSignal(x), basis, levels)
    for band in dec.bands:
        want = _catalog_band(x, basis, band, depth)
        assert np.max(np.abs(band.values - want)) <= 1e-12 * np.max(np.abs(want)), band.key
    if d == 1:
        # the stacked 1-D basis packs the same bands
        assert decomposition_to_bytes(analyze_vector(VectorSignal(x), build_vector_basis(HAAR, m), levels)) == (
            decomposition_to_bytes(dec)
        )


def _catalog_band_taps(x: np.ndarray, basis, band, depth: int) -> np.ndarray:
    """What `band.values` must hold, from the taps: the signal holds the
    coefficients over phi_{depth, p}, so entry (r, rho, k...) is the dot of
    x_r with the periodized `expand_factor` coefficients of row rho's
    factors at translate k, one factor per axis."""
    (fam,) = [f for fams in basis.families for f in fams if (f.eps, f.block) == (band.eps, band.block)]
    m, n = x.shape[0], x.shape[1]
    sizes = band.values.shape[2:]
    want = np.empty(band.values.shape)
    for rho, row in enumerate(fam.rows):
        y = x
        for i, size in enumerate(sizes):
            comp = factor_component(basis.mw, fam.eps[i], row[i], max(band.level, 0))
            table = np.zeros((size, n))
            for k in range(size):
                coeffs, start = expand_factor(basis.mw.filter, comp.kind, comp.scale, k, depth)
                table[k] = np.bincount(np.arange(start, start + len(coeffs)) % n, weights=coeffs, minlength=n)
            # contracts the first remaining signal axis and appends the translate axis
            y = np.tensordot(y, table, axes=([1], [1]))
        want[:, rho] = y
    # slots past a column's length are structural zeros
    for rho in range(m):
        valid = (slice(None), rho) + tuple(slice(0, length) for length in band.col_lengths(rho))
        column = want[valid].copy()
        want[:, rho] = 0.0
        want[valid] = column
    return want


@pytest.mark.parametrize(
    "name, d, m, levels",
    [(name, d, m, levels) for name in ("haar", "db2", "db4") for d in (1, 2) for m in (1, 2, 3) for levels in (0, 1, 2)]
    + [("db2", 3, 2, 1), ("db4", 3, 3, 0)],
)
def test_bands_are_star_products_with_catalog_atoms_db(name, d, m, levels):
    depth = m * levels + m - 1
    n = 2 ** max(depth, 5)
    basis = build_basis_nd(filter_by_name(name), d, m)
    x = np.random.default_rng(13).standard_normal((m,) + (n,) * d)
    dec = analyze_vector(VectorSignal(x), basis, levels)
    for band in dec.bands:
        want = _catalog_band_taps(x, basis, band, depth)
        assert np.max(np.abs(band.values - want)) <= 1e-12 * np.max(np.abs(want)), band.key
