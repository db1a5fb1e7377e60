"""The benchmark's output checks pass on real outputs and fail on corrupted ones."""

from dataclasses import replace
from pathlib import Path
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import vecwave as vw  # noqa: E402
import checks  # noqa: E402

TAU = 0.25


def _signal(d, m, n, seed=0):
    rng = np.random.default_rng(seed)
    smooth = np.cumsum(rng.standard_normal((m,) + (n,) * d), axis=1) / np.sqrt(n)
    return vw.VectorSignal(smooth + 0.05 * rng.standard_normal(smooth.shape))


def _with_value(dec, band_idx, index, value):
    band = dec.bands[band_idx]
    values = np.array(band.values)
    values[index] = value
    bands = list(dec.bands)
    bands[band_idx] = replace(band, values=values)
    return replace(dec, bands=tuple(bands))


@pytest.fixture(params=[(1, 1, 64, "db2"), (2, 2, 16, "haar")], ids=["d1m1", "d2m2"])
def case(request):
    d, m, n, name = request.param
    filt = vw.filter_by_name(name)
    basis = vw.build_basis_nd(filt, d, m)
    sig = _signal(d, m, n)
    levels = 2 if d == 1 else 1
    raw = vw.analyze_vector(sig, basis, levels)
    thr = vw.threshold_matrix(raw, TAU)
    return {"d": d, "m": m, "n": n, "filt": filt, "basis": basis, "sig": sig, "levels": levels,
            "raw": raw, "thr": thr}


def test_clean_outputs_pass(case):
    x, basis, raw, thr = case["sig"].values, case["basis"], case["raw"], case["thr"]
    rec_thr = vw.synthesize_vector(thr, basis).values
    assert checks.round_trip(x, vw.synthesize_vector(raw, basis).values) == []
    assert checks.parseval(x, raw.bands) == []
    assert checks.census(raw.bands, case["m"], case["n"], case["d"]) == []
    assert checks.threshold_sides(raw.bands, thr.bands, TAU) == []
    assert checks.threshold_energy(x, rec_thr, raw.bands, thr.bands) == []
    data = vw.decomposition_to_bytes(thr)
    assert checks.codec_exact(data, vw.decomposition_from_bytes, vw.decomposition_to_bytes) == []


def test_flipped_coefficient_fails_round_trip_and_parseval(case):
    raw = case["raw"]
    bad = _with_value(raw, 0, (0, 0, 0) + (0,) * (case["d"] - 1), raw.bands[0].values.flat[0] + 1.0)
    x = case["sig"].values
    assert checks.round_trip(x, vw.synthesize_vector(bad, case["basis"]).values)
    assert checks.parseval(x, bad.bands)


def test_missing_band_fails_census(case):
    assert checks.census(case["raw"].bands[1:], case["m"], case["n"], case["d"])


def _first_matrix(band, zeroed: bool):
    cols = checks._eligible_columns(band)
    norms = np.sqrt(np.sum(band.values[:, cols] ** 2, axis=(0, 1)))
    hits = np.argwhere((norms < TAU) if zeroed else (norms >= TAU))
    return None if len(hits) == 0 else (slice(None), slice(None)) + tuple(hits[0])


def test_wrong_threshold_side_fails(case):
    raw, thr = case["raw"], case["thr"]
    wavelet = next(i for i, b in enumerate(raw.bands) if b.level >= 0 and _first_matrix(b, True) is not None)
    index = _first_matrix(raw.bands[wavelet], True)
    # a matrix below tau kept
    kept = _with_value(thr, wavelet, index, raw.bands[wavelet].values[index])
    assert checks.threshold_sides(raw.bands, kept.bands, TAU)
    rec = vw.synthesize_vector(kept, case["basis"]).values
    assert checks.threshold_energy(case["sig"].values, rec, raw.bands, thr.bands)
    # a matrix above tau zeroed
    big = next(i for i, b in enumerate(raw.bands) if _first_matrix(b, False) is not None)
    index = _first_matrix(raw.bands[big], False)
    cols = checks._eligible_columns(raw.bands[big])
    values = np.array(thr.bands[big].values)
    sub = values[:, cols]
    sub[index] = 0.0
    values[:, cols] = sub
    zeroed = replace(thr, bands=thr.bands[:big] + (replace(thr.bands[big], values=values),) + thr.bands[big + 1:])
    assert checks.threshold_sides(raw.bands, zeroed.bands, TAU)


def test_truncated_payload_fails_codec(case):
    data = vw.decomposition_to_bytes(case["thr"])
    assert checks.codec_exact(data[:-8], vw.decomposition_from_bytes, vw.decomposition_to_bytes)
    wav = vw.signal_to_bytes(case["sig"])
    assert checks.codec_exact(wav[:-1], vw.signal_from_bytes, vw.signal_to_bytes)


def test_flipped_payload_byte_fails_value_check(case):
    data = bytearray(vw.signal_to_bytes(case["sig"]))
    data[-3] ^= 0x40
    decoded = vw.signal_from_bytes(bytes(data)).values
    assert checks.same_values(decoded, case["sig"].values, "vwav")
    assert checks.same_values(case["sig"].values, case["sig"].values, "vwav") == []


def test_pyramid_reference_catches_flipped_coefficient():
    filt = vw.filter_by_name("db2")
    basis = vw.build_basis_nd(filt, 1, 1)
    sig = _signal(1, 1, 64)
    dec = vw.analyze_vector(sig, basis, 3)
    x = sig.values[0]
    args = (x, filt.h, filt.h_start, filt.g, filt.g_start, 3)
    assert checks.matches_pyramid(dec.bands, *args) == []
    bad = _with_value(dec, 2, (0, 0, 1), -dec.bands[2].values[0, 0, 1])
    assert checks.matches_pyramid(bad.bands, *args)


def test_dense_star_agrees_and_catches_corruption():
    basis = vw.build_basis_nd(vw.haar_filter(), 2, 2)
    atoms = vw.catalog_atoms(basis, 0, 1)
    a, b = atoms[0], atoms[-1]
    cache = vw.FactorInnerCache(basis.mw.filter, 4)
    level = 8
    fa, fb = vw.sample_vector_atom_nd(a, basis, level), vw.sample_vector_atom_nd(b, basis, level)
    for f, g, atom_f, atom_g in ((fa, fa, a, a), (fa, fb, a, b)):
        sep = vw.star_nd_separable(atom_f, atom_g, basis, cache).entries
        dense = checks.dense_star(f.start, f.values, g.start, g.values, level)
        assert checks.star_agrees(sep, dense, checks.GRAM_TOL["exact"], "clean") == []
    # the self pairing is the identity, so rows in the wrong order show
    sep = vw.star_nd_separable(a, a, basis, cache).entries
    dense = checks.dense_star(fa.start, fa.values, fa.start, fa.values, level)
    assert checks.star_agrees(sep[::-1], dense, checks.GRAM_TOL["exact"], "rows swapped")


def test_verify_report_and_cli_bytes():
    good = "check,measured,tolerance,status\nfilter-sum,0,1e-12,pass\n"
    bad = good + "gram-nd,0.5,0.001,fail\n"
    assert checks.verify_passed(0, good) == []
    assert checks.verify_passed(0, bad)
    assert checks.verify_passed(1, good)
    assert checks.verify_passed(0, "check,measured,tolerance,status\n")
    assert checks.same_bytes(b"abc", b"abc", "cli") == []
    assert checks.same_bytes(b"ab", b"abc", "cli")
