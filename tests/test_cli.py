"""End-to-end command-line tests through main(argv)."""

import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecwave import (
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    decomposition_to_bytes,
    haar_filter,
    refine_sample,
    sampled_to_csv,
    signal_from_bytes,
    signal_to_bytes,
    synthesize_vector,
    threshold_matrix,
)
from vecwave.basisnd import catalog_manifest
from vecwave.cli import load_manifest, main


def build_manifest(tmp_path, name="haar", d=2, m=2):
    path = tmp_path / f"{name}-{d}-{m}.txt"
    rc = main(["build", "--filter", name, "--d", str(d), "--m", str(m), "--out", str(path)])
    assert rc == 0
    return path


def write_signal(tmp_path, m, shape, seed=7):
    rng = np.random.default_rng(seed)
    sig = VectorSignal(rng.standard_normal((m,) + shape))
    path = tmp_path / "signal.vwav"
    path.write_bytes(signal_to_bytes(sig))
    return path, sig


def test_build_manifest_matches_library(tmp_path):
    path = build_manifest(tmp_path)
    text = path.read_text()
    assert text == catalog_manifest(build_basis_nd(haar_filter(), 2, 2))
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert sum(1 for line in lines if line.startswith("family=")) == 8


def test_build_db2_m3_has_dilation_8(tmp_path):
    path = build_manifest(tmp_path, name="db2", d=1, m=3)
    head = path.read_text().split("\n")[0]
    assert "dilation=8" in head
    assert "filter=db2" in head


def test_build_rejects_bad_flags(tmp_path, capsys):
    out = str(tmp_path / "never.txt")
    assert main(["build", "--filter", "haar", "--d", "9", "--m", "4", "--out", out]) == 2
    assert main(["build", "--filter", "sym4", "--d", "1", "--m", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_verify_haar_exact_passes(tmp_path, capsys):
    manifest = build_manifest(tmp_path)
    report = tmp_path / "report.csv"
    rc = main(["verify", "--manifest", str(manifest), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS 11/11 checks" in out
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "check,measured,tolerance,status"
    assert len(lines) == 12
    assert all(line.endswith(",pass") for line in lines[1:])
    # rows come out lexicographically sorted
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == sorted(names)


def test_verify_report_is_deterministic(tmp_path):
    manifest = build_manifest(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--manifest", str(manifest), "--report", str(a)]) == 0
    assert main(["verify", "--manifest", str(manifest), "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_db2_exact_fails_sampled_passes(tmp_path, capsys):
    manifest = build_manifest(tmp_path, name="db2")
    report = tmp_path / "report.csv"
    rc = main(["verify", "--manifest", str(manifest), "--report", str(report)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    assert ",fail" in report.read_text()
    # quadrature error fits inside the sampled profile at the default J
    assert main(["verify", "--manifest", str(manifest), "--profile", "sampled"]) == 0


def test_verify_rejects_corrupted_manifest(tmp_path, capsys):
    manifest = build_manifest(tmp_path)
    good = manifest.read_text()
    for bad in (
        good.replace("Psi5", "Psi9"),
        good.replace("dilation=4", "dilation=8"),
        good.split("\n", 1)[1],
        "",
    ):
        path = tmp_path / "bad.txt"
        path.write_text(bad)
        assert main(["verify", "--manifest", str(path)]) == 2
    assert main(["verify", "--manifest", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.count("error:") == 5


def test_verify_rejects_oversized_manifest_fields(tmp_path, capsys):
    """Header fields that would size allocations are checked first."""
    good = build_manifest(tmp_path).read_text()
    head, body = good.split("\n", 1)
    assert head == "filter=haar d=2 m=2 dilation=4 blocks=2"
    heads = [
        "filter=haar d=300000000 m=2 dilation=4 blocks=2",
        "filter=haar d=2 m=2 dilation=4 blocks=5000000",
        "filter=haar d=2 m=5 dilation=32 blocks=5",
        "filter=haar d=7 m=1 dilation=2 blocks=1",
        "filter=haar d=0 m=2 dilation=4 blocks=2",
        "filter=haar d=2 m=0 dilation=1 blocks=0",
        "filter=haar d=2 m=2 dilation=4 blocks=4",
        "filter=haar d=2 m=2 dilation=4 blocks=" + "9" * 21,
        "filter=haar d=2 m=" + "9" * 5000 + " dilation=4 blocks=2",
    ]
    path = tmp_path / "bad.txt"
    for bad in heads + [head + "\n" + body.replace("block=0", "block=" + "1" * 5000, 1)]:
        path.write_text(bad if "\n" in bad else bad + "\n" + body)
        assert main(["verify", "--manifest", str(path)]) == 2, bad[:80]
    err = capsys.readouterr().err
    assert err.count("error:") == len(heads) + 1
    assert err.count("1 <= d <= 6, 1 <= m <= 4") == 5
    assert err.count("malformed manifest") == 3


def test_verify_refuses_an_oversized_sweep(tmp_path, capsys):
    # haar d=4 m=4 has 642 816 catalog atom rows at verify's parameters; the
    # sweep's size guard stops it before anything that size is built.
    manifest = build_manifest(tmp_path, d=4, m=4)
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert "gram sweep guard" in capsys.readouterr().err


def test_verify_refuses_an_oversized_table(tmp_path, capsys, monkeypatch):
    # J = 60 would ask for cascade tables of about 2**60 samples
    manifest = build_manifest(tmp_path)
    assert main(["verify", "--manifest", str(manifest), "--j", "60"]) == 2
    monkeypatch.setenv("VECWAVE_J", "60")
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err.count("samples, more than the") == 2


@pytest.mark.parametrize("name,m,profile", [("haar", 2, "exact"), ("db2", 1, "sampled")])
def test_d3_build_verify_transform(tmp_path, capsys, name, m, profile):
    manifest = build_manifest(tmp_path, name=name, d=3, m=m)
    assert main(["verify", "--manifest", str(manifest), "--profile", profile]) == 0
    assert "PASS 11/11 checks" in capsys.readouterr().out
    sig_path, sig = write_signal(tmp_path, m, (16, 16, 16))
    dec_path = tmp_path / "dec.vdec"
    rec_path = tmp_path / "rec.vwav"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    assert dec_path.read_bytes().startswith(f"VDEC1 d=3 m={m} n=16 levels=1 filter={name}".encode())
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(rec_path), "--inverse"]) == 0
    rec = signal_from_bytes(rec_path.read_bytes())
    assert_allclose(rec.values, sig.values, rtol=0, atol=1e-12)


def test_verify_env_j_override(tmp_path, capsys, monkeypatch):
    manifest = build_manifest(tmp_path)
    monkeypatch.setenv("VECWAVE_J", "6")
    assert main(["verify", "--manifest", str(manifest)]) == 0
    assert "J=6" in capsys.readouterr().out
    monkeypatch.setenv("VECWAVE_J", "six")
    assert main(["verify", "--manifest", str(manifest)]) == 2


def test_transform_round_trip_1d(tmp_path):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, sig = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    rec_path = tmp_path / "rec.vwav"
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(dec_path), "--levels", "2"])
    assert rc == 0
    rc = main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
               "--out", str(rec_path), "--inverse"])
    assert rc == 0
    rec = signal_from_bytes(rec_path.read_bytes())
    assert np.max(np.abs(rec.values - sig.values)) <= 1e-10


def test_transform_round_trip_2d(tmp_path):
    manifest = build_manifest(tmp_path, name="db3")
    sig_path, sig = write_signal(tmp_path, 2, (32, 32), seed=11)
    dec_path = tmp_path / "dec.vdec"
    rec_path = tmp_path / "rec.vwav"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(rec_path), "--inverse"]) == 0
    rec = signal_from_bytes(rec_path.read_bytes())
    assert np.max(np.abs(rec.values - sig.values)) <= 1e-10


def test_transform_threshold_zero_is_identity(tmp_path):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, sig = write_signal(tmp_path, 2, (64,))
    plain = tmp_path / "plain.vdec"
    zeroed = tmp_path / "zeroed.vdec"
    args = ["transform", "--in", str(sig_path), "--manifest", str(manifest), "--levels", "2"]
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--out", str(zeroed), "--threshold", "0"]) == 0
    assert plain.read_bytes() == zeroed.read_bytes()
    rec_path = tmp_path / "rec.vwav"
    assert main(["transform", "--in", str(zeroed), "--manifest", str(manifest),
                 "--out", str(rec_path), "--inverse"]) == 0
    rec = signal_from_bytes(rec_path.read_bytes())
    assert_allclose(rec.values, sig.values, atol=1e-12)


def test_transform_threshold_inf_keeps_approximation_only(tmp_path):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, sig = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "2", "--threshold", "inf"]) == 0
    basis = load_manifest(manifest.read_text())
    expected_dec = threshold_matrix(analyze_vector(sig, basis, 2), np.inf)
    assert dec_path.read_bytes() == decomposition_to_bytes(expected_dec)
    rec_path = tmp_path / "rec.vwav"
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(rec_path), "--inverse"]) == 0
    rec = signal_from_bytes(rec_path.read_bytes())
    assert_allclose(rec.values, synthesize_vector(expected_dec, basis).values, atol=1e-12)
    # the details really were dropped
    assert np.max(np.abs(rec.values - sig.values)) > 1e-3


def test_transform_refuses_a_nan_threshold(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(out), "--levels", "2", "--threshold", "nan"]) == 2
    assert "threshold must not be NaN" in capsys.readouterr().err
    assert not out.exists()


def test_transform_norm1_threshold_flag(tmp_path):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, sig = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(out), "--levels", "1", "--threshold", "0.5",
                 "--norm", "norm1"]) == 0
    basis = load_manifest(manifest.read_text())
    expected = threshold_matrix(analyze_vector(sig, basis, 1), 0.5, "norm1")
    assert out.read_bytes() == decomposition_to_bytes(expected)


def test_transform_header_mismatch(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=2)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(out), "--levels", "1"])
    assert rc == 2
    assert "signal is d=1" in capsys.readouterr().err
    # four space axes are past the supported d <= 3
    sig_path.write_bytes(b"VWAV1 d=4 m=2 n=2 dtype=f64le\n" + bytes(8 * 2 * 2**4))
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(out), "--levels", "1"])
    assert rc == 2
    assert "invalid signal geometry d=4" in capsys.readouterr().err


def test_transform_forward_needs_levels(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(tmp_path / "dec.vdec")])
    assert rc == 2
    assert "--levels" in capsys.readouterr().err


def test_transform_inverse_wrong_manifest(tmp_path):
    manifest = build_manifest(tmp_path, d=1)
    other = build_manifest(tmp_path, name="db2", d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    rc = main(["transform", "--in", str(dec_path), "--manifest", str(other),
               "--out", str(tmp_path / "rec.vwav"), "--inverse"])
    assert rc == 2


def test_transform_rejects_non_finite_inputs(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    values = np.ones((2, 64))
    values[1, 9] = np.nan
    sig_path = tmp_path / "nan.vwav"
    sig_path.write_bytes(b"VWAV1 d=1 m=2 n=64 dtype=f64le\n" + values.astype("<f8").tobytes())
    out = tmp_path / "dec.vdec"
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(out), "--levels", "1"])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()
    good_path, _ = write_signal(tmp_path, 2, (64,))
    assert main(["transform", "--in", str(good_path), "--manifest", str(manifest),
                 "--out", str(out), "--levels", "1"]) == 0
    blob = bytearray(out.read_bytes())
    blob[-8:] = np.array([np.inf], dtype="<f8").tobytes()
    out.write_bytes(bytes(blob))
    rec = tmp_path / "rec.vwav"
    rc = main(["transform", "--in", str(out), "--manifest", str(manifest),
               "--out", str(rec), "--inverse"])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not rec.exists()


def polyline_points(svg: str):
    start = svg.index('<polyline points="') + len('<polyline points="')
    pts = svg[start : svg.index('"', start)].split()
    return [tuple(float(v) for v in p.split(",")) for p in pts]


def test_plot_haar_phi_sixteen_segments(tmp_path):
    manifest = build_manifest(tmp_path, d=1, m=1)
    out = tmp_path / "phi.svg"
    rc = main(["plot", "--manifest", str(manifest), "--family", "Phi1",
               "--j", "4", "--out", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert "Phi1 ch1 t=0 J=4 filter=haar" in svg
    pts = polyline_points(svg)
    assert len(pts) == 32
    cells = [(pts[2 * i], pts[2 * i + 1]) for i in range(16)]
    assert all(a[1] == b[1] and a[0] < b[0] for a, b in cells)


def test_plot_db2_psi_support_labels(tmp_path):
    manifest = build_manifest(tmp_path, name="db2", d=1, m=1)
    out = tmp_path / "psi.svg"
    rc = main(["plot", "--manifest", str(manifest), "--family", "Psi1",
               "--j", "8", "--out", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert ">-1</text>" in svg
    assert ">2</text>" in svg


def test_plot_raster_quadrant_pattern(tmp_path):
    manifest = build_manifest(tmp_path)
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    args = ["plot", "--manifest", str(manifest), "--family", "Psi5",
            "--channel", "1", "--j", "3"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    svg = first.read_text()
    assert "data:image/bmp;base64," in svg
    assert "Psi5 ch1 t=0 J=3 filter=haar" in svg


def test_plot_polyline_is_deterministic(tmp_path):
    manifest = build_manifest(tmp_path, name="db2", d=1, m=2)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["plot", "--manifest", str(manifest), "--family", "Psi1",
            "--channel", "2", "--level", "1", "--j", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_function_csv(tmp_path):
    csv_path = tmp_path / "fn.csv"
    csv_path.write_text(sampled_to_csv(refine_sample(haar_filter(), "wavelet", 3)))
    out = tmp_path / "fn.svg"
    rc = main(["plot", "--function", str(csv_path), "--out", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert "sampled function level=3" in svg
    assert len(polyline_points(svg)) == 16


@pytest.mark.parametrize(
    "header, values, message",
    [
        ("start=0 step=2^-3 len=4", "1 nan 2 3", "samples must be finite"),
        ("start=0 step=2^-3 len=4", "1 inf 2 3", "samples must be finite"),
        ("start=0 step=2^-3 len=4", "1 -1e999 2 3", "samples must be finite"),
        ("start=0 step=2^-5000 len=4", "1 0 2 3", "grid level 5000 is outside 0..1022"),
        ("start=0 step=2^-1023 len=4", "1 0 2 3", "grid level 1023 is outside 0..1022"),
        ("start=0 step=2^--3 len=4", "1 0 2 3", "grid level -3 is outside 0..1022"),
        (f"start={10**23} step=2^-3 len=4", "1 0 2 3", "does not fit a finite coordinate"),
        (f"start={2**60} step=2^-0 len=4", "1 0 2 3", "does not fit a finite coordinate"),
        (f"start={2**53 - 3} step=2^-0 len=4", "1 0 2 3", "does not fit a finite coordinate"),
        (f"start={-(2**53) - 1} step=2^-0 len=4", "1 0 2 3", "does not fit a finite coordinate"),
    ],
)
def test_plot_function_rejects_a_csv_out_of_bounds(tmp_path, capsys, header, values, message):
    csv_path = tmp_path / "fn.csv"
    csv_path.write_text(f"# {header}\n" + "\n".join(values.split()) + "\n")
    out = tmp_path / "fn.svg"
    assert main(["plot", "--function", str(csv_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "header", ["start=0 step=2^-1022 len=4", f"start={2**53 - 4} step=2^-0 len=4",
               f"start={-(2**53)} step=2^-0 len=4"],
)
def test_plot_function_accepts_a_csv_at_its_bounds(tmp_path, header):
    csv_path = tmp_path / "fn.csv"
    csv_path.write_text(f"# {header}\n1\n0\n-2\n3\n")
    out = tmp_path / "fn.svg"
    assert main(["plot", "--function", str(csv_path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert len(polyline_points(svg)) == 8


def test_plot_env_j_default(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, d=1, m=1)
    out = tmp_path / "phi.svg"
    monkeypatch.setenv("VECWAVE_J", "4")
    assert main(["plot", "--manifest", str(manifest), "--family", "Phi1",
                 "--out", str(out)]) == 0
    assert "J=4" in out.read_text()


def test_plot_rejects_bad_requests(tmp_path, capsys):
    manifest = build_manifest(tmp_path)
    manifest3 = build_manifest(tmp_path, d=3, m=1)
    csv_path = tmp_path / "fn.csv"
    csv_path.write_text(sampled_to_csv(refine_sample(haar_filter(), "scaling", 2)))
    out = str(tmp_path / "plot.svg")
    base = ["plot", "--out", out]
    assert main(base + ["--manifest", str(manifest), "--family", "Psi1",
                        "--function", str(csv_path)]) == 2
    assert main(base) == 2
    assert main(base + ["--manifest", str(manifest)]) == 2
    assert main(base + ["--manifest", str(manifest), "--family", "Psi9"]) == 2
    assert main(base + ["--manifest", str(manifest), "--family", "Psi1",
                        "--channel", "0"]) == 2
    assert main(base + ["--manifest", str(manifest), "--family", "Psi1",
                        "--channel", "3"]) == 2
    rc = main(base + ["--manifest", str(manifest3), "--family", "Psi1"])
    assert rc == 2
    assert "plotting d=3 atoms is not supported" in capsys.readouterr().err


def test_plot_refuses_an_oversized_table(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1, m=1)
    out = tmp_path / "phi.svg"
    assert main(["plot", "--manifest", str(manifest), "--family", "Phi1",
                 "--j", "60", "--out", str(out)]) == 2
    assert "samples, more than the" in capsys.readouterr().err
    assert not out.exists()


def test_plot_refuses_an_oversized_raster(tmp_path, capsys):
    # each haar factor table at J = 20 holds 2**20 samples, within the table
    # guard; the d = 2 raster of both channels would hold 2**41
    manifest = build_manifest(tmp_path, d=2, m=2)
    out = tmp_path / "atom.svg"
    assert main(["plot", "--manifest", str(manifest), "--family", "Phi1",
                 "--j", "20", "--out", str(out)]) == 2
    assert "sampling of this atom would hold 2199023255552 samples" in capsys.readouterr().err
    assert not out.exists()


def assert_refused_at_once(capsys, argv, limit):
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert limit in err
    assert "integer string conversion" not in err


@pytest.mark.parametrize("case", ["verify-j", "env-j", "plot-j"])
def test_huge_grid_levels_are_refused_at_once(tmp_path, capsys, monkeypatch, case):
    # computed first, 2**J would take time and memory that grow with J
    manifest = str(build_manifest(tmp_path, name="db2", d=1, m=2))
    argv = {
        "verify-j": ["verify", "--manifest", manifest, "--j", str(10**9)],
        "env-j": ["verify", "--manifest", manifest],
        "plot-j": ["plot", "--manifest", manifest, "--family", "Phi1",
                   "--j", str(10**9), "--out", str(tmp_path / "phi.svg")],
    }[case]
    if case == "env-j":
        monkeypatch.setenv("VECWAVE_J", str(10**12))
    assert_refused_at_once(capsys, argv, "past 1022")


def test_huge_band_scale_is_refused_at_once(tmp_path, capsys):
    manifest = str(build_manifest(tmp_path, name="db2", d=1, m=2))
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", manifest,
                 "--out", str(dec_path), "--levels", "1"]) == 0
    blob = re.sub(rb"detail:[0-9]+:", b"detail:%d:" % 10**12, dec_path.read_bytes(), count=1)
    dec_path.write_bytes(blob)
    assert_refused_at_once(capsys, ["transform", "--in", str(dec_path), "--manifest", manifest,
                                    "--out", str(tmp_path / "rec.vwav"), "--inverse"], "outside 0..")


def test_transform_refuses_a_huge_levels_budget(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(out), "--levels", "1000000000000000000000"]) == 2
    assert "exceeds log2(n) = 6" in capsys.readouterr().err
    assert not out.exists()


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["build"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
