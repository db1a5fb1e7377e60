"""End-to-end command-line tests through main(argv)."""

from dataclasses import replace
import hashlib
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import vecwave
from vecwave import basisnd, cli, verify
from vecwave import (
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    cyclic_partition,
    decomposition_from_bytes,
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
from vecwave.errors import FileFormatError, VecwaveError


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


def test_verify_db2_exact_fails_sampled_passes(tmp_path, capsys, monkeypatch):
    # The Gram rows come from the filter taps, so db2 passes even the exact
    # profile. A Gram defect the size of the old db2 quadrature floor at
    # J = 10 (5.1e-5) fails exact and fits inside sampled.
    manifest = build_manifest(tmp_path, name="db2")
    report = tmp_path / "report.csv"
    assert main(["verify", "--manifest", str(manifest), "--report", str(report)]) == 0
    assert ",fail" not in report.read_text()
    monkeypatch.setattr(verify, "translate_gram_deviation", lambda mw, J, k_range: 5.1e-5)
    rc = main(["verify", "--manifest", str(manifest), "--report", str(report)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    assert "gram-1d,5.1e-05,1e-10,fail" in report.read_text()
    assert main(["verify", "--manifest", str(manifest), "--profile", "sampled"]) == 0


def test_verify_refuses_d4_before_any_sweep(tmp_path, capsys, monkeypatch):
    # a d = 4 basis builds, and verify takes it unless its catalog is too
    # large to sweep; that refusal comes before the Gram sweeps
    manifest = build_manifest(tmp_path, name="haar", d=4, m=1)
    assert main(["verify", "--manifest", str(manifest)]) == 0
    assert "PASS 11/11 checks" in capsys.readouterr().out
    manifest = build_manifest(tmp_path, name="haar", d=4, m=4)

    def never(*args, **kwargs):
        raise AssertionError("a Gram sweep ran before the refusal")

    monkeypatch.setattr(verify, "translate_gram_deviation", never)
    monkeypatch.setattr(verify, "catalog_star_deviation", never)
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert "gram sweep guard" in capsys.readouterr().err


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
    assert err.count("malformed manifest") == 1
    assert err.count("manifest line") == 4


def test_manifest_reader_is_the_library_one():
    # the bench and CI import it from the CLI module
    assert load_manifest is vecwave.basisnd.load_manifest


def test_cli_reexports_the_library_verify():
    # the bench, CI and the golden-bytes tests import these from the CLI module
    assert cli.run_verify is verify.run_verify
    assert cli.VerifyReport is verify.VerifyReport
    assert cli.load_manifest is vecwave.basisnd.load_manifest


def test_run_verify_refuses_an_unknown_profile():
    with pytest.raises(ValueError, match="^profile must be one of exact, sampled, got 'loose'$"):
        verify.run_verify(build_basis_nd(haar_filter(), 1, 1), 6, "loose")


@pytest.mark.parametrize("ends", ["lf", "crlf", "cr", "mixed", "trailing-cr"])
def test_verify_reads_line_ends_by_the_loaders_rule(tmp_path, ends):
    # the CLI reads a manifest's bytes, so it refuses exactly what
    # load_manifest refuses: CRLF reads as LF, a lone CR anywhere is refused
    good = build_manifest(tmp_path).read_bytes()
    data = {
        "lf": good,
        "crlf": good.replace(b"\n", b"\r\n"),
        "cr": good.replace(b"\n", b"\r"),
        "mixed": good.replace(b"\n", b"\r\n").replace(b"\r\n", b"\r", 1),
        "trailing-cr": good[:-1] + b"\r",
    }[ends]
    path = tmp_path / f"{ends}.txt"
    path.write_bytes(data)
    try:
        load_manifest(data.decode("ascii"))
        refused = False
    except VecwaveError:
        refused = True
    assert refused == (ends not in ("lf", "crlf"))
    assert (main(["verify", "--manifest", str(path)]) == 2) == refused


@pytest.mark.parametrize("name", ["haar", "db4", "db10"])
def test_all_cr_manifests_are_refused_for_their_line_ends(tmp_path, capsys, name):
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            text = catalog_manifest(build_basis_nd(vecwave.filter_by_name(name), d, m)).replace("\n", "\r")
            want = "manifest line 1 holds a lone CR: only LF or CRLF line ends are read"
            with pytest.raises(FileFormatError) as err:
                load_manifest(text)
            assert str(err.value) == want
            path = tmp_path / f"{name}-{d}-{m}-cr.txt"
            path.write_bytes(text.encode("ascii"))
            assert main(["verify", "--manifest", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {want}\n"
    # a lone CR further down names its own line
    lines = catalog_manifest(build_basis_nd(haar_filter(), 2, 2)).split("\n")
    with pytest.raises(FileFormatError, match="^manifest line 3 holds a lone CR"):
        load_manifest("\n".join(lines[:3]) + "\r" + "\n".join(lines[3:]))


def test_malformed_header_refusal_quotes_a_bounded_prefix():
    with pytest.raises(FileFormatError) as err:
        load_manifest("filter=haar d=x\n")
    assert str(err.value) == "malformed manifest header: 'filter=haar d=x'"
    with pytest.raises(FileFormatError) as err:
        load_manifest("x" * 1_000_000)
    assert str(err.value) == f"malformed manifest header: {'x' * 80!r} (first 80 of 1000000 characters)"


def test_manifest_refusal_says_the_final_newline_is_missing():
    good = catalog_manifest(build_basis_nd(haar_filter(), 2, 2))
    for bad in (good[:-1], good.replace("\n", "\r\n")[:-2]):
        with pytest.raises(FileFormatError, match="^manifest is missing its final newline$"):
            load_manifest(bad)
    # a line short of the final newline still names the line
    with pytest.raises(FileFormatError, match="^manifest line 9 departs from"):
        load_manifest(good[:-2])


@pytest.mark.parametrize("tail", [" ", "\t"])
def test_manifest_refusal_names_the_edited_line(tail):
    # trailing whitespace after a field leaves the header and the partition
    # as they were, so each edit is refused at its own line
    good = catalog_manifest(build_basis_nd(haar_filter(), 2, 2))
    lines = good.split("\n")[:-1]
    for k, line in enumerate(lines):
        bad = "\n".join(lines[:k] + [line + tail] + lines[k + 1 :]) + "\n"
        with pytest.raises(FileFormatError) as err:
            load_manifest(bad)
        assert str(err.value) == (
            f"manifest line {k + 1} departs from {line!r}, the line its header and partition fix"
        )
    # past the last line, the expected line is the end of the file
    for bad in (good + "x", good + "\n", good.replace("\n", "\r\n") + "\r\n"):
        with pytest.raises(FileFormatError, match=f"^manifest line {len(lines) + 1} departs from ''"):
            load_manifest(bad)
    assert catalog_manifest(load_manifest(good.replace("\n", "\r\n"))) == good


def test_verify_refuses_an_oversized_sweep(tmp_path, capsys):
    # haar d=4 m=4 has 642 816 catalog atom rows at verify's parameters; the
    # sweep's size guard stops it before anything that size is built.
    manifest = build_manifest(tmp_path, d=4, m=4)
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert "gram sweep guard" in capsys.readouterr().err


def test_verify_refuses_an_oversized_table(tmp_path, capsys):
    # J = 60 would ask for cascade tables of about 2**60 samples
    manifest = build_manifest(tmp_path)
    assert main(["verify", "--manifest", str(manifest), "--j", "60"]) == 2
    assert capsys.readouterr().err.count("samples, more than the") == 1


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


@pytest.mark.parametrize("d, m", [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1)])
@pytest.mark.parametrize("name", ["haar", "db4", "db10"])
def test_every_admitted_d4_up_basis_verifies_and_transforms(tmp_path, capsys, name, d, m):
    # the sweep guard admits these (d >= 4, m); each basis that build writes
    # passes verify, and transform writes the in-process bytes, which decode
    # and re-encode to themselves
    manifest = build_manifest(tmp_path, name=name, d=d, m=m)
    assert main(["verify", "--manifest", str(manifest)]) == 0
    assert "PASS 11/11 checks" in capsys.readouterr().out
    basis = load_manifest(manifest.read_text())
    n = {4: 16, 5: 8, 6: 8}[d]
    levels = min(2, (n.bit_length() - m) // m)
    sig_path, sig = write_signal(tmp_path, m, (n,) * d)
    dec_path, rec_path = tmp_path / "dec.vdec", tmp_path / "rec.vwav"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--levels", str(levels), "--out", str(dec_path)]) == 0
    vdec = dec_path.read_bytes()
    assert vdec == decomposition_to_bytes(analyze_vector(sig, basis, levels))
    assert decomposition_to_bytes(decomposition_from_bytes(vdec)) == vdec
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--inverse", "--out", str(rec_path)]) == 0
    vwav = rec_path.read_bytes()
    assert signal_to_bytes(signal_from_bytes(vwav)) == vwav
    rec = signal_from_bytes(vwav).values
    assert np.max(np.abs(rec - sig.values)) <= 1e-12 * np.max(np.abs(sig.values))


@pytest.mark.parametrize("d, m", [(4, 4), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)])
def test_verify_refuses_every_catalog_past_the_sweep_guard(tmp_path, capsys, monkeypatch, d, m):
    manifest = build_manifest(tmp_path, d=d, m=m)

    def never(*args):
        raise AssertionError("catalog enumerated before the sweep guard")

    monkeypatch.setattr(basisnd, "_catalog_blocks", never)
    assert main(["verify", "--manifest", str(manifest)]) == 2
    assert "gram sweep guard" in capsys.readouterr().err


def test_verify_j_flag_sets_the_grid_level(tmp_path, capsys, monkeypatch):
    manifest = build_manifest(tmp_path)
    # only the flag sets J; the environment has no say
    monkeypatch.setenv("VECWAVE_J", "6")
    assert main(["verify", "--manifest", str(manifest)]) == 0
    assert "J=10" in capsys.readouterr().out
    assert main(["verify", "--manifest", str(manifest), "--j", "6"]) == 0
    assert "J=6" in capsys.readouterr().out
    assert main(["verify", "--manifest", str(manifest), "--j", "six"]) == 2


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


def test_transform_refuses_a_nan_or_negative_threshold(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    # "=" keeps argparse from taking "-inf" for an option
    for threshold in ("nan", "-1", "-inf"):
        assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                     "--out", str(out), "--levels", "2", f"--threshold={threshold}"]) == 2
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


def test_norm_needs_a_threshold(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    base = ["transform", "--in", str(sig_path), "--manifest", str(manifest), "--levels", "1"]
    assert main(base + ["--out", str(out), "--norm", "norm1"]) == 2
    assert "--norm" in capsys.readouterr().err
    assert not out.exists()
    # naming the default norm changes no byte
    plain, named = tmp_path / "plain.vdec", tmp_path / "named.vdec"
    assert main(base + ["--threshold", "0.5", "--out", str(plain)]) == 0
    assert main(base + ["--threshold", "0.5", "--norm", "frobenius", "--out", str(named)]) == 0
    assert plain.read_bytes() == named.read_bytes()


@pytest.mark.parametrize("name, d, m, shape, levels", [
    ("haar", 2, 3, (32, 32), 1),
    ("db4", 1, 2, (256,), 2),
    ("db4", 3, 2, (16, 16, 16), 1),
])
def test_transform_writes_the_in_process_bytes(tmp_path, name, d, m, shape, levels):
    manifest = build_manifest(tmp_path, name=name, d=d, m=m)
    basis = load_manifest(manifest.read_text())
    sig_path, sig = write_signal(tmp_path, m, shape)
    dec = analyze_vector(sig, basis, levels)
    for threshold in (None, 0.5):
        flags = [] if threshold is None else ["--threshold", str(threshold)]
        want = dec if threshold is None else threshold_matrix(dec, threshold)
        dec_path, rec_path = tmp_path / "dec.vdec", tmp_path / "rec.vwav"
        assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                     "--levels", str(levels), *flags, "--out", str(dec_path)]) == 0
        assert dec_path.read_bytes() == decomposition_to_bytes(want)
        assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                     "--inverse", "--out", str(rec_path)]) == 0
        assert rec_path.read_bytes() == signal_to_bytes(synthesize_vector(want, basis))


def test_transform_out_may_name_its_input(tmp_path):
    # the input is read whole before --out truncates it; views of a mapped
    # file would see the truncation
    manifest = build_manifest(tmp_path, name="db4", d=2, m=2)
    basis = load_manifest(manifest.read_text())
    path, sig = write_signal(tmp_path, 2, (32, 32))
    dec = analyze_vector(sig, basis, 1)
    assert main(["transform", "--in", str(path), "--manifest", str(manifest),
                 "--levels", "1", "--out", str(path)]) == 0
    assert path.read_bytes() == decomposition_to_bytes(dec)
    assert main(["transform", "--in", str(path), "--manifest", str(manifest),
                 "--inverse", "--out", str(path)]) == 0
    assert path.read_bytes() == signal_to_bytes(synthesize_vector(dec, basis))


def _traced_main(argv) -> int:
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_peaks_a_payload_below_copying_codecs(tmp_path, capsys):
    # haar d=2 m=3 256^2, two levels: a .vwav of 1.57 MB of samples and a
    # 4.50 MB .vdec.  tracemalloc peaks of this test's second main() call,
    # numpy 2.4.6: codecs that copy every decoded payload and join every
    # encoded one peaked at 12.49 MB forward and 14.57 MB inverse; decoded
    # views of the file's bytes, unjoined writes and a forward that frees
    # its input before thresholding peak at 9.34 MB and 10.07 MB.  Each
    # bound is the copying figure less one payload of signal samples: a
    # forward that keeps its input to the end, or an inverse that copies
    # the .vdec's bands, fails it
    copying = {"forward": 12.49e6, "inverse": 14.57e6}
    payload = 8 * 3 * 256**2
    manifest = build_manifest(tmp_path, d=2, m=3)
    sig_path, _ = write_signal(tmp_path, 3, (256, 256))
    dec_path, rec_path = tmp_path / "dec.vdec", tmp_path / "rec.vwav"
    peaks = {
        "forward": _traced_main(["transform", "--in", str(sig_path), "--manifest", str(manifest), "--levels", "2",
                                 "--threshold", "0.25", "--out", str(dec_path)]),
        "inverse": _traced_main(["transform", "--in", str(dec_path), "--manifest", str(manifest), "--inverse",
                                 "--out", str(rec_path)]),
    }
    capsys.readouterr()
    for command, peak in peaks.items():
        assert peak < copying[command] - payload, (command, peak)


def test_transform_header_mismatch(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=2)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(out), "--levels", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: basis is d=2 m=2, signal is d=1 m=2\n"
    # seven space axes are past the supported d <= 6
    sig_path.write_bytes(b"VWAV1 d=7 m=2 n=2 dtype=f64le\n" + bytes(8 * 2 * 2**7))
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(out), "--levels", "1"])
    assert rc == 2
    assert "invalid signal geometry d=7" in capsys.readouterr().err


def test_transform_forward_needs_levels(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    rc = main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
               "--out", str(tmp_path / "dec.vdec")])
    assert rc == 2
    assert "--levels" in capsys.readouterr().err


def test_inverse_mismatch_names_both_sides(tmp_path, capsys):
    # the library names a decomposition as one, not as a signal
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(build_manifest(tmp_path, d=1)),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    capsys.readouterr()
    rc = main(["transform", "--in", str(dec_path), "--manifest", str(build_manifest(tmp_path, d=1, m=3)),
               "--out", str(tmp_path / "rec.vwav"), "--inverse"])
    assert rc == 2
    assert capsys.readouterr().err == "error: basis is d=1 m=3, decomposition is d=1 m=2\n"


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


def test_inverse_refuses_a_nonzero_masked_slot(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=2, m=2)
    sig_path, _ = write_signal(tmp_path, 2, (32, 32))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    clean = dec_path.read_bytes()
    clean_rec = tmp_path / "clean.vwav"
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(clean_rec), "--inverse"]) == 0
    # the byte offset of the first slot past a column's length
    dec = decomposition_from_bytes(clean)
    offset = clean.index(b"\nend\n") + len(b"\nend\n")
    for band in dec.bands:
        shorter = [r for r in range(band.m) if band.col_lengths(r)[0] < band.values.shape[2]]
        if shorter:
            slot = (0, shorter[0], band.col_lengths(shorter[0])[0], 0)
            offset += 8 * int(np.ravel_multi_index(slot, band.values.shape))
            message = f"nonzero coefficient in a masked slot of {band.key} column {shorter[0]}"
            break
        offset += band.values.nbytes
    assert clean[offset:offset + 8] == bytes(8)
    capsys.readouterr()
    for value, rc in ((0.5, 2), (-0.0, 0)):
        dec_path.write_bytes(clean[:offset] + np.array([value], dtype="<f8").tobytes() + clean[offset + 8:])
        rec = tmp_path / f"rec{rc}.vwav"
        assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                     "--out", str(rec), "--inverse"]) == rc
        if rc:
            assert message in capsys.readouterr().err
            assert not rec.exists()
        else:
            assert rec.read_bytes() == clean_rec.read_bytes()


_BASE_B0 = b"base-b0,00,-1,0,approx:1:2|approx:1:2;detail:1:2|detail:1:2\n"
_BASE_B1 = b"base-b1,00,-1,1,approx:1:2|detail:1:2;detail:1:2|approx:1:2\n"


@pytest.mark.parametrize("old, new", [
    (_BASE_B0 + _BASE_B1, _BASE_B1 + _BASE_B0),
    (b"\nbase-b0,", b"\nbase-x0,"),
    (b"VDEC1 d=2 ", b"VDEC1 d=02 "),
    (b" bands=8\n", b" bands=9\n"),
    (b"w-e01-t0-b0,01,0,0,approx:1:2|detail:2:4;", b"w-e01-t0-b0,01,0,0,approx:1:2|detail:3:4;"),
], ids=["swapped-base-lines", "renamed-key", "d=02", "bands-off-by-one", "column-scale"])
def test_inverse_refuses_an_edited_manifest(tmp_path, capsys, old, new):
    # the header and partition fix every other manifest line, as a basis
    # manifest's header fixes its catalog
    manifest = build_manifest(tmp_path, d=2, m=2)
    sig_path, _ = write_signal(tmp_path, 2, (16, 16))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    clean = dec_path.read_bytes()
    assert clean.count(old) == 1
    blob = clean.replace(old, new)
    with pytest.raises(FileFormatError, match="departs from"):
        decomposition_from_bytes(blob)
    dec_path.write_bytes(blob)
    rec = tmp_path / "rec.vwav"
    capsys.readouterr()
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(rec), "--inverse"]) == 2
    assert "departs from" in capsys.readouterr().err
    assert not rec.exists()


def test_vdec_single_byte_edits_keep_their_messages():
    # every one-byte replacement, deletion and insertion in the manifest of
    # a small .vdec, decoded; the digest pins the outcome of each edit, in
    # order, as the decoder gave it when it found the departing line by a
    # byte-wise scan; a header edited to d = 4, 5 or 6 is refused by its
    # partition, as d <= 6 is a valid geometry
    basis = build_basis_nd(haar_filter(), 1, 2)
    blob = decomposition_to_bytes(analyze_vector(VectorSignal(np.arange(4.0).reshape(2, 2)), basis, 0))
    head = blob.index(b"end\n") + 4
    assert head == 102

    def edits():
        for pos in range(head):
            for b in range(256):
                if b != blob[pos]:
                    yield blob[:pos] + bytes([b]) + blob[pos + 1 :]
            yield blob[:pos] + blob[pos + 1 :]
        for pos in range(head + 1):
            for b in range(256):
                yield blob[:pos] + bytes([b]) + blob[pos:]

    outcomes = []
    for edited in edits():
        try:
            decomposition_from_bytes(edited)
            outcomes.append("accepted")
        except VecwaveError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert len(outcomes) == 52480
    assert sum("departs from" in o for o in outcomes) == 21053
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "abbfc6bf878ccd249b43c0c8e3aa5190136602a3f9b1b45b6ff87f62f756fb44"


@pytest.mark.parametrize("flags", [["--levels", "3"], ["--threshold", "5"], ["--threshold", "5", "--levels", "3"],
                                   ["--norm", "frobenius"]])
def test_inverse_refuses_forward_only_flags(tmp_path, capsys, flags):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    dec_path = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(dec_path), "--levels", "1"]) == 0
    rec = tmp_path / "rec.vwav"
    capsys.readouterr()
    assert main(["transform", "--in", str(dec_path), "--manifest", str(manifest),
                 "--out", str(rec), "--inverse", *flags]) == 2
    assert "forward transform only" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "values, labels",
    [
        ("1e308 -1e308 0 2", ("-1e+308", "1e+308")),
        # the padded upper bound rounds back up to 2**1024, past the largest float
        ("1.7976931348623157e308 -8.98846567431158e307 1 0", ("-8.98847e+307", "1.79769e+308")),
    ],
)
def test_plot_function_draws_samples_whose_range_overflows(tmp_path, values, labels):
    csv_path = tmp_path / "fn.csv"
    csv_path.write_text("# start=0 step=2^-3 len=4\n" + "\n".join(values.split()) + "\n")
    out = tmp_path / "fn.svg"
    assert main(["plot", "--function", str(csv_path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    points = polyline_points(svg)
    assert len(points) == 8
    ys = [y for _, y in points]
    assert min(ys) >= 0.0 and max(ys) <= 360.0
    for label in labels:
        assert f">{label}</text>" in svg


def test_plot_j_flag_sets_the_grid_level(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, d=1, m=1)
    out = tmp_path / "phi.svg"
    monkeypatch.setenv("VECWAVE_J", "4")
    assert main(["plot", "--manifest", str(manifest), "--family", "Phi1",
                 "--out", str(out)]) == 0
    assert "J=10" in out.read_text()
    assert main(["plot", "--manifest", str(manifest), "--family", "Phi1",
                 "--j", "4", "--out", str(out)]) == 0
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


@pytest.mark.parametrize("flags, code, named", [
    (["--function", "fn.csv", "--family", "Psi1"], 2, "--family"),
    (["--function", "fn.csv", "--channel", "7", "--level", "9", "--j", "3"], 2, "--channel, --level, --j"),
    (["--function", "fn.csv", "--channel", "1"], 2, "--channel"),
    (["--function", "fn.csv", "--level", "0"], 2, "--level"),
    (["--function", "fn.csv", "--j", "10"], 2, "--j"),
    (["--function", "fn.csv"], 0, None),
    (["--manifest", "basis.txt", "--family", "Psi1"], 0, None),
    (["--manifest", "basis.txt", "--family", "Psi1", "--channel", "2", "--level", "1", "--j", "6"], 0, None),
])
def test_plot_refuses_the_flags_its_mode_does_not_use(tmp_path, capsys, monkeypatch, flags, code, named):
    (tmp_path / "basis.txt").write_text(catalog_manifest(build_basis_nd(haar_filter(), 1, 2)))
    (tmp_path / "fn.csv").write_text(sampled_to_csv(refine_sample(haar_filter(), "scaling", 2)))
    monkeypatch.chdir(tmp_path)
    assert main(["plot", *flags, "--out", "plot.svg"]) == code
    err = capsys.readouterr().err
    if named is None:
        assert err == "" and (tmp_path / "plot.svg").exists()
    else:
        assert f"--function does not use {named}" in err
        assert not (tmp_path / "plot.svg").exists()


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


@pytest.mark.parametrize("case", ["verify-j", "plot-j"])
def test_huge_grid_levels_are_refused_at_once(tmp_path, capsys, case):
    # computed first, 2**J would take time and memory that grow with J
    manifest = str(build_manifest(tmp_path, name="db2", d=1, m=2))
    argv = {
        "verify-j": ["verify", "--manifest", manifest, "--j", str(10**9)],
        "plot-j": ["plot", "--manifest", manifest, "--family", "Phi1",
                   "--j", str(10**9), "--out", str(tmp_path / "phi.svg")],
    }[case]
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
                                    "--out", str(tmp_path / "rec.vwav"), "--inverse"], "manifest line 3 departs")


def test_huge_partition_order_is_refused_at_once(tmp_path):
    # a 68-byte .vdec whose header m would make {1..m}^d hold 4 million rows;
    # run apart, so a regression fails on the timeout instead of hanging
    manifest = build_manifest(tmp_path, d=2)
    dec_path = tmp_path / "huge-m.vdec"
    dec_path.write_bytes(b"VDEC1 d=2 m=2000 n=2 levels=0 filter=haar bands=0\npartition=1,1\nend\n")
    code = (
        "import sys, time\n"
        "from vecwave.cli import main\n"
        "t0 = time.perf_counter()\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, time.perf_counter() - t0)\n"
    )
    src = str(Path(vecwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code, "transform", "--in", str(dec_path), "--manifest",
         str(manifest), "--out", str(tmp_path / "rec.vwav"), "--inverse"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    rc, seconds = out.stdout.split()
    assert rc == "2"
    assert float(seconds) < 1.0
    assert "invalid partition" in out.stderr


def test_huge_band_count_is_refused_at_once(tmp_path, capsys):
    # a 49 KB .vdec whose header d=6 m=4 n=2**62 implies 65 536 bands of at
    # least m * m values each: too many for its bytes, so _layout never lists them
    manifest = str(build_manifest(tmp_path, d=1, m=1))
    rows = "/".join(";".join(",".join(map(str, row)) for row in block) for block in cyclic_partition(6, 4).blocks)
    dec_path = tmp_path / "huge.vdec"
    dec_path.write_bytes(f"VDEC1 d=6 m=4 n={2**62} levels=1 filter=haar bands=1\npartition={rows}\nend\n".encode())
    argv = ["transform", "--in", str(dec_path), "--manifest", manifest, "--out", str(tmp_path / "rec.vwav"), "--inverse"]
    assert_refused_at_once(capsys, argv, "too few for the 65536 bands its header implies")
    tracemalloc.start()
    try:
        assert main(argv) == 2
        # the parsed partition's tuples; listing the layout took about 256 MB
        assert tracemalloc.get_traced_memory()[1] < 2**22
    finally:
        tracemalloc.stop()


def test_transform_refuses_a_huge_levels_budget(tmp_path, capsys):
    manifest = build_manifest(tmp_path, d=1)
    sig_path, _ = write_signal(tmp_path, 2, (64,))
    out = tmp_path / "dec.vdec"
    assert main(["transform", "--in", str(sig_path), "--manifest", str(manifest),
                 "--out", str(out), "--levels", "1000000000000000000000"]) == 2
    assert "exceed log2(n) = 6" in capsys.readouterr().err
    assert not out.exists()


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["build"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _run_python(args, **env):
    src = str(Path(vecwave.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=300,
    )


def test_verify_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # db10 d=1 m=3 wrote other gram and vanishing-moments bytes under one
    # and two OpenBLAS threads while np.dot summed them
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs two cores to run two BLAS threads")
    manifest = build_manifest(tmp_path, name="db10", d=1, m=3)
    reports = []
    for threads in ("1", "2"):
        report = tmp_path / f"report-{threads}.csv"
        _run_python(
            ["-m", "vecwave.cli", "verify", "--manifest", str(manifest), "--profile", "sampled",
             "--j", "10", "--report", str(report)],
            OPENBLAS_NUM_THREADS=threads,
        )
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_cold_verify_builds_no_table_finer_than_j():
    # the Gram rows read no cascade table, so the deepest is the level-J
    # sampling of refinement-residual and vanishing-moments
    code = (
        "from vecwave import scalar\n"
        "from vecwave.basisnd import build_basis_nd\n"
        "from vecwave.cli import run_verify\n"
        "filt = scalar.filter_by_name('db10')\n"
        "run_verify(build_basis_nd(filt, 1, 3), 10, 'sampled')\n"
        "print(max(level for level, _ in scalar._table_cache[filt].values()))\n"
    )
    assert _run_python(["-c", code]).stdout.strip() == "10"


def test_cold_verify_leaves_numpy_ma_unimported():
    # grouping the Gram's tags with np.unique would import numpy.ma, about
    # 1.5 MiB of peak memory in a cold CLI verify
    code = (
        "import sys\n"
        "from vecwave import scalar\n"
        "from vecwave.basisnd import build_basis_nd\n"
        "from vecwave.cli import run_verify\n"
        "assert run_verify(build_basis_nd(scalar.filter_by_name('db10'), 1, 2), 10, 'sampled').passed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_python(["-c", code]).stdout.strip() == "False"


def _overflow_probes(tmp_path):
    """haar d=1 m=2 on n = 64: a forward whose sums pass float64's largest
    value, an inverse of 1.7e308 in every valid slot, and a forward whose
    thresholded norms overflow while its coefficients do not."""
    basis = build_basis_nd(haar_filter(), 1, 2)
    manifest = tmp_path / "haar-1-2.txt"
    manifest.write_bytes(catalog_manifest(basis).encode("ascii"))
    (tmp_path / "big.vwav").write_bytes(signal_to_bytes(VectorSignal(np.full((2, 64), 1e308))))
    dec = analyze_vector(VectorSignal(np.ones((2, 64))), basis, 2)
    bands = []
    for band in dec.bands:
        values = np.zeros(band.values.shape)
        for rho, col in enumerate(band.cols):
            values[(slice(None), rho) + tuple(slice(0, length) for _, _, length in col)] = 1.7e308
        bands.append(replace(band, values=values))
    (tmp_path / "big.vdec").write_bytes(decomposition_to_bytes(replace(dec, bands=tuple(bands))))
    e300 = VectorSignal(1e300 * np.random.default_rng(7).standard_normal((2, 64)))
    (tmp_path / "e300.vwav").write_bytes(signal_to_bytes(e300))
    return basis, manifest, e300


def test_overflow_is_refused_by_the_library(tmp_path):
    # pytest turns a RuntimeWarning into an error, so a numpy warning fails here
    basis, _, e300 = _overflow_probes(tmp_path)
    with pytest.raises(ValueError, match="^float64 overflowed in analysis"):
        analyze_vector(signal_from_bytes((tmp_path / "big.vwav").read_bytes()), basis, 2)
    with pytest.raises(ValueError, match="^float64 overflowed in synthesis"):
        synthesize_vector(decomposition_from_bytes((tmp_path / "big.vdec").read_bytes()), basis)
    # every norm overflows or exceeds tau, so every matrix is kept as it is
    dec = analyze_vector(e300, basis, 2)
    with np.errstate(over="ignore"):
        assert any(np.isinf(np.sum(band.values**2)) for band in dec.bands)
    for norm in ("frobenius", "norm1"):
        assert decomposition_to_bytes(threshold_matrix(dec, 0.25, norm)) == decomposition_to_bytes(dec)


def test_threshold_inf_keeps_every_matrix_whose_norm_overflows(tmp_path):
    # an overflowed norm is inf, never below tau, so tau = inf keeps those
    # wavelet matrices as well as the approximation content
    basis, _, e300 = _overflow_probes(tmp_path)
    dec = analyze_vector(e300, basis, 2)
    kept = threshold_matrix(dec, np.inf)
    assert sum(int(np.count_nonzero(band.values)) for band in kept.bands if band.level >= 0) == 120
    for band, was in zip(kept.bands, dec.bands):
        if band.level >= 0:
            with np.errstate(over="ignore"):
                overflowed = np.isinf(np.sum(was.values**2, axis=(0, 1)))
            assert_array_equal(band.values, was.values * overflowed)


def test_energy_that_overflows_is_inf_without_a_warning(tmp_path):
    # pytest turns a RuntimeWarning into an error, so a numpy warning fails here
    basis, _, e300 = _overflow_probes(tmp_path)
    assert e300.energy() == np.inf
    assert analyze_vector(e300, basis, 2).energy() == np.inf


@pytest.mark.parametrize("probe", ["forward", "inverse", "threshold"])
def test_overflow_probes_exit_without_a_warning(tmp_path, probe):
    basis, manifest, e300 = _overflow_probes(tmp_path)
    out = tmp_path / "out.bin"
    args = {
        "forward": ["--in", str(tmp_path / "big.vwav"), "--levels", "2"],
        "inverse": ["--in", str(tmp_path / "big.vdec"), "--inverse"],
        "threshold": ["--in", str(tmp_path / "e300.vwav"), "--levels", "2", "--threshold", "0.25"],
    }[probe]
    src = str(Path(vecwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    run = subprocess.run(
        [sys.executable, "-m", "vecwave.cli", "transform", "--manifest", str(manifest), "--out", str(out), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert "RuntimeWarning" not in run.stderr and "Traceback" not in run.stderr
    if probe == "threshold":
        assert run.returncode == 0, run.stderr
        want = threshold_matrix(analyze_vector(e300, basis, 2), 0.25)
        assert out.read_bytes() == decomposition_to_bytes(want)
    else:
        assert run.returncode == 2
        assert run.stderr.startswith("error: float64 overflowed in ")
        assert not out.exists()
