"""Byte-level regression of the transform and its file formats.

The SHA-256 digests below were taken from the roll-per-tap step kernel that
preceded the polyphase one.  Any change to the periodized step, the band
packing, the thresholding or the serializers that alters a single output
bit, signed zeros included, fails here.

``GOLDEN_REPORTS`` pins the bytes of ``run_verify``'s CSV report, taken
before the zeroth moment's ``math.fsum`` over a Python list gave way to an
exact sum at array speed and the refinement residual stopped forming its
zero-coefficient products.  Its sampled rows are the ones those sums feed.
"""

import hashlib

import numpy as np
import pytest

from vecwave import (
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    build_vector_basis,
    decomposition_to_bytes,
    filter_by_name,
    signal_to_bytes,
    synthesize_vector,
    threshold_matrix,
)
from vecwave.cli import run_verify

# (filter, d, m, n, levels, seed) -> digests of
# (vdec, vdec at tau = 0.25, vwav of the synthesis, vwav of the thresholded synthesis)
GOLDEN = {
    ("db10", 1, 2, 2**12, 3, 101): (
        "5dc05f13586c2c373d31c8344e2b797f2ebeffa465e4474d2d75d68c02519ac9",
        "876259bb39cce1db60e47584f65a03eedb0cdbc6d66adec44da3f1f6fce54588",
        "4669ee8cc5ae15573a2f476ac8b067b14a37c3c49c36dfb803706c8c11762ca6",
        "42254a8d4ea6fa624c96531c665551f138b2d8caa6f6ea509e66a6059dde53ef",
    ),
    ("haar", 2, 3, 256, 2, 102): (
        "57b582424d088fa06315a835803bd9c8bc40d718b79ee3ec5af3807df0ec9cea",
        "29f7dee0e5709b55638c7d8598f5144cf74b31b48da565c36f8a266233958c76",
        "e57bc804d6d89ab76343c17436157b2227b88b44c586ed5cdd80b97faecfceb4",
        "ee25bdc62ae3b3208c9a980a7df4e4933553760f581ada06306626bd204a0272",
    ),
    ("db4", 2, 2, 64, 2, 103): (
        "b3c973e90a9bd828e996c1d0e977e26fa4457abecd3713720ed933ed0656e3d6",
        "d681138ec142b422fbd9cb3c4542eb145f74bdd9875031e4c48a9171bbe20d3d",
        "7eaede4eacfd28e9a06d3b20a6dafa0409e99f795a807bcee0116fc84ec97ca8",
        "b339ba0c5a25a5811f3597194f8071a87ae4d7f680a17ab869fafcb07842b6e2",
    ),
    # taken from the hand-written per-axis scale map that preceded the
    # catalog's factor_component in the band packing
    ("db2", 3, 2, 16, 1, 104): (
        "9aac50d6fc8696b7bf408d06b8acd1cf7b3421e241129407cbc8b06eb02bd12b",
        "75631b4ac67c4da3045e821131ffe251587cdf8f8a401de71703be9f4d590aca",
        "f85f10f89b277207a09a24a089ae173d77ee4a92814f51e44c41cfb91814137e",
        "3dfdede55bbc7ff737a68100eef06d6415bd64839be7e946c9acbf1d339bb35c",
    ),
}


def _signal(d, m, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m,) + (n,) * d)
    # signed zeros in the input reach the outputs through the zero-start sums
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, flat.size // 16, replace=False)] = -0.0
    flat[rng.choice(flat.size, flat.size // 16, replace=False)] = 0.0
    return VectorSignal(values)


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-d{c[1]}-m{c[2]}-n{c[3]}-L{c[4]}")
def test_transform_bytes_match_golden(case):
    name, d, m, n, levels, seed = case
    filt = filter_by_name(name)
    basis = build_vector_basis(filt, m) if d == 1 else build_basis_nd(filt, d, m)
    dec = analyze_vector(_signal(d, m, n, seed), basis, levels)
    cut = threshold_matrix(dec, 0.25)
    got = (
        _digest(decomposition_to_bytes(dec)),
        _digest(decomposition_to_bytes(cut)),
        _digest(signal_to_bytes(synthesize_vector(dec, basis))),
        _digest(signal_to_bytes(synthesize_vector(cut, basis))),
    )
    assert got == GOLDEN[case]


# (filter, d, m, profile, J) -> digest of run_verify(...).to_csv()
GOLDEN_REPORTS = {
    ("db10", 1, 1, "sampled", 10): "1500d2cb612947b628795d009f33bde2ecc78088fc87411228eac32923befcf3",
    ("db10", 1, 1, "sampled", 16): "eb29579a938e64f8800af5ff519e8761320ea85fb46361a0de47d7b03b6e3a71",
    ("db10", 1, 2, "sampled", 10): "646344841dbc5d1fbe3ad15a595c0c492f644998184039886d14c34111fe6a68",
    ("db10", 1, 2, "sampled", 16): "f7a65ca82cf52e233561709073389cf85533d3498ac43a146de4923591e34e26",
    ("db10", 1, 3, "sampled", 10): "411527a841a0271d5cb2122356e953c13d612aa94acaf7b55fdc4ea86f49dd8e",
    ("db10", 1, 3, "sampled", 16): "d03648f89e815fa9bcbadb0da231954af3669c0681c1cddf9215d668f6c0c641",
    ("haar", 2, 2, "exact", 10): "ed31b578dc1982eeee4f9f5e556d6f8b59a31e7372b7885912a0dab1553bd6f6",
    ("haar", 2, 3, "exact", 10): "9331df88d87e9fe551d960888fba38d65f00d9b197ce202341c2e69caf6cc1f2",
    ("db4", 2, 2, "sampled", 8): "d080058bc17dbc6d85b58405d25e017c4d1d308edf38c66dadf1b005a63a3805",
    ("db2", 3, 2, "exact", 10): "e68bfed9073afd62ae88a0a3c83d3858272d407be9ffcb830c550b9c54bc72ca",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS), ids=lambda c: f"{c[0]}-d{c[1]}-m{c[2]}-{c[3]}-J{c[4]}")
def test_verify_report_bytes_match_golden(case):
    name, d, m, profile, J = case
    report = run_verify(build_basis_nd(filter_by_name(name), d, m), J, profile)
    assert _digest(report.to_csv().encode("ascii")) == GOLDEN_REPORTS[case]
