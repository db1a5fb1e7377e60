"""Property tests of the transform and its file formats.

Examples are derandomized and bounded, so the suite draws the same cases on
every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from vecwave import (
    VecwaveError,
    catalog_manifest,
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    decomposition_from_bytes,
    decomposition_to_bytes,
    filter_by_name,
    signal_from_bytes,
    signal_to_bytes,
    synthesize_vector,
    threshold_matrix,
)
from vecwave.cli import load_manifest

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# largest log2(n) drawn per d, which keeps every signal at or below 3 * 4096 samples
MAX_LOG2_N = {1: 8, 2: 5, 3: 4}


@st.composite
def transform_cases(draw):
    name = draw(st.sampled_from(("haar", "db2", "db3", "db4", "db10")))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    smax = draw(st.integers(m - 1, MAX_LOG2_N[d]))
    levels = draw(st.integers(0, (smax - m + 1) // m))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal((m,) + (2**smax,) * d)
    return build_basis_nd(filter_by_name(name), d, m), VectorSignal(values), levels


@PROPERTY
@given(transform_cases())
def test_analyze_synthesize_reconstructs(case):
    basis, sig, levels = case
    dec = analyze_vector(sig, basis, levels)
    rec = synthesize_vector(dec, basis)
    scale = np.max(np.abs(sig.values))
    assert np.max(np.abs(rec.values - sig.values)) <= 1e-10 * scale
    assert abs(dec.energy() - sig.energy()) <= 1e-10 * sig.energy()
    assert dec.census() == sig.m * sig.n**sig.d


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_signal_bytes_round_trip(d, m, data):
    n = 2 ** data.draw(st.integers(0, MAX_LOG2_N[d]))
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((m,) + (n,) * d)
    values[values > 1.5] = -0.0
    blob = signal_to_bytes(VectorSignal(values))
    back = signal_from_bytes(blob)
    assert (back.d, back.m, back.n) == (d, m, n)
    assert_array_equal(np.signbit(back.values), np.signbit(values))
    assert signal_to_bytes(back) == blob


@PROPERTY
@given(transform_cases(), st.sampled_from((None, 0.0, 0.5, np.inf)))
def test_decomposition_bytes_round_trip(case, tau):
    basis, sig, levels = case
    dec = analyze_vector(sig, basis, levels)
    if tau is not None:
        dec = threshold_matrix(dec, tau)
    blob = decomposition_to_bytes(dec)
    back = decomposition_from_bytes(blob)
    assert (back.d, back.m, back.n, back.levels) == (dec.d, dec.m, dec.n, dec.levels)
    assert decomposition_to_bytes(back) == blob


def _valid_files():
    rng = np.random.default_rng(0)
    files = []
    for name, d, m, n, levels in (("haar", 1, 2, 16, 1), ("db2", 2, 2, 8, 1), ("haar", 3, 2, 4, 0), ("db2", 3, 1, 4, 1)):
        basis = build_basis_nd(filter_by_name(name), d, m)
        sig = VectorSignal(rng.standard_normal((m,) + (n,) * d))
        files.append((signal_to_bytes(sig), None))
        files.append((decomposition_to_bytes(analyze_vector(sig, basis, levels)), basis))
    return files


VALID_FILES = _valid_files()

# bytes that keep a mutated header or manifest line close to parsing
TOKEN_BYTES = st.sampled_from(b"0123456789=-,;:|/\n .adelnprtx")
edits = st.tuples(
    st.sampled_from(("replace", "insert", "delete")),
    # most draws land in the header and manifest, the rest anywhere
    st.one_of(st.integers(0, 160), st.integers(0, 2**20)),
    st.one_of(TOKEN_BYTES, st.integers(0, 255)),
)


def _mutate(blob, mutations):
    data = bytearray(blob)
    for kind, pos, byte in mutations:
        pos %= len(data) + 1
        if kind == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if kind == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.integers(0, len(VALID_FILES) - 1), st.lists(edits, min_size=1, max_size=4))
def test_mutated_files_raise_only_vecwave_errors(index, mutations):
    blob, basis = VALID_FILES[index]
    data = _mutate(blob, mutations)
    try:
        if basis is None:
            signal_from_bytes(bytes(data))
            return
        dec = decomposition_from_bytes(bytes(data))
        same_geometry = (dec.d, dec.m, dec.filter_name) == (basis.d, basis.m, basis.mw.filter.name)
        if same_geometry and dec.partition.blocks == basis.partition.blocks:
            synthesize_vector(dec, basis)
    except VecwaveError:
        pass


VALID_MANIFESTS = [
    catalog_manifest(build_basis_nd(filter_by_name(name), d, m)).encode("ascii")
    for name, d, m in (("haar", 1, 2), ("db2", 2, 2), ("haar", 3, 2))
]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.integers(0, len(VALID_MANIFESTS) - 1), st.lists(edits, min_size=1, max_size=4))
def test_mutated_manifests_raise_only_vecwave_errors(index, mutations):
    text = _mutate(VALID_MANIFESTS[index], mutations).decode("latin-1")
    try:
        basis = load_manifest(text)
    except VecwaveError:
        return
    assert catalog_manifest(basis) == text.replace("\r\n", "\n")
