"""Property tests of the transform and its file formats.

Examples are derandomized and bounded, so the suite draws the same cases on
every run.
"""

import math
import re

import numpy as np
import pytest
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
from vecwave.basisnd import Partition
from vecwave.cli import load_manifest
from vecwave.errors import FileFormatError
from vecwave.scalar import _MAX_MOMENT, _dot, _fsum, _moments, moment, refine_sample
from vecwave.tensor import MAX_ENUM_D, MAX_ENUM_M

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


# The basis-manifest reader as it stood before it rebuilt the whole text
# from the header and partition: it parsed every line, then compared the
# text with the catalog it built.  Kept verbatim as the oracle of the
# accepted set.
_OLD_MANIFEST_HEAD = re.compile(
    r"^filter=(\S+) d=([0-9]{1,20}) m=([0-9]{1,20}) dilation=([0-9]{1,20}) blocks=([0-9]{1,20})$"
)
_OLD_MANIFEST_FAM = re.compile(r"^family=(\S+) eps=([01]+) block=([0-9]{1,20}) rows=(\S+)$")


def _old_load_manifest(text):
    lines = [line for line in text.replace("\r\n", "\n").split("\n") if line]
    if not lines:
        raise FileFormatError("empty manifest")
    head = _OLD_MANIFEST_HEAD.match(lines[0])
    if not head:
        raise FileFormatError(f"malformed manifest header: {lines[0]!r}")
    name = head.group(1)
    d, m, dilation, nblocks = (int(head.group(i)) for i in (2, 3, 4, 5))
    if not (1 <= d <= MAX_ENUM_D and 1 <= m <= MAX_ENUM_M):
        raise FileFormatError(f"manifest needs 1 <= d <= {MAX_ENUM_D}, 1 <= m <= {MAX_ENUM_M}; got d={d} m={m}")
    if nblocks != m ** (d - 1):
        raise FileFormatError(f"manifest lists {nblocks} blocks, d={d} m={m} has {m ** (d - 1)}")
    try:
        filt = filter_by_name(name)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    if dilation != 2**m:
        raise FileFormatError(f"dilation {dilation} does not match m={m}")
    blocks = [None] * nblocks
    for line in lines[1:]:
        fam = _OLD_MANIFEST_FAM.match(line)
        if not fam:
            raise FileFormatError(f"malformed manifest line: {line!r}")
        if fam.group(2) != "0" * d:
            continue
        block = int(fam.group(3))
        if not 0 <= block < nblocks:
            raise FileFormatError(f"block index {block} out of range")
        try:
            rows = tuple(tuple(int(a) for a in row.split(",")) for row in fam.group(4).split(";"))
        except ValueError as exc:
            raise FileFormatError(f"malformed rows in: {line!r}") from exc
        blocks[block] = rows
    if any(b is None for b in blocks):
        raise FileFormatError("manifest does not list every partition block")
    try:
        basis = build_basis_nd(filt, d, m, Partition(d, m, tuple(blocks)))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    if catalog_manifest(basis) != text.replace("\r\n", "\n"):
        raise FileFormatError("manifest text does not match its own catalog")
    return basis


def _verdict(load, text):
    try:
        return catalog_manifest(load(text))
    except VecwaveError:
        return "refused"


# an edit at a drawn offset from the end of a drawn line, where line ends,
# CR and whitespace decide between accepted and refused
line_end_edits = st.tuples(
    st.sampled_from(("replace", "insert", "delete")),
    st.integers(0, 2**10),
    st.integers(-2, 1),
    st.one_of(st.sampled_from(b"\r\n "), TOKEN_BYTES, st.integers(0, 255)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(
    st.integers(0, len(VALID_MANIFESTS) - 1),
    st.booleans(),
    st.lists(st.integers(0, 2**10), max_size=2),
    st.lists(st.one_of(edits, line_end_edits), max_size=4),
)
def test_manifest_reader_accepts_what_the_line_parser_accepted(index, crlf, swap, mutations):
    # a valid manifest, maybe with CRLF line ends, two of its lines swapped
    # and a few bytes edited: both readers accept it with the same catalog,
    # or both refuse it
    lines = VALID_MANIFESTS[index].split(b"\n")
    if len(swap) == 2:
        a, b = (i % len(lines) for i in swap)
        lines[a], lines[b] = lines[b], lines[a]
    blob = (b"\r\n" if crlf else b"\n").join(lines)
    ends = [i for i, byte in enumerate(blob) if byte == ord("\n")]
    mutations = [
        (edit[0], max(0, ends[edit[1] % len(ends)] + edit[2]), edit[3]) if len(edit) == 4 else edit
        for edit in mutations
    ]
    text = _mutate(blob, mutations).decode("latin-1")
    assert _verdict(load_manifest, text) == _verdict(_old_load_manifest, text)


def test_manifest_reader_agrees_at_the_edge_of_valid():
    # whitespace and line-end edits that a lenient reader would let through
    for blob in VALID_MANIFESTS:
        text = blob.decode("ascii")
        lines = text.split("\n")
        variants = [text, text + "\n", text[:-1], "\n" + text, text + "\r\n", text + "\r", text + " "]
        variants.append(text.replace("\n", "\r\n", 1))
        for k in range(len(lines) - 1):
            for edit in (lines[k] + " ", lines[k] + "\r", lines[k] + "\t", " " + lines[k], lines[k].replace(" ", "  ", 1), ""):
                variants.append("\n".join(lines[:k] + [edit] + lines[k + 1 :]))
        for variant in variants:
            verdict = _verdict(load_manifest, variant)
            assert verdict == _verdict(_old_load_manifest, variant), repr(variant)
            # only CRLF line ends are forgiven
            assert (verdict != "refused") == (variant.replace("\r\n", "\n") == text), repr(variant)


@st.composite
def float_arrays(draw):
    """Up to 4096 floats for the exact sum.

    Magnitudes span a drawn window of exponents anywhere from the
    subnormals to the largest finite values, with a drawn share of signed
    zeros and maybe exact x / -x pairs; or they fill one binade with
    mantissas near 1, nearly all of one sign, so that the high parts of a
    round sum to near n * max|x|, the most sigma allows for.  An array may
    instead be all -0.0, or hold NaN or infinities.
    """
    n = draw(st.sampled_from((0, 1, 2, 31, 32, 33, 34, 64)) | st.integers(35, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # subnormals, the 2**+-900 edges and the top of the range, or anywhere
    lo = draw(st.sampled_from((-1080, -1030, -960, -900, -60, 0, 850, 900, 1000)) | st.integers(-1080, 1023))
    if draw(st.booleans()):
        signs = rng.choice((-1.0, 1.0), n, p=(0.02, 0.98))
        values = signs * np.ldexp(rng.uniform(0.96, 1.0, n), lo)
    else:
        hi = min(1024, lo + draw(st.sampled_from((0, 1, 8, 60, 200, 2104))))
        signs = rng.choice((-1.0, 1.0), n)
        values = signs * np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n))
        zeros = rng.random(n) < draw(st.sampled_from((0.0, 0.0, 0.1, 0.5, 1.0)))
        values[zeros] = rng.choice((-0.0, 0.0), int(zeros.sum()))
        if draw(st.booleans()):
            values[: n // 2] = -values[n - n // 2 :]
            values = rng.permutation(values)
    kind = draw(st.sampled_from(["finite"] * 12 + ["-0.0", "nan", "inf", "-inf", "inf -inf", "nan inf"]))
    if kind == "-0.0":
        values = np.full(n, -0.0)
    elif kind != "finite" and n:
        specials = [float(word) for word in kind.split()]
        values[rng.integers(0, n, len(specials))] = specials
    return values


def _fsum_outcome(fn, values):
    """The hex of ``fn(values)``, or the type and text of what it raised."""
    try:
        return fn(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(float_arrays())
def test_exact_sum_keeps_the_bits_of_fsum(values):
    want = _fsum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert _fsum_outcome(_fsum, values) == want


# moment as it was before the moments row shared one power ladder, p = 0
# summed by math.fsum over a Python list
def _per_order_moment(f, p):
    if p == 0:
        return math.fsum(f.values.tolist()) * f.step
    x = f.grid()
    xp = x.copy()
    for _ in range(p - 1):
        xp *= x
    return _dot(xp, f.values) * f.step


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(2, 11)])
def test_moment_ladder_keeps_the_bits_of_per_order_moments(name):
    filt = filter_by_name(name)
    for J in (0, 3, 10, 14):
        for which in ("scaling", "wavelet"):
            f = refine_sample(filt, which, J)
            want = [_per_order_moment(f, p).hex() for p in range(_MAX_MOMENT + 1)]
            assert [v.hex() for v in _moments(f, _MAX_MOMENT + 1)] == want, (J, which)
            assert [moment(f, p).hex() for p in range(_MAX_MOMENT + 1)] == want, (J, which)
            count = filt.vanishing_moments
            assert [v.hex() for v in _moments(f, count)] == want[:count], (J, which)
