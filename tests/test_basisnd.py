import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vecwave
from vecwave import basis1d, basisnd
from vecwave.basis1d import Component, expand_factor
from vecwave.basisnd import (
    FactorInnerCache,
    Partition,
    VectorAtomND,
    build_basis_nd,
    catalog_atoms,
    catalog_manifest,
    catalog_rows,
    catalog_star_deviation,
    catalog_2x2,
    cyclic_partition,
    make_atom,
    random_partition,
    sample_vector_atom_nd,
    star_nd_separable,
)
from vecwave.errors import ResolutionError, SizeGuardError
from vecwave.scalar import _dot, filter_by_name, haar_filter
from vecwave.star import star
from vecwave.tensor import MAX_ENUM_M, MAX_SWEEP_ROWS, factor_component

from test_basis1d import dense_expansion, tap_inner

from itertools import product
from math import comb


def test_cyclic_partition_d2_m2():
    p = cyclic_partition(2, 2)
    assert p.blocks == (((1, 1), (2, 2)), ((1, 2), (2, 1)))


def test_cyclic_partition_d1():
    p = cyclic_partition(1, 3)
    assert p.blocks == (((1,), (2,), (3,)),)


def test_cyclic_partition_axioms():
    for d, m in [(2, 3), (3, 2), (3, 3), (2, 4)]:
        p = cyclic_partition(d, m)
        assert len(p.blocks) == m ** (d - 1)
        seen = set()
        for block in p.blocks:
            assert len(block) == m
            assert len(set(block)) == m
            assert not (seen & set(block))
            seen |= set(block)
        assert seen == set(product(range(1, m + 1), repeat=d))


def test_random_partition_valid_and_reproducible():
    for seed in range(5):
        p = random_partition(3, 2, seed)
        q = random_partition(3, 2, seed)
        assert p.blocks == q.blocks
    assert random_partition(2, 3, 0).blocks != random_partition(2, 3, 1).blocks


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, 2, (((1, 1), (2, 2)),))
    with pytest.raises(ValueError):
        Partition(2, 2, (((1, 1), (1, 1)), ((1, 2), (2, 1))))
    with pytest.raises(ValueError):
        Partition(2, 2, (((1, 1), (2, 2)), ((1, 2), (1, 1))))
    with pytest.raises(ValueError):
        Partition(2, 2, (((1, 1), (2, 2)), ((1, 2), (2, 2))))
    with pytest.raises(ValueError, match="entries in 1..2"):
        Partition(2, 2, (((1, 1), (2, 2)), ((1, 2), (2, 3))))
    with pytest.raises(ValueError, match="entries in 1..2"):
        Partition(2, 2, (((1, 1), (2, 2)), ((1, 2), (2,))))
    # entries are integers: the manifest writes each one as an int
    for bad in (1.5, 1.0):
        with pytest.raises(ValueError, match="entries in 1..2"):
            Partition(1, 2, (((bad,), (2,)),))
    loose = Partition(2, 2, (((True, 1), (2, 2)), ((np.int64(1), 2), (2, 1))))
    text = catalog_manifest(build_basis_nd(haar_filter(), 2, 2, loose))
    assert text == catalog_manifest(build_basis_nd(haar_filter(), 2, 2))


def test_catalog_d2_m2():
    b = build_basis_nd(haar_filter(), 2, 2)
    cat = catalog_2x2(b)
    assert [f.name for f in cat] == [
        "Phi1",
        "Phi2",
        "Psi1",
        "Psi2",
        "Psi3",
        "Psi4",
        "Psi5",
        "Psi6",
    ]
    assert cat[0].eps == (0, 0) and cat[0].rows == ((1, 1), (2, 2))
    assert cat[1].eps == (0, 0) and cat[1].rows == ((1, 2), (2, 1))
    assert cat[2].eps == (0, 1) and cat[2].rows == ((1, 1), (2, 2))
    assert cat[4].eps == (1, 0)
    assert cat[6].eps == (1, 1) and cat[6].rows == ((1, 1), (2, 2))
    assert cat[7].eps == (1, 1) and cat[7].rows == ((1, 2), (2, 1))


def test_catalog_2x2_guard():
    with pytest.raises(ValueError):
        catalog_2x2(build_basis_nd(haar_filter(), 2, 3))
    with pytest.raises(ValueError):
        catalog_2x2(build_basis_nd(haar_filter(), 1, 2))


def test_family_counts():
    for d, m in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        b = build_basis_nd(haar_filter(), d, m)
        assert len(b.scaling_families()) == m ** (d - 1)
        assert len(b.wavelet_families()) == sum(
            comb(d, e) * m ** (d - 1) for e in range(1, d + 1)
        )
        # Unstacking the m rows of each family recovers the scalar count.
        for e in range(d + 1):
            assert sum(len(f.rows) for f in b.families[e]) == comb(d, e) * m**d


def test_build_guards():
    with pytest.raises(SizeGuardError):
        build_basis_nd(haar_filter(), 7, 2)
    with pytest.raises(SizeGuardError):
        build_basis_nd(haar_filter(), 2, 5)
    with pytest.raises(ValueError):
        build_basis_nd(haar_filter(), 0, 2)
    with pytest.raises(ValueError):
        build_basis_nd(haar_filter(), 2, 2, cyclic_partition(2, 3))


def test_family_lookup():
    b = build_basis_nd(haar_filter(), 2, 2)
    assert b.family_by_name("Psi6").eps == (1, 1)
    with pytest.raises(KeyError):
        b.family_by_name("Psi7")


def test_sample_phi1_haar():
    b = build_basis_nd(haar_filter(), 2, 2)
    s = sample_vector_atom_nd(make_atom(b.family_by_name("Phi1"), 0, (0, 0)), b, 4)
    assert s.start == (0, 0)
    assert s.values.shape == (2, 16, 16)
    assert_array_equal(s.values[0], np.ones((16, 16)))
    psi = np.r_[np.ones(8), -np.ones(8)]
    assert_array_equal(s.values[1], np.outer(psi, psi))


def test_star_identity_and_block_orthogonality():
    b = build_basis_nd(haar_filter(), 2, 2)
    s1 = sample_vector_atom_nd(make_atom(b.family_by_name("Phi1"), 0, (0, 0)), b, 8)
    s2 = sample_vector_atom_nd(make_atom(b.family_by_name("Phi2"), 0, (0, 0)), b, 8)
    assert np.max(np.abs(star(s1, s1).entries - np.eye(2))) <= 1e-10
    assert np.max(np.abs(star(s1, s2).entries)) <= 1e-10


def test_atom_validation():
    with pytest.raises(ValueError):
        VectorAtomND((0, 1), 0, 0, (0,), ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        VectorAtomND((0, 1), 0, -1, (0, 0), ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        VectorAtomND((0, 1), 0, 0, (0, 0), ((1,), (2, 2)))
    a = VectorAtomND((0, 1), 0, 2, (3, -1), ((1, 1), (2, 2)))
    assert a.d == 2 and a.m == 2


def test_sample_guards():
    b = build_basis_nd(haar_filter(), 4, 2)
    fam = b.scaling_families()[0]
    with pytest.raises(SizeGuardError):
        sample_vector_atom_nd(make_atom(fam, 0, (0,) * 4), b, 4)
    b2 = build_basis_nd(haar_filter(), 2, 2)
    wav = b2.wavelet_families()[0]
    with pytest.raises(ResolutionError):
        sample_vector_atom_nd(make_atom(wav, 3, (0, 0)), b2, 4)


def test_catalog_star_deviation_haar():
    b = build_basis_nd(haar_filter(), 2, 2)
    assert catalog_star_deviation(b, 2, 2, 8) <= 1e-10


def test_catalog_star_deviation_random_partitions():
    for seed in range(3):
        p = random_partition(2, 2, seed)
        b = build_basis_nd(haar_filter(), 2, 2, p)
        assert catalog_star_deviation(b, 1, 1, 8) <= 1e-10


def test_catalog_star_deviation_m3():
    b = build_basis_nd(haar_filter(), 2, 3)
    assert catalog_star_deviation(b, 1, 1, 8) <= 1e-10


def test_separable_matches_dense():
    # The fast factorized star must agree with dense d-dimensional
    # quadrature on a random selection of catalog pairs.
    b = build_basis_nd(haar_filter(), 2, 2)
    atoms = catalog_atoms(b, 1, 1)
    cache = FactorInnerCache(b.mw.filter, 8)
    rng = np.random.default_rng(3)
    for _ in range(25):
        ia, ib = rng.integers(0, len(atoms), size=2)
        fast = star_nd_separable(atoms[ia], atoms[ib], b, cache).entries
        dense = star(
            sample_vector_atom_nd(atoms[ia], b, 8),
            sample_vector_atom_nd(atoms[ib], b, 8),
        ).entries
        assert np.max(np.abs(fast - dense)) <= 1e-12


def test_catalog_atom_census():
    b = build_basis_nd(haar_filter(), 2, 2)
    atoms = catalog_atoms(b, 2, 2)
    ks = 5**2
    assert len(atoms) == 2 * ks + 6 * 3 * ks


def test_db2_catalog_star_small():
    # The Gram comes from the filter taps, so the catalog deviation is at
    # rounding level and does not depend on J at all.
    b = build_basis_nd(filter_by_name("db2"), 2, 2)
    d8 = catalog_star_deviation(b, 0, 1, 8)
    d10 = catalog_star_deviation(b, 0, 1, 10)
    assert d8.hex() == d10.hex()
    assert d10 <= 1e-13


def test_manifest_golden():
    b = build_basis_nd(haar_filter(), 2, 2)
    text = catalog_manifest(b)
    lines = text.splitlines()
    assert lines[0] == "filter=haar d=2 m=2 dilation=4 blocks=2"
    assert lines[1] == "family=Phi1 eps=00 block=0 rows=1,1;2,2"
    assert lines[-1] == "family=Psi6 eps=11 block=1 rows=1,2;2,1"
    assert len(lines) == 9


def test_manifest_m1():
    b = build_basis_nd(haar_filter(), 1, 1)
    lines = catalog_manifest(b).splitlines()
    assert lines[1] == "family=Phi1 eps=0 block=0 rows=1"
    assert lines[2] == "family=Psi1 eps=1 block=0 rows=1"


# ---------------------------------------------------------------------------
# The per-pair loop forms that the Gram-table sweep replaced, kept as bitwise
# references, with the pair cache they read through; each pair is measured
# from dense tap expansions.


class _LoopInnerCache:
    def __init__(self, filt, J):
        self.filt = filt
        self.J = J
        self._inners = {}

    def inner(self, key_a, key_b):
        if key_b < key_a:
            key_a, key_b = key_b, key_a
        pair = (key_a, key_b)
        if pair not in self._inners:
            self._inners[pair] = tap_inner(self.filt, key_a, key_b)
        return self._inners[pair]


def _loop_factor_keys(atom, mw):
    keys = []
    for row in atom.rows:
        row_keys = []
        for i in range(atom.d):
            comp = factor_component(mw, atom.eps[i], row[i], atom.j)
            row_keys.append((comp.kind, comp.scale, atom.k[i]))
        keys.append(row_keys)
    return keys


def _loop_star_nd_separable(atom_a, atom_b, basis, cache):
    keys_a = _loop_factor_keys(atom_a, basis.mw)
    keys_b = _loop_factor_keys(atom_b, basis.mw)
    m = atom_a.m
    out = np.empty((m, m))
    for r in range(m):
        for rp in range(m):
            v = 1.0
            for i in range(atom_a.d):
                v *= cache.inner(keys_a[r][i], keys_b[rp][i])
                if v == 0.0:
                    break
            out[r, rp] = v
    return out


def _loop_catalog_star_deviation(basis, max_level, k_range, J, inner_cache=_LoopInnerCache):
    atoms = catalog_atoms(basis, max_level, k_range)
    cache = inner_cache(basis.mw.filter, J)
    keys = [_loop_factor_keys(a, basis.mw) for a in atoms]
    m, d = basis.m, basis.d
    worst = 0.0
    for ia in range(len(atoms)):
        for ib in range(ia, len(atoms)):
            same = ia == ib
            for r in range(m):
                for rp in range(m):
                    v = 1.0
                    for i in range(d):
                        v *= cache.inner(keys[ia][r][i], keys[ib][rp][i])
                        if v == 0.0:
                            break
                    want = 1.0 if same and r == rp else 0.0
                    dev = abs(v - want)
                    if dev > worst:
                        worst = dev
    return worst


def _basis(name, d, m, seed=None):
    part = None if seed is None else random_partition(d, m, seed)
    return build_basis_nd(filter_by_name(name), d, m, part)


# (filter, d, m, partition seed or None for cyclic, max_level, k_range, J)
SWEEP_CASES = [
    ("haar", 2, m, seed, 1, 1, 10) for m in (1, 2, 3) for seed in (None, 0, 1, 2)
] + [
    ("db4", 2, 2, None, 1, 1, 8),
    ("db10", 1, 3, None, 1, 1, 10),
    ("db2", 3, 2, None, 0, 1, 8),
    # one translate per block: no two rows of a block
    ("db4", 2, 2, None, 1, 0, 8),
    ("haar", 3, 2, None, 1, 0, 10),
]


@pytest.mark.parametrize("case", SWEEP_CASES, ids=lambda c: "-".join(map(str, c)))
def test_catalog_sweep_matches_loop_bitwise(case):
    name, d, m, seed, max_level, k_range, J = case
    b = _basis(name, d, m, seed)
    got = catalog_star_deviation(b, max_level, k_range, J)
    assert got.hex() == _loop_catalog_star_deviation(b, max_level, k_range, J).hex()


def _mutated_caches(changes):
    """The sweep's and the loop's inner-product caches with some Gram entries
    replaced: ``changes`` maps a factor-key pair to its new value, both ways."""
    both = {**changes, **{(b, a): v for (a, b), v in changes.items()}}

    class Sweep(FactorInnerCache):
        def gram(self, keys):
            out = super().gram(keys)
            for p, key_a in enumerate(keys):
                for q, key_b in enumerate(keys):
                    if (key_a, key_b) in both:
                        out[p, q] = both[key_a, key_b]
            return out

    class Loop(_LoopInnerCache):
        def inner(self, key_a, key_b):
            return both.get((key_a, key_b), super().inner(key_a, key_b))

    return Sweep, Loop


@pytest.mark.parametrize("case", [("haar", 2, 2, 1, 1, 10), ("db2", 2, 3, 0, 1, 8), ("haar", 3, 1, 0, 1, 10)])
@pytest.mark.parametrize("change", ["raised-own", "raised-cross", "lowered-diagonal"])
def test_catalog_sweep_matches_loop_on_a_mutated_gram(case, change, monkeypatch):
    # Each half of the product-block argument moves the result: a raised
    # entry between two translates of one descriptor (rows of one block),
    # a raised entry between two descriptors (rows of distinct blocks), and
    # a lowered diagonal entry (S_pp - 1).
    name, d, m, max_level, k_range, J = case
    b = _basis(name, d, m)
    descs, blocks = basisnd._catalog_blocks(b, max_level)
    first, last = descs[blocks[0, 0]], descs[blocks[-1, 0]]
    key = {
        "raised-own": ((*first, 0), (*first, 1)),
        "raised-cross": ((*first, 0), (*last, 1)),
        "lowered-diagonal": ((*first, 0), (*first, 0)),
    }[change]
    value = 0.75 if change == "lowered-diagonal" else 0.25
    sweep, loop = _mutated_caches({key: value})
    monkeypatch.setattr(basisnd, "FactorInnerCache", sweep)
    got = catalog_star_deviation(b, max_level, k_range, J)
    assert got.hex() == _loop_catalog_star_deviation(b, max_level, k_range, J, loop).hex()
    assert got >= 0.2


def _overlapping_tags(filt, keys):
    """Distinct (kind_a, scale_a, kind_b, scale_b, offset) of the key pairs
    whose dense expansions overlap."""
    tags = set()
    for p, key_a in enumerate(keys):
        for key_b in keys[p:]:
            level = max(scale + (kind == "wavelet") for kind, scale, _ in (key_a, key_b))
            (ca, sa), (cb, sb) = (dense_expansion(filt, *key, level) for key in (key_a, key_b))
            if max(sa, sb) < min(sa + len(ca), sb + len(cb)):
                tags.add((*key_a[:2], *key_b[:2], sb - sa))
    return len(tags)


def _loop_gram(keys, J, filt):
    ref = _LoopInnerCache(filt, J)
    return np.array([[ref.inner(a, b) for b in keys] for a in keys])


@pytest.mark.parametrize("name", ["haar", "db2", "db10"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_gram_reuses_one_quadrature_per_offset_bitwise(name, m, monkeypatch):
    J = 8
    mw = _basis(name, 1, m).mw
    comps = tuple(mw.scaling) + tuple(mw.wavelets)
    translate = [(c.kind, c.scale, k * 2**c.scale) for c in comps for k in range(-2, 3)]
    dots = []
    # stacked rows, one overlap length per stack
    monkeypatch.setattr(basis1d, "_dot", lambda a, b: dots.append(len(a)) or _dot(a, b))
    gram = FactorInnerCache(mw.filter, J).gram(translate)
    assert gram.tobytes() == _loop_gram(translate, J, mw.filter).tobytes()
    # one dotted row per (kind, scale) pair and overlapping offset, not one per key pair
    assert sum(dots) == _overlapping_tags(mw.filter, translate)
    assert sum(dots) == {"haar": (3, 10, 21), "db2": (6, 21, 40), "db10": (11, 56, 118)}[name][m - 1]
    for d in (1, 2):
        b = _basis(name, d, m)
        descs, _ = basisnd._catalog_blocks(b, 1)
        keys = basisnd._translate_keys(descs, 1)
        gram = FactorInnerCache(mw.filter, J).gram(keys)
        assert gram.tobytes() == _loop_gram(keys, J, mw.filter).tobytes()


def test_gram_keeps_repeated_keys_and_kinds_apart():
    filt, J = filter_by_name("db2"), 8
    # at level 2, this wavelet key's expansion starts where the scaling
    # key's does: phi_{1,0} starts at h_start, psi_{1,k} at 2k + g_start
    shift = (filt.h_start - filt.g_start) // 2
    phi, psi = ("scaling", 1, 0), ("wavelet", 1, shift)
    assert expand_factor(filt, *phi, 2)[1] == expand_factor(filt, *psi, 2)[1]
    keys = [phi, psi, phi, ("scaling", 1, 1), psi]
    gram = FactorInnerCache(filt, J).gram(keys)
    assert gram.shape == (5, 5)
    assert gram.tobytes() == _loop_gram(keys, J, filt).tobytes()
    assert gram[0].tobytes() == gram[2].tobytes()
    assert gram[1].tobytes() == gram[4].tobytes()
    # the scaling-wavelet pair at offset 0 is not read as the scaling pair
    assert abs(gram[0, 0] - 1.0) < 1e-15 and abs(gram[0, 1]) < 1e-15


def test_gram_takes_translates_up_to_its_int64_bound():
    # expansion starts are int64 arithmetic: up to 2**35 they match the
    # Python-int loop, past it the Gram refuses rather than wrap
    filt, J = filter_by_name("db2"), 8
    far = 2**35
    keys = [("scaling", 0, far // 2), ("wavelet", 0, far // 2), ("scaling", 1, far), ("wavelet", 2, -far), ("scaling", 0, -far)]
    gram = FactorInnerCache(filt, J).gram(keys)
    assert gram.tobytes() == _loop_gram(keys, J, filt).tobytes()
    assert gram[0, 2] != 0.0
    with pytest.raises(SizeGuardError, match="2\\*\\*35"):
        FactorInnerCache(filt, J).gram([("scaling", 0, far + 1)])


@pytest.mark.parametrize(
    "case", [("haar", 2, 3, 1, 10), ("db4", 2, 2, 1, 8), ("db2", 3, 2, 0, 8)]
)
def test_star_nd_separable_matches_loop_bytes(case):
    # Every ordered pair of a spread of atoms, compared as bytes, so a zero
    # entry must keep the sign it had when its first factor vanished.
    name, d, m, max_level, J = case
    b = _basis(name, d, m)
    atoms = catalog_atoms(b, max_level, 1)
    atoms = atoms[:: len(atoms) // 24]
    cache, ref_cache = FactorInnerCache(b.mw.filter, J), _LoopInnerCache(b.mw.filter, J)
    negative_after_zero = 0
    for a in atoms:
        for c in atoms:
            got = star_nd_separable(a, c, b, cache).entries
            ref = _loop_star_nd_separable(a, c, b, ref_cache)
            assert got.tobytes() == ref.tobytes()
            ka, kc = _loop_factor_keys(a, b.mw), _loop_factor_keys(c, b.mw)
            negative_after_zero += sum(
                ref_cache.inner(ka[r][0], kc[rp][0]) == 0.0
                and any(ref_cache.inner(ka[r][i], kc[rp][i]) < 0 for i in range(1, d))
                for r in range(m)
                for rp in range(m)
            )
    # the early exit is exercised: without it these entries would turn -0.0
    assert negative_after_zero > 0


def _tables_after(form, name, d, m, max_level, k_range, J):
    """The cached cascade-table (function, level) pairs of a fresh process
    after one sweep in the given form ("loop" or "array"; any other builds
    the basis alone)."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_basisnd as t\n"
        "from vecwave import scalar\n"
        f"b = t._basis({name!r}, {d}, {m})\n"
        f"fn = {dict(loop='t._loop_catalog_star_deviation', array='t.catalog_star_deviation').get(form, 'lambda *args: None')}\n"
        f"fn(b, {max_level}, {k_range}, {J})\n"
        "tables = [(w, level) for w, (level, _) in scalar._table_cache[b.mw.filter].items()]\n"
        "print(json.dumps(sorted(tables)))\n"
    )
    src = str(Path(vecwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize(
    "case", [("haar", 2, 3, 1, 1, 10), ("db4", 2, 2, 1, 1, 8), ("db10", 1, 3, 1, 1, 8)]
)
def test_sweep_builds_the_loops_tables(case):
    # The Gram table and the loop both pair factors by their tap
    # expansions, so a cold sweep adds no cascade table to those the
    # basis's own refinement check (level m) built.
    tables = _tables_after("array", *case)
    assert tables == _tables_after("build", *case)
    assert tables == _tables_after("loop", *case)


def test_catalog_rows_is_the_catalog_size():
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            b = build_basis_nd(haar_filter(), d, m)
            for max_level in (-1, 0, 1, 2):
                for k_range in (-1, 0, 1):
                    n = len(catalog_atoms(b, max_level, k_range)) * m
                    assert catalog_rows(d, m, max_level, k_range) == n


def test_sweep_guard_admits_every_d3_catalog():
    for d in (1, 2, 3):
        for m in range(1, MAX_ENUM_M + 1):
            assert catalog_rows(d, m, 1, 1) <= MAX_SWEEP_ROWS
    assert catalog_rows(3, 3, 1, 1) == 10935


def test_sweep_guard_rejects_before_allocating(monkeypatch):
    # d = 4, m = 4 has 7 936 blocks; the guard fires before the catalog is
    # enumerated.
    b = build_basis_nd(haar_filter(), 4, 4)

    def never(*args):
        raise AssertionError("catalog enumerated before the size guard")

    monkeypatch.setattr(basisnd, "catalog_atoms", never)
    monkeypatch.setattr(basisnd, "_catalog_blocks", never)
    with pytest.raises(SizeGuardError, match="got 7936, 642816"):
        catalog_star_deviation(b, 1, 1, 10)


def test_sweep_guard_bounds_rows_as_well_as_blocks(monkeypatch):
    # haar d = 3, m = 1 at level 0 and |k| <= 511 has 8 blocks of 2
    # descriptors, whose 2 046 keys pass the factor Gram's guard; the
    # |S_pp - 1| pass would still hold all of its 8 564 793 336 rows at once
    b = build_basis_nd(haar_filter(), 3, 1)

    def never(*args):
        raise AssertionError("catalog enumerated before the size guard")

    monkeypatch.setattr(basisnd, "_catalog_blocks", never)
    with pytest.raises(SizeGuardError, match="got 8, 8564793336"):
        catalog_star_deviation(b, 0, 511, 8)


def test_empty_catalog_sweep_is_zero():
    b = build_basis_nd(haar_filter(), 2, 2)
    assert catalog_star_deviation(b, 1, -1, 8) == 0.0
    assert _loop_catalog_star_deviation(b, 1, -1, 8) == 0.0
    with pytest.raises(ValueError):
        catalog_star_deviation(b, 1, 1, 0)


@pytest.mark.parametrize("name", ["haar"] + [f"db{N}" for N in range(1, 11)])
def test_tap_gram_is_orthonormal_to_rounding(name):
    # run_verify's catalog (levels <= 1, |k| <= 1) and translate sweeps at
    # every d <= 3, m <= 3, all inside the sweep guard
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            b = _basis(name, d, m)
            assert catalog_star_deviation(b, 1, 1, 10) <= 1e-13, (d, m)
            assert basis1d.translate_gram_deviation(b.mw, J=10) <= 1e-13, (d, m)


@pytest.mark.parametrize("shift", ["scale", "translate"])
def test_gram_nd_catches_one_shifted_factor_key(shift, monkeypatch):
    # One factor key moved by one scale (level-1 wavelet rung 1 onto rung 2)
    # or one translate (the last key onto its left neighbour) aliases
    # another atom row, which the star sweep must see: the exact profile's
    # 1e-10 and the sampled profile's 1e-3 both fail.
    b = _basis("db4", 2, 2)
    assert catalog_star_deviation(b, 1, 1, 10) <= 1e-13
    if shift == "scale":
        real = basisnd.factor_component

        def moved(mw, eps_i, alpha_i, j):
            comp = real(mw, eps_i, alpha_i, j)
            if (eps_i, alpha_i, j) == (1, 1, 1):
                return Component(comp.kind, comp.scale + 1)
            return comp

        monkeypatch.setattr(basisnd, "factor_component", moved)
    else:
        real = basisnd._translate_keys

        def moved(descs, k_range):
            keys = real(descs, k_range)
            kind, scale, k = keys[-1]
            keys[-1] = (kind, scale, k - 1)
            return keys

        monkeypatch.setattr(basisnd, "_translate_keys", moved)
    assert catalog_star_deviation(b, 1, 1, 10) > 1e-3
