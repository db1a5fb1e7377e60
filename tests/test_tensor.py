"""Subband families, the factor map, and one-row catalog atoms as the
separable scalar atoms: dense samples through `sample_vector_atom_nd`,
pairings through `star`."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vecwave.basis1d import (
    Component,
    build_vector_basis,
    matrix_refinement_filter,
    to_multiwavelet,
)
from vecwave.basisnd import VectorAtomND, build_basis_nd, sample_vector_atom_nd
from vecwave.errors import SizeGuardError
from vecwave.scalar import filter_by_name, haar_filter, quad_inner, scaled_atom_sample
from vecwave.star import star
from vecwave.tensor import enumerate_families, factor_component


def haar_mw(m=2):
    return to_multiwavelet(build_vector_basis(haar_filter(), m))


def haar_basis(d, m=2):
    return build_basis_nd(haar_filter(), d, m)


def tensor_atom(j, k, eps, alpha):
    """The separable scalar atom with factors (eps_i, alpha_i) at level j: a one-row catalog atom."""
    return VectorAtomND(tuple(eps), 0, j, tuple(k), (tuple(alpha),))


def inner(f, g) -> float:
    return float(star(f, g).entries[0, 0])


def gram(atoms, basis, J):
    fields = [sample_vector_atom_nd(a, basis, J) for a in atoms]
    return np.array([[inner(f, g) for g in fields] for f in fields])


def test_family_counts():
    from math import comb

    for d in (1, 2, 3):
        for m in (1, 2, 3):
            fams = enumerate_families(d, m)
            assert [f.e for f in fams] == list(range(d + 1))
            for f in fams:
                assert len(f) == comb(d, f.e) * m**d
            assert sum(len(f) for f in fams) == (2 * m) ** d


def test_family_counts_worked_examples():
    fams = enumerate_families(2, 2)
    assert [len(f) for f in fams] == [4, 8, 4]
    assert len(enumerate_families(3, 2)[2]) == 24
    assert [len(f) for f in enumerate_families(1, 1)] == [1, 1]


def test_family_lex_order():
    fams = enumerate_families(2, 2)
    assert fams[1].members == (
        ((0, 1), (1, 1)),
        ((0, 1), (1, 2)),
        ((0, 1), (2, 1)),
        ((0, 1), (2, 2)),
        ((1, 0), (1, 1)),
        ((1, 0), (1, 2)),
        ((1, 0), (2, 1)),
        ((1, 0), (2, 2)),
    )
    for fam in fams:
        assert list(fam.members) == sorted(fam.members)


def test_enumerate_guards():
    with pytest.raises(SizeGuardError):
        enumerate_families(7, 2)
    with pytest.raises(SizeGuardError):
        enumerate_families(2, 5)
    with pytest.raises(ValueError):
        enumerate_families(0, 2)
    with pytest.raises(ValueError):
        enumerate_families(2, 0)


def test_atom_validation():
    with pytest.raises(ValueError):
        tensor_atom(0, (0,), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        tensor_atom(0, (0, 0), (0, 2), (1, 1))
    with pytest.raises(ValueError):
        tensor_atom(-1, (0, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        VectorAtomND((0, 1), 0, 0, (0, 0), ((1, 1), (1,)))
    a = tensor_atom(1, (2, -3), (1, 0), (2, 1))
    assert (a.d, a.m) == (2, 1)
    # an index outside 1..m fails where its factor is looked up
    with pytest.raises(ValueError):
        sample_vector_atom_nd(tensor_atom(0, (0, 0), (0, 1), (1, 0)), haar_basis(2), 4)


def test_factor_component_mapping():
    mw = haar_mw(2)
    assert factor_component(mw, 0, 1, 0) == Component("scaling", 0)
    assert factor_component(mw, 0, 2, 0) == Component("wavelet", 0)
    assert factor_component(mw, 1, 1, 0) == Component("wavelet", 1)
    assert factor_component(mw, 1, 2, 1) == Component("wavelet", 4)
    assert factor_component(mw, 0, 2, 2) == Component("wavelet", 4)
    with pytest.raises(ValueError):
        factor_component(mw, 0, 3, 0)
    with pytest.raises(ValueError):
        factor_component(mw, 1, 0, 0)


def test_indicator_atom():
    s = sample_vector_atom_nd(tensor_atom(0, (0, 0), (0, 0), (1, 1)), haar_basis(2), 4)
    assert s.start == (0, 0)
    assert s.values.shape == (1, 16, 16)
    assert_array_equal(s.values, np.ones((1, 16, 16)))


def test_translated_atom_window():
    s = sample_vector_atom_nd(tensor_atom(0, (2, -1), (0, 0), (1, 2)), haar_basis(2), 3)
    assert s.start == (2 * 8, -1 * 8)
    assert s.values.shape == (1, 8, 8)


def test_atom_norms_and_cross():
    b = haar_basis(2)
    a = sample_vector_atom_nd(tensor_atom(0, (0, 0), (1, 1), (2, 1)), b, 8)
    c = sample_vector_atom_nd(tensor_atom(0, (0, 0), (1, 1), (1, 1)), b, 8)
    assert abs(inner(a, a) - 1.0) <= 1e-10
    assert abs(inner(c, c) - 1.0) <= 1e-10
    assert abs(inner(a, c)) <= 1e-10


def test_gram_base_identity():
    atoms = [
        tensor_atom(0, k, (0, 0), al)
        for k in [(0, 0), (1, 0), (0, 1), (-1, 2)]
        for al in [(1, 1), (1, 2), (2, 1), (2, 2)]
    ]
    g = gram(atoms, haar_basis(2), 8)
    assert np.max(np.abs(g - np.eye(len(atoms)))) <= 1e-10


def test_gram_mixed_levels_identity():
    # Base layer at level 0 plus wavelet atoms from levels 0 and 1.
    atoms = [
        tensor_atom(0, (0, 0), (0, 0), (1, 2)),
        tensor_atom(0, (0, 0), (1, 0), (1, 1)),
        tensor_atom(0, (0, 0), (1, 1), (2, 2)),
        tensor_atom(1, (0, 0), (1, 1), (1, 1)),
        tensor_atom(1, (1, 0), (0, 1), (2, 1)),
        tensor_atom(1, (0, 0), (1, 0), (2, 2)),
    ]
    g = gram(atoms, haar_basis(2), 8)
    assert np.max(np.abs(g - np.eye(6))) <= 1e-10


def test_gram_single_atom():
    g = gram([tensor_atom(0, (0,), (1,), (3,))], haar_basis(1, 3), 8)
    assert_allclose(g, [[1.0]], atol=1e-10)


def test_separable_gram_factorization():
    # Every pairing factorizes into the product of per-coordinate scalar
    # inner products.
    b = haar_basis(2)
    mw = b.mw
    rng = np.random.default_rng(11)
    shapes = [(eps, al) for f in enumerate_families(2, 2) for (eps, al) in f.members]
    J = 8
    for _ in range(40):
        ea, eb = (shapes[rng.integers(len(shapes))] for _ in range(2))
        ja, jb = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        ka = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        kb = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        a = tensor_atom(ja, ka, ea[0], ea[1])
        c = tensor_atom(jb, kb, eb[0], eb[1])
        joint = inner(sample_vector_atom_nd(a, b, J), sample_vector_atom_nd(c, b, J))
        parts = 1.0
        for i in range(2):
            ca = factor_component(mw, a.eps[i], a.rows[0][i], a.j)
            cc = factor_component(mw, c.eps[i], c.rows[0][i], c.j)
            fa = scaled_atom_sample(mw.filter, ca.kind, ca.scale, a.k[i], J)
            fc = scaled_atom_sample(mw.filter, cc.kind, cc.scale, c.k[i], J)
            parts *= quad_inner(fa, fc)
        assert abs(joint - parts) <= 1e-12


def test_base_atom_nesting():
    # A level-0 base atom expands through the per-coordinate refinement
    # taps into level-1 base atoms with alpha = (1, 1).
    b = haar_basis(2)
    mf = matrix_refinement_filter(build_vector_basis(haar_filter(), 2))
    J = 6
    for alpha in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        target = sample_vector_atom_nd(tensor_atom(0, (0, 0), (0, 0), alpha), b, J)
        taps = [mf.taps[:, alpha[i] - 1, 0] for i in range(2)]
        lo = list(target.start)
        hi = [target.start[i] + target.values.shape[1 + i] for i in range(2)]
        pieces = []
        for i1, c1 in enumerate(taps[0]):
            for i2, c2 in enumerate(taps[1]):
                if c1 * c2 == 0.0:
                    continue
                k = (mf.start + i1, mf.start + i2)
                f = sample_vector_atom_nd(tensor_atom(1, k, (0, 0), (1, 1)), b, J)
                pieces.append((c1 * c2, f))
                for ax in range(2):
                    lo[ax] = min(lo[ax], f.start[ax])
                    hi[ax] = max(hi[ax], f.start[ax] + f.values.shape[1 + ax])

        def window(f):
            return tuple(
                slice(f.start[ax] - lo[ax], f.start[ax] - lo[ax] + f.values.shape[1 + ax])
                for ax in range(2)
            )

        acc = np.zeros((hi[0] - lo[0], hi[1] - lo[1]))
        for c, f in pieces:
            acc[window(f)] += c * f.values[0]
        full = np.zeros_like(acc)
        full[window(target)] = target.values[0]
        assert np.max(np.abs(full - acc)) <= 1e-10


def test_db2_atom_norm_converges():
    # Smooth-filter quadrature error shrinks as the grid refines past the
    # atom's finest factor scale.
    b = build_basis_nd(filter_by_name("db2"), 2, 2)
    atom = tensor_atom(0, (0, 0), (1, 1), (1, 2))
    devs = []
    for J in (7, 9):
        s = sample_vector_atom_nd(atom, b, J)
        devs.append(abs(inner(s, s) - 1.0))
    assert devs[1] < devs[0]
    assert devs[1] <= 1e-2

