"""Each rule of the construction is refused by one function.

A row names the rule's owner and an entry point that once carried its own
copy of the check; both must raise the same type with the same message.
"""

import re

import numpy as np
import pytest

from vecwave import (
    VectorSignal,
    analyze_vector,
    build_basis_nd,
    cyclic_partition,
    daubechies_filter,
    decomposition_from_bytes,
    enumerate_families,
    filter_by_name,
    haar_filter,
    refine_sample,
    separable_channels,
)
from vecwave import scalar
from vecwave.basis1d import build_vector_basis, expand_factor, to_multiwavelet
from vecwave.cli import main
from vecwave.errors import CorruptionError, FileFormatError, NotOrthonormalError, ResolutionError
from vecwave.scalar import ScalarFilter, _table, scaled_atom_sample, support_start
from vecwave.star import VectorSampledFunction, _check_compatible
from vecwave.tensor import _check_catalog_size
from vecwave.transform import VectorDecomposition, _base_scale


def _off_axioms():
    # db2 scaled by 1 + 1e-11: the refinement still holds to 1e-10, the axioms miss 1e-12
    f = daubechies_filter(2)
    return ScalarFilter(f.name, f.h * (1 + 1e-11), f.h_start, f.g * (1 + 1e-11), f.g_start, 2)


def _vsf(m, level):
    return VectorSampledFunction((0,), level, np.ones((m, 4)))


# rule, owner, former duplicate entry point
ROWS = [
    ("depth, analysis",
     lambda: _base_scale(2, 64, 3, ResolutionError),
     lambda: analyze_vector(VectorSignal(np.ones((2, 64))), build_basis_nd(haar_filter(), 1, 2), 3)),
    ("depth, constructor",
     lambda: _base_scale(2, 64, 3, CorruptionError),
     lambda: VectorDecomposition(1, 2, 64, 3, "haar", cyclic_partition(1, 2), ())),
    ("depth, decoder",
     lambda: _base_scale(2, 64, 3, FileFormatError),
     lambda: decomposition_from_bytes(b"VDEC1 d=1 m=2 n=64 levels=3 filter=haar bands=0\npartition=1;2\nend\n")),
    ("grid below 0",
     lambda: scaled_atom_sample(daubechies_filter(2), "scaling", 0, 0, -1),
     lambda: refine_sample(daubechies_filter(2), "scaling", -1)),
    ("grid past 1022",
     lambda: scaled_atom_sample(daubechies_filter(2), "wavelet", 0, 0, 10**12),
     lambda: refine_sample(daubechies_filter(2), "wavelet", 10**12)),
    ("grid past the table guard",
     lambda: scaled_atom_sample(haar_filter(), "scaling", 0, 0, 27),
     lambda: refine_sample(haar_filter(), "scaling", 27)),
    ("atom kind",
     lambda: support_start(haar_filter(), "phi"),
     lambda: _table(haar_filter(), "phi", 2)),
    ("atom kind, factor expansion",
     lambda: support_start(haar_filter(), "phi"),
     lambda: expand_factor(haar_filter(), "phi", 0, 0, 2)),
    ("catalog d >= 1",
     lambda: _check_catalog_size(0, 2),
     lambda: build_basis_nd(haar_filter(), 0, 2)),
    ("catalog d bound, basis",
     lambda: _check_catalog_size(7, 1),
     lambda: build_basis_nd(haar_filter(), 7, 1)),
    ("catalog m bound, enumeration",
     lambda: _check_catalog_size(1, 5),
     lambda: enumerate_families(1, 5)),
    ("filter axioms",
     lambda: to_multiwavelet(build_vector_basis(_off_axioms(), 2)),
     lambda: build_basis_nd(_off_axioms(), 1, 2)),
    ("pairing channels",
     lambda: _check_compatible(_vsf(2, 3), _vsf(3, 3)),
     lambda: separable_channels(_vsf(2, 3), _vsf(3, 3))),
    ("pairing levels",
     lambda: _check_compatible(_vsf(2, 3), _vsf(2, 4)),
     lambda: separable_channels(_vsf(2, 3), _vsf(2, 4))),
]


@pytest.mark.parametrize("rule, owner, entry", ROWS, ids=[row[0] for row in ROWS])
def test_one_owner_per_rule(rule, owner, entry):
    with pytest.raises(Exception) as want:
        owner()
    with pytest.raises(Exception) as got:
        entry()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_daubechies_taps_are_held_to_the_axioms_by_the_basis(monkeypatch):
    # the table is not re-checked per call; every basis built on it is
    f = daubechies_filter(2)
    taps = dict(scalar.DAUBECHIES_H)
    taps[2] = [float.hex(t * (1 + 1e-11)) for t in f.h]
    monkeypatch.setattr(scalar, "DAUBECHIES_H", taps)
    off = daubechies_filter(2)
    assert off.h[0] != f.h[0]
    with pytest.raises(NotOrthonormalError, match="misses the orthonormal filter axioms"):
        build_basis_nd(off, 1, 2)


# a name is accepted only as the filter's own, so a header or manifest that
# names a filter names exactly one; int() would take the refused spellings
FILTER_NAMES = [(name, True) for name in ("haar", *(f"db{N}" for N in range(1, 11)))] + [
    (name, False) for name in ("db03", "db+3", "db 3", "db3 ", "db1_0")
]


@pytest.mark.parametrize("name, canonical", FILTER_NAMES, ids=[repr(name) for name, _ in FILTER_NAMES])
def test_filter_names_are_read_exactly(tmp_path, capsys, name, canonical):
    out = tmp_path / "basis.txt"
    rc = main(["build", "--filter", name, "--d", "1", "--m", "1", "--out", str(out)])
    if canonical:
        assert filter_by_name(name).name == name
        assert rc == 0
        assert out.read_text().startswith(f"filter={name} d=1 m=1 ")
    else:
        with pytest.raises(ValueError, match=re.escape(f"unknown filter name {name!r}")):
            filter_by_name(name)
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown filter name {name!r}\n"
        assert not out.exists()
