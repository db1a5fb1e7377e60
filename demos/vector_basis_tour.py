"""One-dimensional vector bases and their matrix refinement filter.

Builds the two-channel Haar vector basis, prints its component layout,
verifies star-orthonormality of sampled atoms, and shows the matrix
filter solving the dilation-4 refinement equation.
"""

import numpy as np

from vecwave import (
    build_basis_nd,
    build_vector_basis,
    haar_filter,
    make_atom,
    sample_vector_atom_nd,
    star,
    to_multiwavelet,
)
from vecwave.basis1d import matrix_refinement_filter, refine_residual

m = 2
basis = build_vector_basis(haar_filter(), m)
print(f"haar vector basis, m={m}, dilation {2**m}")
print("  scaling components:", list(basis.scaling_components()))
for t in range(3):
    print(f"  wavelet level {t}: ", list(basis.wavelet_components(t)))

# a vector atom on the line is a d = 1 catalog atom
catalog = build_basis_nd(haar_filter(), 1, m)
phi, psi = catalog.family_by_name("Phi1"), catalog.family_by_name("Psi1")
J = 8
atoms = {
    "scaling k=0": sample_vector_atom_nd(make_atom(phi, 0, (0,)), catalog, J),
    "scaling k=1": sample_vector_atom_nd(make_atom(phi, 0, (1,)), catalog, J),
    "wavelet t=0 k=0": sample_vector_atom_nd(make_atom(psi, 0, (0,)), catalog, J),
    "wavelet t=1 k=0": sample_vector_atom_nd(make_atom(psi, 1, (0,)), catalog, J),
}
print("\nstar products (diagonal pairs want identity, the rest zero)")
for name_a, f in atoms.items():
    for name_b, g in atoms.items():
        entries = star(f, g).entries
        target = np.eye(m) if name_a == name_b else np.zeros((m, m))
        gap = np.max(np.abs(entries - target))
        print(f"  <{name_a:15} , {name_b:15}>_*  gap {gap:.2e}")

mf = matrix_refinement_filter(basis)
print(f"\nmatrix refinement filter: {len(mf.taps)} taps, dilation {mf.dilation}")
for i, tap in enumerate(mf.taps):
    print(f"  k={mf.start + i}:")
    for row in tap:
        print("    [" + " ".join(f"{v:+.6f}" for v in row) + "]")
print(f"refinement residual at J=6: {refine_residual(basis, mf, 6):.2e}")

mw = to_multiwavelet(basis)
print(f"\nas an m-multiwavelet: {len(mw.scaling)} scaling + {len(mw.wavelets)} wavelet generators")
print("  scaling:", list(mw.scaling))
print("  wavelets:", list(mw.wavelets))
