"""Command-line front end: build bases, verify invariants, transform, plot.

Every command is deterministic: reports sort their checks
lexicographically and print floats with 17 significant digits, plots are
pure functions of their numeric inputs, so identical invocations produce
byte-identical output files.  Exit codes: 0 success, 1 verification
failure, 2 input or usage error.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis1d import (
    build_vector_basis,
    matrix_refinement_filter,
    refine_residual,
    translate_gram_deviation,
)
from .basisnd import (
    BasisND,
    build_basis_nd,
    catalog_manifest,
    catalog_star_deviation,
    check_sweep_size,
    load_manifest,
    make_atom,
    sample_vector_atom_nd,
)
from .errors import DimensionError, FileFormatError, VecwaveError
from .scalar import (
    SampledFunction,
    _moments,
    filter_by_name,
    filter_deviations,
    sampled_from_csv,
    scaled_atom_sample,
)
from .svgplot import raster_svg, step_polyline_svg
from .tensor import MAX_SAMPLE_D, enumerate_families
from .transform import (
    VectorSignal,
    _decomposition_chunks,
    _signal_chunks,
    analyze_vector,
    decomposition_from_bytes,
    signal_from_bytes,
    synthesize_vector,
    threshold_matrix,
)

__all__ = ["VerifyReport", "load_manifest", "main", "run_verify"]

# tolerances of the checks that sample nothing: the filter taps and the
# transform's reconstruction
_TOLERANCES = {"filter": 1e-12, "filter-moments": 1e-10, "pr": 1e-10}
# per-profile tolerances of the sampled checks; `exact` suits Haar where
# quadrature is exact, `sampled` leaves room for dyadic quadrature error of
# the longer filters
_PROFILES = {
    "exact": {"gram": 1e-10, "refine": 1e-12, "moments": 1e-12},
    "sampled": {"gram": 1e-3, "refine": 1e-8, "moments": 1e-6},
}

# the catalog of the gram-nd row: wavelet levels <= 1, translates |k| <= 1
_CATALOG_LEVEL, _CATALOG_K = 1, 1

@dataclass(frozen=True)
class VerifyReport:
    """Check rows (name, measured, tolerance), sorted by name."""

    filter_name: str
    d: int
    m: int
    profile: str
    j: int
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(measured <= tol for _, measured, tol in self.rows)

    def to_csv(self) -> str:
        lines = ["check,measured,tolerance,status"]
        for name, measured, tol in self.rows:
            status = "pass" if measured <= tol else "fail"
            lines.append(f"{name},{format(measured, '.17g')},{format(tol, '.17g')},{status}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"verify filter={self.filter_name} d={self.d} m={self.m} "
            f"profile={self.profile} J={self.j}"
        ]
        for name, measured, tol in self.rows:
            status = "pass" if measured <= tol else "FAIL"
            lines.append(
                f"{status:4} {name:24} measured={format(measured, '.17g')} "
                f"tolerance={format(tol, '.17g')}"
            )
        good = sum(1 for _, measured, tol in self.rows if measured <= tol)
        verdict = "PASS" if good == len(self.rows) else "FAIL"
        lines.append(f"{verdict} {good}/{len(self.rows)} checks")
        return "\n".join(lines) + "\n"


def run_verify(basis: BasisND, j: int, profile: str) -> VerifyReport:
    # refused before any Gram sweep: a catalog too large to sweep, then a
    # basis the transform of the reconstruction rows cannot take
    check_sweep_size(basis.d, basis.m, _CATALOG_LEVEL, _CATALOG_K)
    if basis.d > MAX_SAMPLE_D:
        raise DimensionError(
            f"verify runs the transform, which takes d <= {MAX_SAMPLE_D} space axes; got d={basis.d}"
        )
    tol = {**_TOLERANCES, **_PROFILES[profile]}
    filt = basis.mw.filter
    d, m = basis.d, basis.m
    rows = []
    dev = filter_deviations(filt)
    rows.append(("filter-sum", dev["sum"], tol["filter"]))
    rows.append(("filter-orthonormality", dev["orthonormality"], tol["filter"]))
    rows.append(("filter-wavelet-sum", dev["wavelet_sum"], tol["filter"]))
    rows.append(("filter-moments", dev["moments"], tol["filter-moments"]))
    rows.append(("gram-1d", translate_gram_deviation(basis.mw, J=j, k_range=2), tol["gram"]))
    rows.append(("gram-nd", catalog_star_deviation(basis, _CATALOG_LEVEL, _CATALOG_K, J=j), tol["gram"]))
    basis1 = build_vector_basis(filt, m)
    rows.append(("refinement-residual", refine_residual(basis1, matrix_refinement_filter(basis1), j), tol["refine"]))
    wav = scaled_atom_sample(filt, "wavelet", 0, 0, j)
    worst = max(abs(v) for v in _moments(wav, filt.vanishing_moments))
    rows.append(("vanishing-moments", worst, tol["moments"]))
    mismatches = 0
    for e in range(d + 1):
        if len(basis.families[e]) != math.comb(d, e) * m ** (d - 1):
            mismatches += 1
    if sum(len(fam.members) for fam in enumerate_families(d, m)) != (2 * m) ** d:
        mismatches += 1
    rows.append(("family-counts", float(mismatches), 0.0))
    n = 256 if d == 1 else 64
    smax = n.bit_length() - 1
    levels = max(0, min(2, (smax - m + 1) // m))
    rng = np.random.default_rng(0)
    sig = VectorSignal(rng.standard_normal((m,) + (n,) * d))
    dec = analyze_vector(sig, basis, levels)
    rec = synthesize_vector(dec, basis)
    pr = float(np.max(np.abs(rec.values - sig.values)) / np.max(np.abs(sig.values)))
    energy = abs(dec.energy() - sig.energy()) / sig.energy()
    rows.append(("perfect-reconstruction", pr, tol["pr"]))
    rows.append(("energy-conservation", energy, tol["pr"]))
    return VerifyReport(filt.name, d, m, profile, j, tuple(sorted(rows)))


def _cmd_build(args) -> int:
    basis = build_basis_nd(filter_by_name(args.filter), args.d, args.m)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(catalog_manifest(basis))
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.manifest, encoding="ascii") as fh:
        basis = load_manifest(fh.read())
    report = run_verify(basis, args.j, args.profile)
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    sys.stdout.write(report.summary())
    return 0 if report.passed else 1


def _cmd_transform(args) -> int:
    with open(args.manifest, encoding="ascii") as fh:
        basis = load_manifest(fh.read())
    # read whole before --out is opened, which may name the same file; the
    # decoded values view these immutable bytes
    with open(args.infile, "rb") as fh:
        data = fh.read()
    if args.inverse:
        if args.levels is not None or args.threshold is not None or args.norm is not None:
            raise ValueError("--levels, --threshold and --norm apply to the forward transform only")
        dec = decomposition_from_bytes(data)
        if (dec.d, dec.m) != (basis.d, basis.m) or dec.filter_name != basis.mw.filter.name:
            raise FileFormatError(
                f"decomposition is d={dec.d} m={dec.m} filter={dec.filter_name}, "
                f"manifest is d={basis.d} m={basis.m} filter={basis.mw.filter.name}"
            )
        chunks = _signal_chunks(synthesize_vector(dec, basis))
    else:
        if args.levels is None:
            raise ValueError("forward transform needs --levels")
        if args.norm is not None and args.threshold is None:
            raise ValueError("--norm applies only with --threshold")
        signal = signal_from_bytes(data)
        if (signal.d, signal.m) != (basis.d, basis.m):
            raise FileFormatError(
                f"signal is d={signal.d} m={signal.m}, manifest is d={basis.d} m={basis.m}"
            )
        dec = analyze_vector(signal, basis, args.levels)
        # the bands are fresh arrays: free the input file before thresholding
        del data, signal
        if args.threshold is not None:
            dec = threshold_matrix(dec, args.threshold, args.norm or "frobenius")
        chunks = _decomposition_chunks(dec)
    with open(args.out, "wb") as fh:
        fh.writelines(chunks)
    print(f"wrote {args.out}")
    return 0


# the plot flags that act only on a --manifest atom, and their defaults
_ATOM_FLAGS = {"channel": 1, "level": 0, "j": 10}


def _cmd_plot(args) -> int:
    if (args.function is None) == (args.manifest is None):
        raise ValueError("pass exactly one of --function or --manifest/--family")
    if args.function is not None:
        unused = [flag for flag in ("family", *_ATOM_FLAGS) if getattr(args, flag) is not None]
        if unused:
            raise ValueError("--function does not use " + ", ".join("--" + flag for flag in unused))
        with open(args.function, encoding="ascii") as fh:
            sample = sampled_from_csv(fh.read())
        svg = step_polyline_svg(sample, caption=f"sampled function level={sample.level}")
    else:
        if args.family is None:
            raise ValueError("--manifest also needs --family")
        with open(args.manifest, encoding="ascii") as fh:
            basis = load_manifest(fh.read())
        if basis.d > 2:
            raise ValueError(f"plotting d={basis.d} atoms is not supported")
        family = basis.family_by_name(args.family)
        vars(args).update({flag: default for flag, default in _ATOM_FLAGS.items() if getattr(args, flag) is None})
        if not 1 <= args.channel <= basis.m:
            raise ValueError(f"channel must lie in 1..{basis.m}, got {args.channel}")
        atom = make_atom(family, args.level, (0,) * basis.d)
        field = sample_vector_atom_nd(atom, basis, args.j)
        caption = f"{family.name} ch{args.channel} t={args.level} J={args.j} filter={basis.mw.filter.name}"
        channel = field.values[args.channel - 1]
        if basis.d == 1:
            svg = step_polyline_svg(SampledFunction(field.start[0], field.level, channel), caption=caption)
        else:
            svg = raster_svg(channel, field.start, field.level, caption=caption)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vecwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a basis manifest")
    p_build.add_argument("--filter", required=True, help="haar or db2..db10")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.add_argument("--manifest", required=True)
    p_verify.add_argument("--j", type=int, default=10, help="grid level of the sampled checks (default: 10)")
    p_verify.add_argument("--profile", choices=sorted(_PROFILES), default="exact")
    p_verify.add_argument("--report", default=None, help="also write the CSV report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_tr = sub.add_parser("transform", help="analyze or synthesize a signal file")
    p_tr.add_argument("--in", dest="infile", required=True, metavar="IN")
    p_tr.add_argument("--manifest", required=True)
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--levels", type=int, default=None)
    p_tr.add_argument("--inverse", action="store_true")
    p_tr.add_argument("--threshold", type=float, default=None)
    p_tr.add_argument("--norm", choices=("frobenius", "norm1"), default=None,
                      help="matrix norm of --threshold (default: frobenius)")
    p_tr.set_defaults(func=_cmd_transform)

    p_plot = sub.add_parser("plot", help="render an atom or sampled function as SVG")
    p_plot.add_argument("--manifest", default=None)
    p_plot.add_argument("--family", default=None)
    p_plot.add_argument("--channel", type=int, default=None, help="channel of the atom (default: 1)")
    p_plot.add_argument("--level", type=int, default=None, help="vector level of the atom (default: 0)")
    p_plot.add_argument("--function", default=None, help="sampled-function CSV instead of an atom")
    p_plot.add_argument("--j", type=int, default=None, help="grid level of the atom's samples (default: 10)")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (VecwaveError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
