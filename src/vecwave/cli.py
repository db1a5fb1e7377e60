"""Command-line front end: build bases, verify invariants, transform, plot.

The commands parse flags and move bytes, and every check is the
library's: files are read and written as bytes, so a manifest is held to
the reader's own line-end rule (CRLF reads as LF, a lone CR is refused),
and verify runs the table of checks in vecwave.verify.  Every command is
deterministic: reports sort their checks lexicographically and print
floats with 17 significant digits, plots are pure functions of their
numeric inputs, so identical invocations produce byte-identical output
files.  Exit codes: 0 success, 1 verification failure, 2 input or usage
error.
"""

import argparse
import sys

from .basisnd import build_basis_nd, catalog_manifest, load_manifest, make_atom, sample_vector_atom_nd
from .errors import VecwaveError
from .scalar import SampledFunction, filter_by_name, sampled_from_csv
from .svgplot import raster_svg, step_polyline_svg
from .transform import (
    _decomposition_chunks,
    _signal_chunks,
    analyze_vector,
    decomposition_from_bytes,
    signal_from_bytes,
    synthesize_vector,
    threshold_matrix,
)
from .verify import PROFILES, VerifyReport, run_verify

__all__ = ["VerifyReport", "load_manifest", "main", "run_verify"]


def _read(path) -> bytes:
    """The whole file, read before any output is opened: ``--in`` and
    ``--out`` may name the same file."""
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, chunks) -> None:
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _cmd_build(args) -> int:
    basis = build_basis_nd(filter_by_name(args.filter), args.d, args.m)
    _write(args.out, [catalog_manifest(basis).encode("ascii")])
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    basis = load_manifest(_read(args.manifest).decode("ascii"))
    report = run_verify(basis, args.j, args.profile)
    if args.report:
        _write(args.report, [report.to_csv().encode("ascii")])
    sys.stdout.write(report.summary())
    return 0 if report.passed else 1


def _cmd_transform(args) -> int:
    basis = None if args.manifest is None else load_manifest(_read(args.manifest).decode("ascii"))
    # the decoded values view these immutable bytes
    data = _read(args.infile)
    if args.inverse:
        if args.levels is not None or args.threshold is not None or args.norm is not None:
            raise ValueError("--levels, --threshold and --norm apply to the forward transform only")
        chunks = _signal_chunks(synthesize_vector(decomposition_from_bytes(data), basis))
    else:
        if basis is None:
            raise ValueError("forward transform needs --manifest")
        if args.levels is None:
            raise ValueError("forward transform needs --levels")
        if args.norm is not None and args.threshold is None:
            raise ValueError("--norm applies only with --threshold")
        signal = signal_from_bytes(data)
        dec = analyze_vector(signal, basis, args.levels)
        # the bands are fresh arrays: free the input file before thresholding
        del data, signal
        if args.threshold is not None:
            dec = threshold_matrix(dec, args.threshold, args.norm or "frobenius")
        chunks = _decomposition_chunks(dec)
    _write(args.out, chunks)
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
        sample = sampled_from_csv(_read(args.function).decode("ascii"))
        svg = step_polyline_svg(sample, caption=f"sampled function level={sample.level}")
    else:
        if args.family is None:
            raise ValueError("--manifest also needs --family")
        basis = load_manifest(_read(args.manifest).decode("ascii"))
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
    _write(args.out, [svg.encode("ascii")])
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vecwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a basis manifest")
    p_build.add_argument("--filter", required=True, help="haar or db1..db10")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.add_argument("--manifest", required=True)
    p_verify.add_argument("--j", type=int, default=10, help="grid level of the sampled checks (default: 10)")
    p_verify.add_argument("--profile", choices=PROFILES, default="exact")
    p_verify.add_argument("--report", default=None, help="also write the CSV report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_tr = sub.add_parser("transform", help="analyze or synthesize a signal file")
    p_tr.add_argument("--in", dest="infile", required=True, metavar="IN")
    p_tr.add_argument("--manifest", default=None, help="the basis (the inverse's default: the one its .vdec fixes)")
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
