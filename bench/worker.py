"""One fresh benchmark process: set-up, checked warm operations, optional spans.

run.py starts one per round.  A worker imports vecwave, builds the
workload's filter and bases and makes the inputs from the seed (that is the
set-up it times), then checks one forward and inverse transform of every
signal and one `run_verify` of every basis in full, and prints a JSON line.
Then, each time run.py asks between two CLI commands, it times warm
repetitions whose outputs must equal the checked ones byte for byte.  The
worker waits on its standard input while a CLI command runs, so one process
at a time does work.  At the end it prints its raw timings as one JSON line.

With --probe cascade it only times cold cascade tables and exits.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def deepest_table_level(vw, basis, j: int) -> int:
    """Finest cascade table run_verify's Gram sweeps read for this basis.

    Pairs are sampled J levels below the finer factor, so a factor of scale
    s is read from the table at J + (finest scale - s).
    """
    scales = [
        vw.factor_component(basis.mw, e, a, atom.j).scale
        for atom in vw.catalog_atoms(basis, 1, 1)
        for row in atom.rows
        for e, a in zip(atom.eps, row)
    ]
    return j + max(scales) - min(scales)


def step_madds(d: int, m: int, n: int, levels: int, taps: int) -> int:
    """Multiply-adds of the scalar steps of one analyze_vector call.

    A step over N samples makes N/2 approximation and N/2 detail outputs of
    `taps` products each.  The step sizes follow analyze_vector's schedule.
    """
    sizes = []

    def pyramid(size, steps):
        details = []
        for _ in range(steps):
            sizes.append(size)
            size //= 2
            details.append(size)
        return size, details

    if d == 1:
        pyramid(m * n, m * levels + m - 1)
    else:
        a = m * n * n
        for _ in range(levels):
            ax, dxs = pyramid(a, m)
            a, dys = pyramid(ax, m)
            for dy in dys:
                pyramid(dy, m - 1)
            for dx in dxs:
                ay, _ = pyramid(dx, m)
                pyramid(ay, m - 1)
        bx, bdx = pyramid(a, m - 1)
        for comp in [bx] + bdx:
            pyramid(comp, m - 1)
    return taps * sum(sizes)


def dwt_bytes(d: int, m: int, n: int, depth: int) -> int:
    """Minimal bytes the dwt_channel / dwt2_channel steps of one signal move.

    Each step reads its N float64 inputs once and writes N outputs once.
    """
    total = 0
    size = n**d
    for _ in range(depth):
        # 1-D: one step per level; 2-D: one over the square, then two halves
        total += 16 * size * (1 if d == 1 else 2)
        size //= 2**d
    return m * total


def cascade_probe(w) -> dict:
    import vecwave as vw

    filt = vw.filter_by_name(w.filter)
    level = max(deepest_table_level(vw, vw.build_basis_nd(filt, w.d, m), w.j) for m, _, _ in w.signals)
    t = time.perf_counter()
    vw.refine_sample(filt, "scaling", level)
    vw.refine_sample(filt, "wavelet", level)
    return {"cascade_s": time.perf_counter() - t}


class Worker:
    def __init__(self, w, seed: int, tracer):
        self.w = w
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what: str, exc: BaseException | None = None):
        """Count one failed operation: one that raised `exc`, or else whose check failed.

        Only failed checks go into `errors`, which make the run incorrect.
        """
        self.failed += 1
        if exc is None:
            self.errors.append(what)
        else:
            print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)

    def setup(self):
        span = self.tracer.span
        import vecwave as vw
        from vecwave.cli import load_manifest, run_verify
        import checks
        from workloads import cli_signal_index, make_signals

        self.vw, self.checks = vw, checks
        self.load_manifest, self.run_verify = load_manifest, run_verify
        self.cli_index = cli_signal_index(self.w)
        w = self.w
        with span("scalar.filter_build"):
            self.filt = vw.filter_by_name(w.filter)
        self.filter_peak_mb = _peak_mb()
        self.bases = {m: vw.build_basis_nd(self.filt, w.d, m) for m, _, _ in w.signals}
        self.items = [(m, n, levels, vw.VectorSignal(values)) for m, n, levels, values in make_signals(w, self.seed)]

    # -- the timed operations -------------------------------------------

    def forward(self, sig, basis, levels) -> bytes:
        vw, span = self.vw, self.tracer.span
        with span("transform.analyze"):
            dec = vw.analyze_vector(sig, basis, levels)
        with span("transform.threshold"):
            dec = vw.threshold_matrix(dec, self.w.threshold)
        with span("transform.vdec_encode"):
            return vw.decomposition_to_bytes(dec)

    def inverse(self, data: bytes, basis) -> bytes:
        vw, span = self.vw, self.tracer.span
        with span("transform.vdec_decode"):
            dec = vw.decomposition_from_bytes(data)
        with span("transform.synthesize"):
            rec = vw.synthesize_vector(dec, basis)
        with span("transform.vwav_encode"):
            return vw.signal_to_bytes(rec)

    # -- full checks of one forward and inverse per signal ----------------

    def check_item(self, m, n, levels, sig) -> tuple:
        vw, ck, w = self.vw, self.checks, self.w
        basis = self.bases[m]
        x = sig.values
        raw = vw.analyze_vector(sig, basis, levels)
        raw_bytes = vw.decomposition_to_bytes(raw)
        fwd = self.forward(sig, basis, levels)
        inv = self.inverse(fwd, basis)
        U = vw.decomposition_from_bytes(raw_bytes)
        T = vw.decomposition_from_bytes(fwd)
        errors = ck.round_trip(x, vw.synthesize_vector(U, basis).values)
        errors += ck.parseval(x, U.bands)
        errors += ck.census(U.bands, m, n, w.d) + ck.census(T.bands, m, n, w.d)
        errors += ck.threshold_sides(U.bands, T.bands, w.threshold)
        errors += ck.threshold_energy(x, vw.signal_from_bytes(inv).values, U.bands, T.bands)
        for data in (raw_bytes, fwd):
            errors += ck.codec_exact(data, vw.decomposition_from_bytes, vw.decomposition_to_bytes)
        for a, b in zip(U.bands, raw.bands):
            errors += ck.same_values(a.values, b.values, "vdec")
        errors += ck.codec_exact(inv, vw.signal_from_bytes, vw.signal_to_bytes)
        errors += ck.same_values(vw.signal_from_bytes(vw.signal_to_bytes(sig)).values, x, "vwav")
        if w.d == 1 and m == 1:
            f = self.filt
            errors += ck.matches_pyramid(U.bands, x[0], f.h, f.h_start, f.g, f.g_start, levels)
        return fwd, inv, errors

    def check_star(self) -> list:
        """A few catalog atoms: separable star pairing against dense quadrature."""
        vw, ck, w = self.vw, self.checks, self.w
        # dense 2-D samples grow as 4^level, so d = 2 takes the smallest m
        m = max(self.bases) if w.d == 1 else min(self.bases)
        basis = self.bases[m]
        atoms = vw.catalog_atoms(basis, 0, 1)
        # the first scaling atom, its neighbour, and the first two wavelet atoms
        picks = [atoms[0], atoms[1], atoms[3**w.d * m ** (w.d - 1)], atoms[-1]]
        # the separable side samples J levels below each factor, as run_verify
        # does; the dense side 5 levels below the finest factor, where its own
        # quadrature error is far below the tolerance
        top = max(vw.factor_component(basis.mw, e, a, 0).scale
                  for atom in picks for row in atom.rows for e, a in zip(atom.eps, row))
        level = top + 5
        cache = vw.FactorInnerCache(self.filt, w.j)
        dense = [vw.sample_vector_atom_nd(a, basis, level) for a in picks]
        errors = []
        for ia, a in enumerate(picks):
            for ib, b in enumerate(picks):
                sep = vw.star_nd_separable(a, b, basis, cache).entries
                ref = ck.dense_star(dense[ia].start, dense[ia].values, dense[ib].start, dense[ib].values, level)
                errors += ck.star_agrees(sep, ref, ck.GRAM_TOL[w.profile], f"atoms {ia},{ib}")
        return errors

    # -- the run -----------------------------------------------------------

    def start(self, first: bool, write_dir: str | None) -> dict:
        """Cold verify, full checks, and what the CLI must reproduce."""
        vw, w, span = self.vw, self.w, self.tracer.span

        # the first run_verify of every basis in this process fills its caches
        self.reports = {}
        t = time.perf_counter()
        with span("cli.run_verify_cold"):
            for m, basis in self.bases.items():
                self.attempted += 1
                try:
                    self.reports[m] = self.run_verify(basis, w.j, w.profile)
                except Exception as exc:  # an operation failure, counted
                    self.fail(f"run_verify m={m}", exc)
                    continue
                if not self.reports[m].passed:
                    self.fail(f"run_verify m={m}: a check did not pass:\n{self.reports[m].summary()}")
        self.cold_verify_s = time.perf_counter() - t

        self.checked = []
        for i, (m, n, levels, sig) in enumerate(self.items):
            self.attempted += 2
            try:
                fwd, inv, errors = self.check_item(m, n, levels, sig)
            except Exception as exc:  # both operations failed, counted
                self.fail(f"signal {i}", exc)
                self.failed += 1
                self.checked.append(None)
                continue
            if errors:
                self.fail(f"signal {i}: {errors}")
                self.failed += 1
            self.checked.append((fwd, inv))
        ci = self.cli_index
        expected = {"manifest": vw.catalog_manifest(self.bases[w.cli_m])}
        if self.checked[ci] is not None:
            expected["forward"], expected["inverse"] = self.checked[ci]
        if w.cli_m in self.reports:
            expected["report"] = self.reports[w.cli_m].to_csv()
        if write_dir:
            from pathlib import Path

            Path(write_dir, "signal.vwav").write_bytes(vw.signal_to_bytes(self.items[ci][3]))
        self.fwd_t, self.inv_t, self.verify_t = defaultdict(list), defaultdict(list), []
        self.reps = 0
        return {"expected": {k: _sha(v) for k, v in expected.items()}}

    def warm(self, reps: int):
        for _ in range(reps):
            self.tracer.rep = self.reps
            self.warm_rep()
            self.reps += 1

    def warm_rep(self):
        """One forward and inverse transform of every signal, one run_verify of every basis."""
        w, tracer, span = self.w, self.tracer, self.tracer.span
        for i, (m, n, levels, sig) in enumerate(self.items):
            if self.checked[i] is None:
                continue
            basis = self.bases[m]
            fwd_ref, inv_ref = self.checked[i]
            self.attempted += 2
            t = time.perf_counter()
            try:
                with span("op.forward"):
                    fwd = self.forward(sig, basis, levels)
            except Exception as exc:  # an operation failure, counted
                self.fail(f"forward {i}", exc)
            else:
                self.fwd_t[i].append(time.perf_counter() - t)
                if fwd != fwd_ref:
                    self.fail(f"forward {i}: bytes differ from the checked output")
            t = time.perf_counter()
            try:
                with span("op.inverse"):
                    inv = self.inverse(fwd_ref, basis)
            except Exception as exc:  # an operation failure, counted
                self.fail(f"inverse {i}", exc)
            else:
                self.inv_t[i].append(time.perf_counter() - t)
                if inv != inv_ref:
                    self.fail(f"inverse {i}: bytes differ from the checked output")
            if tracer.spans is not None:
                self.trace_transform_layers(m, levels, sig, inv_ref)

        t = time.perf_counter()
        whole = len(self.reports) == len(self.bases)
        for m, basis in self.bases.items():
            if m not in self.reports:
                continue
            self.attempted += 1
            try:
                with span("op.verify"):
                    rows = self.run_verify(basis, w.j, w.profile).rows
            except Exception as exc:  # an operation failure, counted
                self.fail(f"run_verify m={m}", exc)
                whole = False
                continue
            if rows != self.reports[m].rows:
                self.fail(f"run_verify m={m}: report differs from the first one")
        if whole:
            self.verify_t.append(time.perf_counter() - t)
        if tracer.spans is not None:
            self.trace_verify_layers()

    def finish(self, first: bool) -> dict:
        """Raw warm timings; run.py pools them over the run's workers."""
        if first:
            # deterministic, and in 2-D some hundred MB of dense samples: once a
            # run, after the warm timings so that its heap does not shift them
            self.errors += self.check_star()
        out = {
            "samples": [m * n**self.w.d for m, n, _, _ in self.items],
            "forward_s": {i: ts for i, ts in self.fwd_t.items()},
            "inverse_s": {i: ts for i, ts in self.inv_t.items()},
            "verify_s": self.verify_t,
        }
        if self.tracer.spans is not None:
            out["layers"], out["layer_reps"] = self.layer_values()
        return out

    # -- traced run only: calls into single layers ---------------------------

    def trace_transform_layers(self, m, levels, sig, inv_ref):
        vw, span, filt = self.vw, self.tracer.span, self.filt
        depth = m * levels + m - 1
        dwt, idwt = (vw.dwt_channel, vw.idwt_channel) if self.w.d == 1 else (vw.dwt2_channel, vw.idwt2_channel)
        with span("transform.dwt"):
            pyramids = [dwt(channel, filt, depth) for channel in sig.values]
        with span("transform.idwt"):
            for approx, details in pyramids:
                idwt(approx, details, filt)
        with span("transform.vwav_decode"):
            vw.signal_from_bytes(inv_ref)

    def trace_verify_layers(self):
        vw, span, w = self.vw, self.tracer.span, self.w
        for m, basis in self.bases.items():
            with span("basis1d.translate_gram"):
                vw.translate_gram_deviation(basis.mw, J=w.j, k_range=2)
            with span("basis1d.refine_residual"):
                basis1 = vw.build_vector_basis(self.filt, m)
                vw.refine_residual(basis1, vw.matrix_refinement_filter(basis1), w.j)
            with span("basisnd.gram_sweep"):
                vw.catalog_star_deviation(basis, max_level=1, k_range=1, J=w.j)
        text = vw.catalog_manifest(self.bases[w.cli_m])
        with span("cli.load_manifest"):
            self.load_manifest(text)

    def layer_values(self) -> tuple:
        """Per-layer figures of this process.

        Returns the once-a-process figures, and for each layer timed in the
        warm repetitions its summed self time per repetition.
        """
        from spans import add_self_times

        vw, w = self.vw, self.w
        add_self_times(self.tracer.spans)
        per_rep = defaultdict(lambda: defaultdict(float))
        for s in self.tracer.spans:
            if s["rep"] is not None:
                per_rep[f"{s['name']}_s"][s["rep"]] += s["self"]
        setup = {s["name"]: s["self"] for s in self.tracer.spans if s["rep"] is None}
        once = {
            "cli.run_verify_cold_s": self.cold_verify_s,
            "scalar.filter_build_s": setup["scalar.filter_build"],
            "scalar.filter_build_peak_mb": self.filter_peak_mb,
            "basisnd.gram_pairs": sum(len(vw.catalog_atoms(b, 1, 1)) ** 2 for b in self.bases.values()),
            "transform.step_madds": sum(step_madds(w.d, m, n, lv, self.filt.length) for m, n, lv, _ in self.items),
            "transform.step_bytes": sum(dwt_bytes(w.d, m, n, m * lv + m - 1) for m, n, lv, _ in self.items),
            "transform.vdec_mb": sum(len(c[0]) for c in self.checked if c is not None) / 1e6,
        }
        return once, {name: list(reps.values()) for name, reps in per_rep.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--span-prefix", default="w")
    parser.add_argument("--parent-span", default=None)
    parser.add_argument("--first", action="store_true", help="also run the once-a-run checks")
    parser.add_argument("--write-dir", default=None, help="also write the CLI input signal here")
    parser.add_argument("--probe", choices=("cascade",), default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    if args.probe == "cascade":
        print(json.dumps(cascade_probe(w)))
        return 0

    from spans import NullTracer, Tracer

    tracer = Tracer(args.run_id, args.span_prefix, args.parent_span) if args.trace else NullTracer()
    worker = Worker(w, args.seed, tracer)
    worker.setup()
    ready = {"setup_s": time.perf_counter() - T0}
    ready.update(worker.start(args.first, args.write_dir))
    print(json.dumps(ready), flush=True)
    # run.py sends "warm <repetitions>" between its CLI commands, then "done"
    for line in sys.stdin:
        command, *rest = line.split()
        if command == "done":
            break
        worker.warm(int(rest[0]))
        print("ok", flush=True)
    result = worker.finish(args.first)
    result.update(attempted=worker.attempted, failed=worker.failed, errors=worker.errors)
    if args.trace:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
