"""Run one workload of the vecwave benchmark and print its metrics.

    python3 bench/run.py --workload signal-1d --seed 1 --seconds 56 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` of that checkout.  The run repeats rounds until --seconds have gone
by.  A round starts one fresh worker process (set-up, then checked warm
transforms and verification, see worker.py) and one fresh process for each
CLI command: build, verify, transform, transform --inverse, that sequence
repeated as often as the workload's `cli_cycles` says.  The worker times a
fixed number of warm repetitions before every other CLI command and after
the last, and waits while a command runs, so one child works at a time and
the warm timings are spread over the whole run.
Every output is checked (see checks.py); CLI outputs must equal the
worker's in-process bytes and be the same in every round.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, each the mean over the run's samples
(the peak RSS is the largest; README.md says why not the median).  With
--trace 1 they are the per-layer ones, taken from spans around calls into
each vecwave module; the spans go to .bench_out/trace-<workload>-seed<seed>.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
# warm repetitions in each slice the worker times between CLI commands; a
# fixed count, so that every round attempts the same operations
WARM_REPS = 1
# stop starting rounds after this long, so a slow machine still ends in time
LAST_ROUND_START_S = 120.0
CHILD_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WORKLOADS, levels_for  # noqa: E402


class ChildFailed(Exception):
    pass


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, work: Path) -> dict:
    """Run one child to its end; return wall time, exit code, output and peak RSS."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
        "peak_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def last_json(child: dict, what: str) -> dict:
    lines = child["stdout"].strip().splitlines()
    if child["code"] != 0 or not lines:
        raise ChildFailed(f"{what} exited with {child['code']}:\n{child['stderr']}")
    return json.loads(lines[-1])


class WorkerProcess:
    """One worker child, driven one command at a time over its standard input."""

    def __init__(self, cmd: list, work: Path):
        self.stderr_path = work / "worker-stderr.txt"
        self._err = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
                                     env=_env(), cwd=ROOT, text=True)
        self._timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # after "done" the worker ends by itself; on an error, end it here
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.wait()
        self._timer.cancel()
        self._err.close()

    def read(self):
        """The worker's next line: a JSON object, or a bare word."""
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise ChildFailed(f"worker exited with {self.proc.returncode}:\n{self.stderr_path.read_text()}")
        return json.loads(line) if line.startswith("{") else line.strip()

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.run_id = f"{workload}-seed{seed}-{os.getpid()}"
        self.work = OUT / f"work-{self.run_id}"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.workers = []
        self.cli = {name: [] for name in ("build", "verify", "forward", "inverse")}
        self.cli_bytes = {}
        self.probes = {"startup": [], "cascade": []}
        self.spans = []

    def span(self, name: str, start: float, end: float, parent=None, sid=None):
        self.spans.append({"id": sid or f"p{len(self.spans)}", "parent": parent, "name": name, "start": start,
                           "end": end, "run": self.run_id, "rep": None})

    # -- one round ------------------------------------------------------------

    def worker_cmd(self, r: int, round_span: str) -> list:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.w.name, "--seed", str(self.seed),
               "--trace", str(int(self.trace)), "--run-id", self.run_id, "--span-prefix", f"r{r}.",
               "--parent-span", f"{round_span}.worker"]
        if r == 0:
            cmd += ["--first", "--write-dir", str(self.work)]
        return cmd

    def worker_ready(self, worker: WorkerProcess, r: int):
        ready = worker.read()
        if self.workers and ready["expected"] != self.workers[0]["expected"]:
            self.errors.append(f"worker {r}: in-process outputs differ from the first worker's")
        self.workers.append(ready)

    def warm(self, worker: WorkerProcess, round_span: str):
        start = time.perf_counter()
        worker.send(f"warm {WARM_REPS}")
        if worker.read() != "ok":
            raise ChildFailed("worker answered out of turn")
        self.span("worker.warm", start, time.perf_counter(), f"{round_span}.worker")

    def worker_done(self, worker: WorkerProcess):
        worker.send("done")
        result = worker.read()
        self.spans += result.pop("spans", [])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]
        self.workers[-1].update(result)

    def cli_command(self, name: str, round_span: str):
        w, work = self.w, self.work
        manifest, signal = work / "basis.txt", work / "signal.vwav"
        outputs = {"build": manifest, "verify": work / "report.csv", "forward": work / "dec.vdec",
                   "inverse": work / "rec.vwav"}
        args = {
            "build": ["build", "--filter", w.filter, "--d", str(w.d), "--m", str(w.cli_m), "--out", str(manifest)],
            "verify": ["verify", "--manifest", str(manifest), "--profile", w.profile, "--j", str(w.j),
                       "--report", str(outputs["verify"])],
            "forward": ["transform", "--in", str(signal), "--manifest", str(manifest),
                        "--levels", str(levels_for(w.cli_m, w.cli_n)), "--threshold", repr(w.threshold),
                        "--out", str(outputs["forward"])],
            "inverse": ["transform", "--in", str(outputs["forward"]), "--manifest", str(manifest), "--inverse",
                        "--out", str(outputs["inverse"])],
        }[name]
        out = outputs[name]
        out.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        child = run_child([sys.executable, "-m", "vecwave.cli"] + args, work)
        self.span(f"process.cli.{name}", start, start + child["wall_s"], round_span)
        self.cli[name].append({"wall_s": child["wall_s"], "peak_mb": child["peak_mb"]})
        # exit code 1 is verify's own failure verdict, which its check reports
        if child["code"] not in (0, 1) or (child["code"] == 1 and name != "verify"):
            self.failed += 1
            print(f"cli {name} failed with exit code {child['code']}: {child['stderr'].strip()}", file=sys.stderr)
            return
        data = out.read_bytes() if out.exists() else b""
        errors = []
        if name == "verify":
            errors += checks.verify_passed(child["code"], data.decode("ascii", "replace"))
        want = self.workers[0]["expected"].get({"build": "manifest", "verify": "report"}.get(name, name))
        if want is None or _sha(data) != want:
            errors.append(f"cli {name}: output differs from the in-process bytes")
        # the same bytes in every round
        errors += checks.same_bytes(data, self.cli_bytes.setdefault(name, data), f"cli {name}")
        if errors:
            self.failed += 1
            self.errors += errors

    def probe(self, round_span: str):
        start = time.perf_counter()
        child = run_child([sys.executable, "-c", "import vecwave.cli"], self.work)
        if child["code"] != 0:
            raise ChildFailed(f"import vecwave.cli exited with {child['code']}:\n{child['stderr']}")
        self.span("process.startup", start, start + child["wall_s"], round_span)
        self.probes["startup"].append(child["wall_s"])
        start = time.perf_counter()
        child = run_child([sys.executable, str(BENCH / "worker.py"), "--workload", self.w.name,
                           "--seed", str(self.seed), "--probe", "cascade"], self.work)
        self.span("process.cascade", start, start + child["wall_s"], round_span)
        self.probes["cascade"].append(last_json(child, "cascade probe")["cascade_s"])

    def round(self, r: int, run_span: str):
        round_span = f"{run_span}.r{r}"
        start = time.perf_counter()
        with WorkerProcess(self.worker_cmd(r, round_span), self.work) as worker:
            self.worker_ready(worker, r)
            # one fixed order, so each command runs after the same neighbours in every round
            for i, name in enumerate(("build", "verify", "forward", "inverse") * self.w.cli_cycles):
                if i % 2 == 0:
                    self.warm(worker, round_span)
                self.cli_command(name, round_span)
            self.warm(worker, round_span)
            self.worker_done(worker)
        self.span("process.worker", start, time.perf_counter(), round_span, f"{round_span}.worker")
        if self.trace:
            self.probe(round_span)
        self.spans.append({"id": round_span, "parent": run_span, "name": "round", "start": start,
                           "end": time.perf_counter(), "run": self.run_id, "rep": None})

    def execute(self, seconds: float):
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            start = time.perf_counter()
            costs = []
            r = 0
            while True:
                t = time.perf_counter()
                self.round(r, "run")
                costs.append(time.perf_counter() - t)
                r += 1
                now = time.perf_counter()
                # the first round also runs the once-a-run checks, so later ones predict better
                if r >= MIN_ROUNDS and (now + statistics.median(costs[1:]) > start + seconds
                                        or now - start > LAST_ROUND_START_S):
                    break
            self.spans.append({"id": "run", "parent": None, "name": "run", "start": start,
                               "end": time.perf_counter(), "run": self.run_id, "rep": None})
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.rounds = r

    # -- metrics ----------------------------------------------------------------

    def pooled(self, key: str) -> dict:
        """Warm timings of every worker of the run, pooled per signal."""
        out = {}
        for wk in self.workers:
            for i, ts in wk[key].items():
                out.setdefault(i, []).extend(ts)
        return out

    def end_to_end(self) -> dict:
        # means, not medians: the samples of a run fall mostly into a fast and
        # a slow mode of the machine, and a median jumps between the two modes
        mean = statistics.fmean
        samples = self.workers[0]["samples"]
        out = {"setup_s": mean(wk["setup_s"] for wk in self.workers)}
        # a metric whose every operation failed is left out, and main() reports it
        for key in ("forward", "inverse"):
            times = self.pooled(f"{key}_s")
            if times:
                out[f"{key}_samples_per_s"] = sum(samples[int(i)] for i in times) / sum(map(mean, times.values()))
        verify = [t for wk in self.workers for t in wk["verify_s"]]
        if verify:
            out["verify_s"] = mean(verify)
        for name, runs in self.cli.items():
            out[f"cli_{name}_s"] = mean(c["wall_s"] for c in runs)
        out["cli_peak_rss_mb"] = max(c["peak_mb"] for runs in self.cli.values() for c in runs)
        return out

    def per_layer(self) -> dict:
        med = statistics.median
        out = {name: med(wk["layers"][name] for wk in self.workers) for name in self.workers[0]["layers"]}
        out.update((name, med(ts)) for name, ts in self.pooled("layer_reps").items())
        out["basisnd.gram_pairs_per_s"] = out["basisnd.gram_pairs"] / out["basisnd.gram_sweep_s"]
        out["transform.step_gb_per_s"] = out.pop("transform.step_bytes") / out["transform.dwt_s"] / 1e9
        out["cli.startup_s"] = med(self.probes["startup"])
        out["scalar.cascade_s"] = med(self.probes["cascade"])
        return out

    def write_trace(self):
        from spans import add_self_times

        add_self_times(self.spans)
        with open(OUT / f"trace-{self.w.name}-seed{self.seed}.jsonl", "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
        totals = {}
        for s in self.spans:
            count, total, self_total = totals.get(s["name"], (0, 0.0, 0.0))
            totals[s["name"]] = (count + 1, total + s["end"] - s["start"], self_total + s["self"])
        print(f"{'span':28} {'count':>6} {'total_s':>10} {'self_s':>10}")
        for name, (count, total, self_total) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:28} {count:6d} {total:10.4f} {self_total:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vecwave" / "__init__.py").is_file():
        print(f"error: no vecwave sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        run.execute(args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = run.end_to_end()
    values = run.per_layer() if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": run.w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "rounds": run.rounds, "end_to_end": e2e, "workers": run.workers, "cli": run.cli,
              "probes": run.probes, "errors": run.errors}
    if args.trace:
        record["per_layer"] = values
        run.write_trace()
        print("end-to-end under tracing: " + json.dumps(e2e))
    (OUT / f"result-{run.w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
