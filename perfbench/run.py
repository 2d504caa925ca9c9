"""siegel2 benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see README.md here):

    build-cold    three cold ``build`` calls at precision 10
    certify-grid  192 rank certificates and sharpness witnesses in one process
    cli-warm      20 seeded read-side CLI calls against a warm cache

With ``--trace 0`` the workload repeats for at least S seconds (and at
least twice), each run with its own seeded draw, and the end-to-end
metrics are reported; with ``--trace 1`` it runs the first draw once
untraced and twice traced, and the per-layer metrics are reported.
Every op is checked against ``manifest.json``, pinned from the parent
commit by ``pin.py``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke``
shrinks every workload to a few seconds for the benchmark's own tests.

Everything the run writes lives under ``.bench_work/`` in the checkout;
its working directory there is removed when it ends.
Ops run one at a time; the program is single-threaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MANIFEST = HERE / "manifest.json"
sys.dont_write_bytecode = True
import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

NAMES = ("X4", "X6", "X10", "X12", "Y12", "X16", "X35")
WORKLOADS = ("build-cold", "certify-grid", "cli-warm")
# Precisions: (cold build, warm cache), at full size and in smoke mode.
FULL, SMOKE = (10, 8), (5, 5)
MIN_ITERATIONS = 2
# After each process the reference loop is timed REF_SAMPLES times, or for
# SAMPLE_SHARE of the process's wall time if that takes longer.
REF_SAMPLES = 4
SAMPLE_SHARE = 0.05
SETUP_COLD = ["sturm-bound", "--weight", "12"]
DEADLINE_S = 170  # the whole run must end within 180 s
NOTE = (
    "a claimed gain must also hold on a seed that was not used while writing "
    "the change"
)


# -- ops -------------------------------------------------------------------------


def build_ops(precision):
    """The cold path: X35 builds X4, X6, X10, X12 first; Y12 and X16 load them."""
    return [
        ["build", "--name", name, "--prec", str(precision), "--cache-dir", "cache"]
        for name in ("X35", "Y12", "X16")
    ]


def sturm_bound(k):
    return k // 10 if k % 2 == 0 else (k - 5) // 10


def theorem1_grid():
    """The (k, p) pairs of acceptance criteria 4 and 5."""
    grid = [(k, p) for k in range(4, 41, 2) for p in (5, 7)]
    grid += [(k, p) for k in range(4, 17, 2) for p in (2, 3)]
    grid += [(k, p) for k in (35, 39, 41, 43, 45, 47, 49, 51) for p in (2, 3, 5, 7)]
    return grid


def certify_ops():
    """Every certificate op: [kind, k, p, precision]."""
    grid = theorem1_grid()
    ops = [["theorem1", k, p, max(sturm_bound(k), 5)] for k, p in grid]
    ops += [["theorem1", k, p, max(sturm_bound(k), 5)] for k in range(42, 65, 2) for p in (5, 7)]
    ops += [["witness", k, p, sturm_bound(k)] for k, p in grid]
    return ops


def cli_pools(warm):
    """Every read-side CLI op cli-warm may draw, by kind, against a cache at
    precision ``warm``.  ``show`` is served from the cache by truncation."""
    cache = ["--cache-dir", "cache"]
    files = [f"cache/{name}.p{warm}.qexp" for name in NAMES]
    at = [(0, 0, 0), (1, -1, 1), (2, -1, 3), (3, 2, 4), (4, -3, 5), (5, 7, 5)]
    return {
        "verify": [["verify", "--suite", "all", *cache]],
        "sturm": [["sturm-bound", "--weight", str(k)] for k in range(4, 61)],
        "show": [
            ["show", "--name", n, "--prec", str(q), *cache]
            for n in NAMES
            for q in range(1, warm + 1)
        ],
        "at": [
            ["show", "--name", n, "--prec", "5", "--at", f"{m},{r},{k}", *cache]
            for n in NAMES
            for m, r, k in at
        ],
        "check": [["check", "--file", f, "--prime", str(p)] for f in files for p in (2, 3, 5, 7)],
        "congruent": [
            ["congruent", "--a", a, "--b", b, "--prime", str(p)]
            for i, a in enumerate(files)
            for b in files[i + 1 :]
            for p in (2, 3)
        ],
        "witness": [
            ["witness", "--weight", str(k), "--prime", str(p), *cache]
            for k, p in theorem1_grid()
        ],
    }


# Ops drawn per kind; the smoke draw only uses ops a precision-5 cache serves.
CLI_DRAW = {"verify": 1, "sturm": 1, "show": 5, "at": 4, "check": 3, "congruent": 3, "witness": 3}
SMOKE_CLI_DRAW = {"sturm": 1, "show": 2, "at": 2, "witness": 1}


def draw_cli_ops(rng, smoke):
    pools = cli_pools(SMOKE[1] if smoke else FULL[1])
    ops = []
    for kind, count in (SMOKE_CLI_DRAW if smoke else CLI_DRAW).items():
        ops += rng.sample(pools[kind], count)
    rng.shuffle(ops)
    return ops


def draw_certify_ops(rng, smoke):
    ops = certify_ops()
    if smoke:
        ops = rng.sample([op for op in ops if op[3] <= SMOKE[1]], 12)
    rng.shuffle(ops)
    return ops


def op_key(argv):
    return " ".join(str(a) for a in argv)


# -- processes -------------------------------------------------------------------


@dataclass
class Call:
    code: int
    stdout: bytes
    stderr: bytes
    start_ns: int
    wall_ns: int
    rss_kb: int


class Runner:
    """Starts one child at a time from the work directory and reaps it with
    its own resource usage, so each call's peak RSS is its own.  It times
    the reference loop between children, and keeps every timing taken, by
    itself or inside its children, for ``calibrate.speed``."""

    def __init__(self, work: Path, deadline: float, src: Path = ROOT / "src"):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("SIEGEL2_CACHE", None)
        # Bytecode is cached and stdout buffered, as for any user; the cache
        # lives outside the source tree.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("PYTHONUNBUFFERED", None)
        self.env["PYTHONPATH"] = str(src)
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.samples = []  # (start, duration) of reference-loop timings

    def _calibrate(self, busy_ns: int = 0) -> None:
        until = time.perf_counter_ns() + busy_ns * SAMPLE_SHARE
        taken = 0
        while taken < REF_SAMPLES or time.perf_counter_ns() < until:
            self.samples.append(calibrate.sample())
            taken += 1

    def run(self, argv) -> Call:
        if not self.samples or time.perf_counter_ns() - self.samples[-1][0] > calibrate.WINDOW_NS:
            self._calibrate()
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - time.monotonic()))
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
                proc.wait()
                raise TimeoutError(f"run deadline passed during {op_key(argv)}")
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter_ns() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self._calibrate(wall)
        return Call(proc.returncode, stdout, stderr, start, wall, usage.ru_maxrss)

    def cli(self, argv) -> Call:
        """``python -m siegel2 ARGV``, the plain command."""
        return self.run([sys.executable, "-m", "siegel2", *argv])

    def worker(self, args, traced: bool) -> "Measured":
        """A measured process: ``worker.py`` and what it recorded."""
        out = self.work / "worker.json"
        out.unlink(missing_ok=True)
        mode, rest = args[0], args[1:]
        if mode == "cli":
            argv = ["cli", str(out), *(["--trace"] if traced else []), "--", *rest]
        else:
            argv = [mode, rest[0], str(out), *(["--trace"] if traced else [])]
        call = self.run([sys.executable, str(HERE / "worker.py"), *argv])
        record = json.loads(out.read_text()) if out.exists() else {"reference": []}
        self.samples += [tuple(s) for s in record["reference"]]
        return Measured(call, record)

    def speed(self, call: Call) -> float:
        """Host speed around one process (see calibrate.py)."""
        return calibrate.speed(self.samples, call.start_ns, call.start_ns + call.wall_ns)


@dataclass
class Measured:
    """A worker process and what it recorded."""

    call: Call
    record: dict

    @property
    def wall_ns(self) -> int:
        """Wall time without the reference-loop timings taken inside."""
        return self.call.wall_ns - sum(d for _, d in self.record["reference"])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_listing(work: Path) -> dict:
    cache = work / "cache"
    if not cache.is_dir():
        return {}
    return {p.name: sha256(p.read_bytes()) for p in sorted(cache.iterdir())}


def cache_diff(work: Path, want: dict) -> list:
    got = cache_listing(work)
    return sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))


# -- checks ----------------------------------------------------------------------


class Checker:
    """Counts ops and compares each with the pinned manifest."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def cli(self, argv, call: Call, work: Path) -> None:
        """Exit code and stdout digest; for ``build`` ops, the cache bytes too."""
        self.attempted += 1
        key = op_key(argv)
        want = self.manifest["cli"].get(key)
        if want is None:
            self.fail(f"{key}: not in the manifest")
        elif call.code != want["exit"] or sha256(call.stdout) != want["stdout_sha256"]:
            detail = call.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            self.fail(f"{key}: exit {call.code}, stdout differs or exit unexpected {detail[0]}")
        elif "cache" in want and cache_listing(work) != want["cache"]:
            self.fail(f"{key}: cache files differ from the pinned bytes: {cache_diff(work, want['cache'])}")

    def cache_unchanged(self, work: Path, warm: int) -> None:
        self.attempted += 1
        want = self.manifest["warm_cache"][str(warm)]
        if cache_listing(work) != want:
            self.fail(f"the warm cache changed during a read-only workload: {cache_diff(work, want)}")

    def certify(self, ops, rows) -> None:
        for op, (_, verdict) in zip(ops, rows):
            self.attempted += 1
            key = op_key(op)
            want = self.manifest["certify"].get(key)
            if verdict != want:
                self.fail(f"{key}: verdict {verdict}, pinned {want}")
        for op in ops[len(rows) :]:
            self.attempted += 1
            self.fail(f"{op_key(op)}: no result")


# -- workloads -------------------------------------------------------------------


@dataclass
class Iteration:
    """One run of a workload: its processes, and the certificate rows when
    the ops ran inside one process."""

    processes: list
    rows: list | None = None

    def op_ns(self, speed=None) -> list:
        """Each op's time, scaled by ``speed(call)`` of its process if given."""
        factor = speed or (lambda call: 1.0)
        if self.rows is None:
            return [p.wall_ns * factor(p.call) for p in self.processes]
        scale = factor(self.processes[0].call)
        return [ns * scale for ns, _ in self.rows]

    def wall_ns(self, speed=None) -> float:
        """The run's time: the sum of its processes' times, each scaled by
        ``speed(call)`` if given."""
        factor = speed or (lambda call: 1.0)
        return sum(p.wall_ns * factor(p.call) for p in self.processes)

    @property
    def rss_kb(self) -> int:
        return max(p.call.rss_kb for p in self.processes)


class Workload:
    def __init__(self, name, seed, smoke, runner: Runner, checker: Checker):
        self.name = name
        self.runner = runner
        self.checker = checker
        self.cold, self.warm = SMOKE if smoke else FULL
        self.seed, self.smoke = seed, smoke
        self.drawn = []  # the ops of each run, in order
        self.work = runner.work

    def draw(self, index: int) -> list:
        """The ops of run ``index``, drawn from the seed.  Each run draws its
        own, so a run's percentiles depend less on one draw."""
        rng = random.Random(f"{self.seed}:{index}")
        if self.name == "build-cold":
            ops = build_ops(self.cold)
        elif self.name == "certify-grid":
            ops = draw_certify_ops(rng, self.smoke)
        else:
            ops = draw_cli_ops(rng, self.smoke)
        self.drawn.append(ops)
        return ops

    def reset_cache(self):
        shutil.rmtree(self.work / "cache", ignore_errors=True)

    def setup(self) -> Iteration:
        """Prepare a run's starting state: the warm cache, built by the code
        under test, or for build-cold an empty cache and the package compiled
        by one trivial call."""
        self.reset_cache()
        steps = build_ops(self.warm) if self.name != "build-cold" else [SETUP_COLD]
        processes = []
        for argv in steps:
            processes.append(self.runner.worker(["cli", *argv], traced=False))
            self.checker.cli(argv, processes[-1].call, self.work)
        return Iteration(processes)

    def iterate(self, traced: bool, index: int) -> Iteration:
        ops = self.draw(index)
        if self.name == "certify-grid":
            return self._certify(traced, ops)
        if self.name == "build-cold":
            self.reset_cache()
        processes = []
        for argv in ops:
            processes.append(self.runner.worker(["cli", *argv], traced))
            self.checker.cli(argv, processes[-1].call, self.work)
        if self.name == "cli-warm":
            self.checker.cache_unchanged(self.work, self.warm)
        return Iteration(processes)

    def _certify(self, traced, ops) -> Iteration:
        ops_path = self.work / "ops.json"
        ops_path.write_text(json.dumps({"cache_dir": "cache", "ops": ops}))
        process = self.runner.worker(["certify", str(ops_path)], traced)
        if process.call.code != 0:
            detail = process.call.stderr.decode(errors="replace")[-300:]
            self.checker.fail(f"certify worker exited {process.call.code}: {detail}")
        rows = process.record.get("rows", [])
        self.checker.certify(ops, rows)
        self.checker.cache_unchanged(self.work, self.warm)
        return Iteration([process], rows)


# -- metrics ---------------------------------------------------------------------


def end_to_end(setups, iterations, speed=None):
    """End-to-end values, each process's times scaled by ``speed(call)``
    if given."""
    walls = [it.wall_ns(speed) for it in iterations]
    ops_ms = sorted(ns / 1e6 for it in iterations for ns in it.op_ns(speed))
    setup_ns = [it.wall_ns(speed) for it in setups]
    deciles = statistics.quantiles(ops_ms, n=10, method="inclusive")
    values = {
        "wall_s": statistics.median(walls) / 1e9,
        "op_p50_ms": statistics.median(ops_ms),
        "op_p90_ms": deciles[8],
        "peak_rss_mb": max(it.rss_kb for it in iterations) / 1024,
        "setup_s": statistics.median(setup_ns) / 1e9,
    }
    samples = {
        "wall_s": f"median of {len(iterations)} runs",
        "op_p50_ms": f"{len(ops_ms)} ops",
        "op_p90_ms": f"{len(ops_ms)} ops",
        "peak_rss_mb": f"max over {len(iterations)} runs",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return values, samples


def per_layer(untraced: Iteration, traced: list, checker: Checker, runner: Runner):
    summaries = []
    for it in traced:
        processes = [(p.record["spans"], p.record["gaps"]) for p in it.processes]
        totals, accounted = tracing.summarise(processes)
        # The gaps hold the reference-loop timings too, so the raw wall time.
        uncovered = [p.call.wall_ns - ns for p, ns in zip(it.processes, accounted)]
        totals["cli.process_s"] = statistics.median(uncovered) / 1e9
        totals["cli.import_s"] = statistics.median(p.record["import_ns"] for p in it.processes) / 1e9
        totals["trace.uncovered_s"] = sum(uncovered) / 1e9
        traced_ns, untraced_ns = it.wall_ns(runner.speed), untraced.wall_ns(runner.speed)
        totals["trace.overhead_ratio"] = traced_ns / untraced_ns
        summaries.append(totals)
    first, second = summaries
    for key in tracing.EXACT:
        checker.attempted += 1
        if first[key] != second[key]:
            checker.fail(f"{key} differs between two traced runs: {first[key]} vs {second[key]}")
    values = {}
    for key, value in first.items():
        values[key] = (value + second[key]) / 2 if isinstance(value, float) else value
    samples = {key: "mean of 2 traced runs" for key in values}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "siegel2" / "__init__.py").is_file():
        print(f"error: no siegel2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads(MANIFEST.read_text())

    started = time.monotonic()
    # A directory of its own, so runs that overlap cannot share a cache.
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, spec, manifest, started, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, manifest, started, work) -> int:
    runner = Runner(work, started + DEADLINE_S)
    checker = Checker(manifest)
    workload = Workload(args.workload, args.seed, args.smoke, runner, checker)

    extra = {}
    if args.trace:
        workload.setup()
        # The same ops every time, so the traced runs' exact counts must agree.
        untraced = workload.iterate(traced=False, index=0)
        traced = [workload.iterate(traced=True, index=0) for _ in range(2)]
        values, samples = per_layer(untraced, traced, checker, runner)
        wanted = spec["per_layer"]
    else:
        setups = [workload.setup() for _ in range(3)]
        iterations = []
        measured = time.monotonic()
        while len(iterations) < MIN_ITERATIONS or time.monotonic() - measured < args.seconds:
            iterations.append(workload.iterate(traced=False, index=len(iterations)))
            last = iterations[-1].wall_ns() / 1e9
            if time.monotonic() + last > started + DEADLINE_S - 5:
                break
        values, samples = end_to_end(setups, iterations, runner.speed)
        as_measured, _ = end_to_end(setups, iterations)
        speed, setup_speed = (
            statistics.median(runner.speed(p.call) for it in its for p in it.processes)
            for its in (iterations, setups)
        )
        print(f"host speed {speed:.3f} (set-up {setup_speed:.3f}) of nominal, median over "
              "processes; as measured:", json.dumps({k: round(v, 6) for k, v in as_measured.items()}))
        extra["as_measured"] = as_measured
        extra["host_speed"] = {"runs": speed, "setup": setup_speed}
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:>14.6g} {metric['unit']:6s} {samples.get(name, '')}")
    rate = checker.failed / checker.attempted
    print(f"  {'error_rate':38s} {rate:>14.6g} ratio  {checker.failed} failed of {checker.attempted} ops")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    print(f"  note: {NOTE}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, error_rate=rate, samples=samples, ops=workload.drawn, note=NOTE,
                  **extra)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
