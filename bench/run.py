"""The thetacat benchmark: seeded batches of CLI jobs, timed end to end.

    python3 bench/run.py --workload horn-check --seed 1 --seconds 40 --trace 0

Each job is one fresh `python -m thetacat.cli ...` child process, run
one at a time, so every job pays the interpreter start and the cold
caches a user pays.  A pass runs the job list drawn from the seed
(bench/jobs.py); the run repeats passes while the next one still fits
into --seconds and reports medians over passes.  Every job's exit code
and report are checked against expectations the benchmark computes
itself.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one plain
pass, then passes under the span recorder (bench/tracer.py), and
reports per-layer metrics; their counts must repeat exactly from one
traced pass to the next.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_CALLS_PER_PASS = 5
MIN_TRACED_PASSES = 2

clock = time.perf_counter


class Child(NamedTuple):
    """One finished child process: exit code, wall seconds and rusage."""

    code: int | None
    wall: float
    cpu: float
    rss_mb: float
    killed: bool


def spawn(argv: list[str], out_path: Path, timeout: float) -> Child:
    """Run `python argv` with stdout and stderr to files; kill on timeout."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_path) + ".err", flags, 0o644),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = clock()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    done = []
    reaper = threading.Thread(target=lambda: done.append((os.wait4(pid, 0), clock())))
    reaper.start()
    reaper.join(max(timeout, 0.0))
    killed = reaper.is_alive()
    if killed:
        os.kill(pid, signal.SIGKILL)
        reaper.join()
    (_, status, usage), end = done[0]
    return Child(os.waitstatus_to_exitcode(status), end - start,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, killed)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.jobs = jobs.draw(workload, seed)
        self.seconds = seconds
        self.workdir = workdir
        self.start = clock()
        self.attempted = 0
        self.failed = 0
        self.setup_samples: list[float] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (clock() - self.start)

    def setup_call(self) -> float:
        """Interpreter start, `import thetacat.cli` and parser build."""
        child = spawn(["-m", "thetacat.cli", "--version"], self.workdir / "version",
                      min(JOB_TIMEOUT_S, self.remaining()))
        if child.code != 0:
            raise SystemExit(f"bench: `thetacat --version` exited {child.code}")
        return child.wall

    def run_pass(self, traced: bool) -> dict:
        """Run every job once; per-job wall and CPU seconds, peak RSS, traces."""
        result = {"wall": 0.0, "rss_mb": 0.0, "job_wall": [], "job_cpu": [],
                  "traces": []}
        start = clock()
        for i, job in enumerate(self.jobs):
            out = self.workdir / f"job{i}"
            trace = self.workdir / f"job{i}.trace"
            argv = (["-m", "thetacat.cli"] if not traced
                    else [str(BENCH / "tracer.py"), str(trace)]) + job["argv"]
            self.attempted += 1
            timeout = min(JOB_TIMEOUT_S, self.remaining())
            if timeout <= 0:
                self.fail(job, "not started: run deadline reached")
                child = Child(None, 0.0, 0.0, 0.0, False)
            else:
                child = spawn(argv, out, timeout)
            result["job_wall"].append(child.wall)
            result["job_cpu"].append(child.cpu)
            result["rss_mb"] = max(result["rss_mb"], child.rss_mb)
            if child.killed:
                self.fail(job, f"killed after {child.wall:.1f} s")
            elif child.code is not None:
                problem = jobs.check_output(job, child.code, out.read_bytes())
                if problem:
                    self.fail(job, problem)
                if traced and trace.exists():
                    result["traces"].append(json.loads(trace.read_text()))
        result["wall"] = clock() - start
        return result

    def fail(self, job: dict, why: str) -> None:
        self.failed += 1
        print(f"FAILED {jobs.label(job)}: {why}", file=sys.stderr)

    def passes(self, traced: bool, minimum: int) -> list[dict]:
        """Run passes while the next still fits into the run's seconds."""
        done = []
        while True:
            if not traced:
                self.setup_samples += [self.setup_call()
                                       for _ in range(SETUP_CALLS_PER_PASS)]
            done.append(self.run_pass(traced))
            last = done[-1]["wall"]
            if self.remaining() <= last or (
                len(done) >= minimum and clock() - self.start + last > self.seconds
            ):
                return done


def typical_pass(passes: list[dict], key: str) -> float:
    """Sum over the pass's jobs of each job's median across passes.

    A burst of load from outside lands on one job of one pass; the
    per-job median drops it where the median of pass totals would not.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def end_to_end(run: Run, passes: list[dict]) -> dict:
    return {
        "wall_s": (typical_pass(passes, "job_wall"), "s"),
        "cpu_s": (typical_pass(passes, "job_cpu"), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(run.setup_samples), "s"),
    }


def merge(traces: list[dict]) -> dict:
    """Sum the per-job traces of one pass."""
    out = {"totals": {}, "counters": {}, "import_s": 0.0, "main_s": 0.0,
           "covered_s": 0.0, "spans": 0}
    for t in traces:
        for key in ("import_s", "main_s", "covered_s"):
            out[key] += t[key]
        out["spans"] += len(t["spans"])
        for name, (calls, incl, self_s) in t["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, n in t["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
    return out


# Layers with more than one wrapped function; csp.solve_s and
# groups.cocycle_tools.s already are the other layers' self time.
LAYERS = ("presheaves", "checkers", "nerves", "theta", "subshapes", "anodyne")


def per_layer(agg: dict) -> dict:
    """Per-layer counts (unit `count`) and seconds of one traced pass."""
    totals, counters = agg["totals"], agg["counters"]
    calls = lambda n: totals.get(n, [0, 0.0, 0.0])[0]
    incl = lambda n: totals.get(n, [0, 0.0, 0.0])[1]
    self_s = lambda n: totals.get(n, [0, 0.0, 0.0])[2]
    count = lambda n: counters.get(n, 0)
    nodes, solutions = count("csp.nodes"), count("csp.solutions")
    action_calls, action_hits = calls("presheaves.action"), count("presheaves.action.hits")
    m = {
        "csp.solve_calls": (calls("csp.solve_all"), "count"),
        "csp.solve_s": (incl("csp.solve_all"), "s"),
        "csp.nodes": (nodes, "count"),
        "csp.solutions": (solutions, "count"),
        "csp.vars": (count("csp.vars"), "count"),
        "csp.fn_arcs": (count("csp.fn_arcs"), "count"),
        "csp.table_arcs": (count("csp.table_arcs"), "count"),
        "csp.solutions_per_node": (solutions / nodes if nodes else 0.0, "ratio"),
        "presheaves.nat_face_union.calls": (calls("presheaves.nat_face_union"), "count"),
        "presheaves.nat_face_union.self_s": (self_s("presheaves.nat_face_union"), "s"),
        "presheaves.nat_presheaves.calls": (calls("presheaves.nat_presheaves"), "count"),
        "presheaves.nat_presheaves.self_s": (self_s("presheaves.nat_presheaves"), "s"),
        "presheaves.action.calls": (action_calls, "count"),
        "presheaves.action.distinct": (action_calls - action_hits, "count"),
        "presheaves.action.self_s": (self_s("presheaves.action"), "s"),
        "presheaves.action.hit_ratio": (
            action_hits / action_calls if action_calls else 0.0, "ratio"),
        "checkers.horns": (calls("checkers.horn_filling"), "count"),
        "checkers.horn_filling.self_s": (self_s("checkers.horn_filling"), "s"),
        "nerves.homotopy_classes.self_s": (self_s("nerves.homotopy_classes"), "s"),
        "nerves.vertex_inclusion_values.s": (incl("nerves.vertex_inclusion_values"), "s"),
        "groups.cocycle_tools.s": (incl("groups.cocycle_tools"), "s"),
        "groups.cocycles": (count("groups.cocycles"), "count"),
        "theta.compose_classes.calls": (calls("theta.compose_classes"), "count"),
        "theta.compose_classes.s": (incl("theta.compose_classes"), "s"),
        "theta.factor_through.calls": (calls("theta.factor_through"), "count"),
        "subshapes.face_membership.calls": (calls("subshapes.face_membership"), "count"),
        "subshapes.face_membership.s": (incl("subshapes.face_membership"), "s"),
        "subshapes.build.s": (incl("subshapes.build"), "s"),
        "subshapes.algebra.s": (incl("subshapes.algebra"), "s"),
        "anodyne.probe.nodes": (count("anodyne.probe.nodes"), "count"),
        "anodyne.probe.states": (count("anodyne.probe.states"), "count"),
        "anodyne.steps": (count("anodyne.steps"), "count"),
        "anodyne.spine_probe.self_s": (self_s("anodyne.spine_probe"), "s"),
        "anodyne.certify.self_s": (self_s("anodyne.certify"), "s"),
        "anodyne.verify.self_s": (self_s("anodyne.verify"), "s"),
        "cli.main_s": (agg["main_s"], "s"),
        "cli.import_s": (agg["import_s"], "s"),
        "cli.self_s": (agg["main_s"] - agg["covered_s"], "s"),
    }
    for fn in ("enumerate_hom", "faces_of", "face_class"):
        m[f"theta.{fn}.hits"] = (count(f"theta.{fn}.hits"), "count")
        m[f"theta.{fn}.misses"] = (count(f"theta.{fn}.misses"), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t[2] for name, t in totals.items() if name.split(".")[0] == layer), "s")
    return m


def traced_metrics(run: Run) -> tuple[dict, bool]:
    plain = run.run_pass(traced=False)
    traced = run.passes(traced=True, minimum=MIN_TRACED_PASSES)
    layers = [per_layer(merge(p["traces"])) for p in traced]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in layers]
    stable = all(c == counts[0] for c in counts[1:])
    if not stable:
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        print(f"counters differ between traced passes: {diff}", file=sys.stderr)
    metrics = {}
    for name, (_, unit) in layers[0].items():
        values = [m[name][0] for m in layers]
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain["wall"], "s")
    metrics["trace.overhead_s"] = (traced_wall - plain["wall"], "s")
    metrics["trace.spans"] = (merge(traced[0]["traces"])["spans"], "count")
    return metrics, stable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.POOLS))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thetacat" / "cli.py").is_file():
        print(f"bench: no thetacat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        run.setup_call()  # compiles bytecode on a fresh checkout; not timed
        if args.trace:
            metrics, stable = traced_metrics(run)
        else:
            metrics, stable = end_to_end(run, run.passes(traced=False, minimum=1)), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(run.jobs)} jobs per pass")
    for job in run.jobs:
        print(f"  thetacat {jobs.label(job)}")
    print(f"failed_frac: {run.failed / run.attempted} "
          f"({run.failed} of {run.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and stable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
