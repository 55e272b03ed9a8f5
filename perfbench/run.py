#!/usr/bin/env python3
"""Benchmark of the barrierwalk command-line program.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each measurement is one fresh child process running the CLI as a user
would (`python -m barrierwalk <args>`, through perfbench/child.py), with
its output written to a directory under .perfbench/ and checked after the
child exits.  Children run one after another (a closed loop with one
client) until --seconds have been used.

--trace 0 prints the end-to-end metrics: medians over the children of one
run.  --trace 1 alternates untraced children with children that record
spans around the public functions of cli, experiments, walk, reduced and
phases, and prints per-layer metrics (0 for a layer the workload never
calls).  --smoke runs every workload at tiny sizes, in seconds.

The last line of standard output is the JSON result; the line before it
is the full record of the run (environment, every child's raw values),
which is also appended to .perfbench/runs.jsonl.  See perfbench/README.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BETA = 0.8
FULL_STEPS = 6
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Children run with one BLAS/OpenMP thread each.  With the library default,
# tiny matrix products in `verify` spin a second thread on the other core,
# and two sweep workers run four threads on two cores, so the times measure
# the scheduler and the other tenants of the host more than the program.
CHILD_THREAD_ENV = {name: "1" for name in THREAD_VARS}
# Functions whose calls, total_s and self_s are reported in --trace 1.
LAYERS = (
    "cli.main",
    "experiments.run_experiment",
    "experiments.run_verification",
    "experiments.run_sweep",
    "experiments.write_curve_csv",
    "walk.evolve",
    "walk.initial_state",
    "walk.step",
    "walk.apply_oracle",
    "walk.apply_coin",
    "walk.apply_lazy_shift",
    "walk.success_probability",
    "reduced.evolve_reduced",
    "reduced.project",
    "reduced.symmetry_classes",
    "reduced.build_reduced_operators",
)


@dataclass(frozen=True)
class Plan:
    """One workload at one seed: what the CLI runs and how its output is checked."""

    args: list[str]
    writes_csv: bool
    # (returncode, stdout, csv path) -> checks.Outcome
    check: Callable
    # Arguments of the traced pass when they differ from args (sweep: one worker).
    trace_args: list[str] | None = None
    workers: int = 1
    # Full-space state size and bytes one walk.step moves; 0 when N varies.
    state_bytes: int = 0
    step_bytes: int = 0


def step_bytes_computed(n: int) -> int:
    """Bytes one walk.step moves, from array sizes (cache misses ignored).

    Per pass over the N(N-1) complex128 state (S bytes): oracle copy 2S;
    coin mean S, combine 2S; shift gather 2S plus the int64 permutation
    (S/2), two scalings 2S each, sum 3S.
    """
    amplitudes = n * (n - 1)
    return 14 * 16 * amplitudes + 8 * amplitudes


def plan_full(seed: int, smoke: bool) -> Plan:
    n, steps = (16, 5) if smoke else (4096, FULL_STEPS)
    marked = random.Random(seed).randrange(n)
    args = ["simulate", "--n", str(n), "--beta", str(BETA), "--corrected",
            "--marked", str(marked), "--steps", str(steps)]
    return Plan(args, True, partial(checks.check_full, n=n, beta=BETA, steps=steps),
                state_bytes=16 * n * (n - 1), step_bytes=step_bytes_computed(n))


def plan_reduced(seed: int, smoke: bool) -> Plan:
    n = 10**4 if smoke else 10**12
    args = ["simulate", "--mode", "dtqw-reduced", "--n", str(n), "--beta", str(BETA), "--corrected"]
    return Plan(args, True, partial(checks.check_reduced, n=n, beta=BETA))


def plan_verify(seed: int, smoke: bool) -> Plan:
    n_values, steps = ([4, 16], 20) if smoke else ([4, 16, 64, 128], 1000)
    # Three default phis below pi/2, each run uncorrected and corrected.
    trajectories = 6 * len(n_values)
    args = ["verify", "--n", ",".join(map(str, n_values)), "--steps", str(steps)]
    return Plan(args, False, partial(checks.check_verify, trajectory_steps=trajectories * steps))


def plan_sweep(seed: int, smoke: bool) -> Plan:
    n_values, max_full_n = ([16, 10**4], 16) if smoke else ([1024, 10**10], 1024)
    betas, workers = [0.0, 0.4, 0.8], 2

    def args(w: int) -> list[str]:
        return ["sweep", "--n", ",".join(map(str, n_values)), "--beta", ",".join(map(str, betas)),
                "--corrected", "--max-full-n", str(max_full_n), "--workers", str(w)]

    check = partial(checks.check_sweep, n_values=n_values, betas=betas, max_full_n=max_full_n)
    return Plan(args(workers), True, check, trace_args=args(1), workers=workers)


# BENCHMARK.json lists full-4096 and sweep-mixed.  reduced-1e12 and
# verify-grid run one single-threaded, CPU-bound process; on a host whose
# cores slow down by up to 2x for tens of seconds at a time, the medians of
# sets of 30 s runs spread by up to 0.32 of their median, past any bound
# that could still catch a regression.  They stay here for runs by hand and in the smoke test.
WORKLOADS = {
    "full-4096": plan_full,
    "reduced-1e12": plan_reduced,
    "verify-grid": plan_verify,
    "sweep-mixed": plan_sweep,
}


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, from sysfs."""
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and size.strip()[:-1].isdigit():
            scale = {"K": 1024, "M": 1024**2}.get(size.strip()[-1], 1)
            best = max(best, (int(level), int(size.strip()[:-1]) * scale))
    return best[1]


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_bytes": llc_bytes(),
        "thread_env": CHILD_THREAD_ENV,
        "commit": git_commit(),
        "seed": seed,
    }


class Runner:
    """Spawns children into one scratch directory and keeps their raw records."""

    def __init__(self, run_dir: Path, plan: Plan, bw_bytes: int):
        self.run_dir = run_dir
        self.plan = plan
        self.bw_bytes = bw_bytes
        self.children: list[dict] = []

    def _spawn(self, args: list[str], env_extra: dict[str, str]) -> tuple[int, str, dict, float, float]:
        number = len(self.children)
        result_path = self.run_dir / f"child-{number}.json"
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.run_dir),
                   PERFBENCH_RESULT=str(result_path), **CHILD_THREAD_ENV, **env_extra)
        argv = [sys.executable, str(HERE / "child.py"), *args]
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.run_dir, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        ended = time.monotonic()
        record = json.loads(_read(result_path) or "{}")
        result_path.unlink(missing_ok=True)
        source = record.get("barrierwalk_file")
        if source is not None and not Path(source).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported barrierwalk from {source}, not from {SRC}")
        if proc.returncode != 0 and stderr:
            print(stderr.strip()[-2000:], file=sys.stderr)
        return proc.returncode, stdout, record, spawned, ended

    def probe(self, kind: str = "probe") -> None:
        """Spawn a child that only imports barrierwalk: one set-up sample."""
        code, _, record, spawned, _ = self._spawn([], {"PERFBENCH_PROBE": "1"})
        self.children.append({"kind": kind, "exit": code,
                              "setup_s": record["import_done"] - spawned if record else None})

    def run(self, kind: str, args: list[str], traced: bool = False) -> dict:
        """Run the CLI once, check its output, and keep the child's raw values."""
        out = self.run_dir / "out.csv"
        if self.plan.writes_csv:
            args = [*args, "--out", str(out)]
        env = {}
        if traced:
            env = {"PERFBENCH_TRACE": "1", "PERFBENCH_FLOOR": f"{self.plan.state_bytes},{self.bw_bytes}"}
        code, stdout, record, spawned, ended = self._spawn(args, env)
        outcome = self.plan.check(code, stdout, out)
        child = {
            "kind": kind,
            "args": args,
            "exit": code,
            "ok": outcome.ok and "solve_s" in record,
            "why": outcome.why,
            "max_abs_err": outcome.max_abs_err if outcome.ok else None,
            "work": outcome.work,
            "wall_s": ended - spawned,
            "setup_s": record["import_done"] - spawned if record else None,
            "solve_s": record.get("solve_s"),
            "peak_rss_mb": (record.get("rss_kib", 0) + record.get("worker_rss_kib", 0)) * 1024 / 1e6,
        }
        if traced and "trace" in record:
            child["layers"] = layer_metrics(record, self.plan, self.bw_bytes,
                                            out.stat().st_size if out.exists() else 0)
        out.unlink(missing_ok=True)
        self.children.append(child)
        return child

    def of_kind(self, kind: str) -> list[dict]:
        """Children of one kind that passed their check; if none did, all that timed."""
        ran = [c for c in self.children if c["kind"] == kind and c.get("solve_s") is not None]
        return [c for c in ran if c["ok"]] or ran


def layer_metrics(record: dict, plan: Plan, bw_bytes: int, csv_bytes: int) -> dict[str, float]:
    dump = record["trace"]
    stats = spans.summarize(dump)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "first_s": 0.0, "max_s": 0.0}
    metrics: dict[str, float] = {}
    for name in LAYERS:
        entry = stats.get(name, empty)
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{key}"] = entry[key]
    step = stats.get("walk.step", empty)
    step_s = step["total_s"] / step["calls"] if step["calls"] else 0.0
    copy_s = record.get("copy_s", 0.0)
    metrics["walk.step.mean_us"] = step_s * 1e6
    metrics["walk.step.bytes_computed"] = plan.step_bytes
    metrics["walk.step.floor_ratio"] = step_s / copy_s if copy_s and step_s else 0.0
    metrics["walk.apply_lazy_shift.first_s"] = stats.get("walk.apply_lazy_shift", empty)["first_s"]
    metrics["mem.copy_bytes"] = plan.state_bytes
    metrics["mem.copy_s"] = copy_s
    metrics["mem.bw_bytes"] = bw_bytes
    metrics["mem.bw_gbs"] = 2 * bw_bytes / record["bw_copy_s"] / 1e9
    reduced = stats.get("reduced.evolve_reduced", empty)
    steps = dump["counts"].get("reduced.evolve_reduced", 0)
    metrics["reduced.evolve_reduced.steps"] = steps
    metrics["reduced.evolve_reduced.ns_per_step"] = reduced["total_s"] / steps * 1e9 if steps else 0.0
    metrics["experiments.write_curve_csv.rows"] = dump["counts"].get("experiments.write_curve_csv", 0)
    metrics["experiments.write_curve_csv.bytes"] = csv_bytes if "experiments.write_curve_csv" in stats else 0
    points = stats.get("experiments._sweep_point", empty)
    metrics["experiments.run_sweep.points_s"] = points["total_s"]
    metrics["experiments.run_sweep.slowest_point_s"] = points["max_s"]
    metrics["phases.calls"], metrics["phases.total_s"] = spans.outermost_total(dump, "phases.")
    metrics["trace.self_sum_s"] = sum(entry["self_s"] for entry in stats.values())
    metrics["trace.traced_solve_s"] = record["solve_s"]
    return metrics


def median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no successful child to take a median over")
    return statistics.median(values)


def measure(runner: Runner, seconds: float, trace: bool) -> dict[str, float]:
    plan = runner.plan
    start = time.monotonic()
    runner.probe("warmup-probe")  # fills the page cache and bytecode cache
    if trace:
        cycle = [("untraced", plan.trace_args or plan.args, False),
                 ("traced", plan.trace_args or plan.args, True)]
        if plan.trace_args:
            cycle.append(("workload", plan.args, False))
    else:
        cycle = [("workload", plan.args, False)]
    # Each cycle ends with a set-up probe, so set-up samples spread over the
    # run as the workload's do: the host's speed drifts over tens of seconds.
    # Stop when one more cycle of the same length would end more than half
    # a cycle past --seconds, so runs last --seconds on average.
    while True:
        began = time.monotonic()
        for kind, args, traced in cycle:
            runner.run(kind, args, traced)
        runner.probe()
        now = time.monotonic()
        if (now - start) + (now - began) / 2 > seconds:
            break
    return trace_report(runner) if trace else end_to_end_report(runner)


def end_to_end_report(runner: Runner) -> dict[str, float]:
    runs = runner.of_kind("workload")
    setups = [c["setup_s"] for c in runner.children
              if c["kind"] in ("probe", "workload") and c.get("setup_s") is not None]
    return {
        "wall_s": median([c["wall_s"] for c in runs]),
        "setup_s": median(setups),
        "solve_s": median([c["solve_s"] for c in runs]),
        "work_per_s": median([c["work"] / c["solve_s"] for c in runs]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in runs]),
    }


def trace_report(runner: Runner) -> dict[str, float]:
    traced = [c["layers"] for c in runner.of_kind("traced") if "layers" in c]
    if not traced:
        raise RuntimeError("no traced child succeeded")
    metrics = {name: median([layers[name] for layers in traced]) for name in traced[0]}
    untraced = median([c["solve_s"] for c in runner.of_kind("untraced")])
    metrics["trace.untraced_solve_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.traced_solve_s"] - untraced
    parallel = runner.of_kind("workload")
    metrics["experiments.run_sweep.parallel_eff"] = (
        metrics["experiments.run_sweep.points_s"]
        / (runner.plan.workers * median([c["solve_s"] for c in parallel]))
        if parallel else 0.0
    )
    metrics["check.max_abs_err"] = max(
        (c["max_abs_err"] for c in runner.children if c.get("max_abs_err") is not None), default=0.0
    )
    return metrics


def select(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "barrierwalk" / "__init__.py").is_file():
        print(f"error: no barrierwalk sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    plan = WORKLOADS[args.workload](args.seed, args.smoke)
    llc = env["llc_bytes"] or 32 * 1024**2
    # Bandwidth array: at least 4x the last-level cache, and at least 256 MiB.
    bw_bytes = (16 * 1024**2 if args.smoke else max(4 * llc, 256 * 1024**2)) // 16 * 16
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(run_dir, plan, bw_bytes)
        values = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ran = [c for c in runner.children if "args" in c]
    failed = sum(not c["ok"] for c in ran)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "values": values, "children": ran,
              "probes": [c for c in runner.children if "args" not in c],
              "failed_frac": failed / len(ran)}
    line = json.dumps(record)
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    for child in ran:
        if not child["ok"]:
            print(f"check failed ({child['kind']}): {child['why']}", file=sys.stderr)
    print(line)
    result = {
        "correct": failed == 0,
        "attempted": len(ran),
        "failed": failed,
        "metrics": select(values, spec["per_layer"] if args.trace else spec["end_to_end"]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
