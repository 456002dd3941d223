"""quatspin benchmark: four CLI workloads, checked, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-exact-m3 --seed 1 --seconds 5 --trace 0

Each workload is one quatspin CLI command, run in a fresh child process
(PYTHONPATH=src, one at a time) until --seconds have passed, at least once.
Every report is checked against facts computed apart from the program (see
checks.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the run);
with --trace 1 the command runs once untraced and then under tracer.py, and
the metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0     # every child is killed once the run gets here
SOFT_LIMIT_S = 140.0    # no further invocation starts past this point
# Variables that would change what is measured; the child gets fixed values.
DROPPED_ENV = ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE",
               "PYTHONHASHSEED", "QUATSPIN_MAX_M", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SO3_MAX_R, SO3_TRIALS, SO3_BUDGET = 10, 120, 1000


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]
    check: Callable[[int, dict], checks.Verdict]
    # rotation searches whose traced outcomes get the float check
    searches: tuple | None = None


def verify_workload(name, m, backend):
    return Workload(name, lambda seed: ["verify", "--m", str(m), "--backend", backend,
                                        "--seed", str(seed)],
                    checks.check_verify(m, backend))


def decompose_workload(name, m, backend):
    return Workload(name, lambda seed: ["decompose", "--m", str(m), "--backend", backend,
                                        "--seed", str(seed)],
                    checks.check_decompose(m, backend))


def so3_workload(name, max_r, trials, budget):
    return Workload(name, lambda seed: ["so3-check", "--backend", "exact",
                                        "--max-r", str(max_r), "--trials", str(trials),
                                        "--budget", str(budget), "--seed", str(seed)],
                    checks.check_so3(max_r, trials), searches=(max_r, trials))


WORKLOADS = {w.name: w for w in (
    verify_workload("verify-exact-m3", 3, "exact"),
    decompose_workload("decompose-exact-m4", 4, "exact"),
    verify_workload("verify-float-m4", 4, "float"),
    so3_workload("so3-exact-search", SO3_MAX_R, SO3_TRIALS, SO3_BUDGET),
)}


class BenchmarkError(Exception):
    pass


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict | None
    stderr: str


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, deadline, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to its end; return (exit code, wall s, cpu s, peak RSS MB)."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchmarkError("run time limit reached")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits for it again
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise BenchmarkError(f"{' '.join(cmd[1:3])} ended by signal {-code}")
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6


def invoke(argv, env, deadline, trace_path=None):
    """One CLI command in a fresh interpreter, its report parsed."""
    OUT_DIR.mkdir(exist_ok=True)
    report_path, err_path = OUT_DIR / "report.json", OUT_DIR / "stderr.txt"
    if trace_path is None:
        cmd = [sys.executable, "-m", "quatspin.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
               str(trace_path), *argv]
    with open(report_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, cpu, rss = spawn(cmd, env, deadline, out, err)
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return Invocation(code, wall, cpu, rss, report,
                      err_path.read_text(encoding="utf-8", errors="replace"))


def setup_seconds(env, deadline):
    """Median time for a fresh interpreter to import quatspin.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn([sys.executable, "-c", "import quatspin.cli"],
                                 env, deadline)
        if code != 0:
            raise BenchmarkError(f"importing quatspin.cli failed with exit code {code}")
        times.append(wall)
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace, root):
    """Measure one workload; return the result object to print."""
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    env = child_env(root)
    argv = workload.argv(seed)
    attempted = failed = 0
    problems = []

    def checked(inv):
        nonlocal attempted, failed
        verdict = workload.check(inv.code, inv.report)
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend(verdict.problems)
        return inv

    if trace:
        reference = checked(invoke(argv, env, deadline))
        metrics_runs = []
        trace_path = OUT_DIR / "trace.json"
        loop_start = perf_counter()
        while True:
            trace_path.unlink(missing_ok=True)
            inv = checked(invoke(argv, env, deadline, trace_path))
            try:
                data = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise BenchmarkError(f"no trace from the traced run: {exc}") from None
            if workload.searches is not None:
                problems.extend(checks.check_searches(data["searches"], *workload.searches))
            layers = tracer.layer_metrics(data, tracer.import_seconds(inv.stderr))
            layers["trace.overhead_pct"] = (
                100.0 * (inv.wall_s - reference.wall_s) / reference.wall_s, "%")
            metrics_runs.append(layers)
            if not _another(loop_start, start, seconds, inv.wall_s):
                break
        metrics = {name: {"value": statistics.median(run[name][0] for run in metrics_runs),
                          "unit": unit}
                   for name, (_, unit) in metrics_runs[0].items()}
    else:
        setup = setup_seconds(env, deadline)
        runs = []
        loop_start = perf_counter()
        while True:
            runs.append(checked(invoke(argv, env, deadline)))
            if not _another(loop_start, start, seconds, runs[-1].wall_s):
                break
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_s for r in runs), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in runs), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs),
                            "unit": "MB"},
        }
    for problem in dict.fromkeys(problems):
        print(f"check failed: {workload.name}: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _another(loop_start, start, seconds, last_wall):
    """Whether to start one more invocation of the workload."""
    now = perf_counter()
    return now - loop_start < seconds and now - start + last_wall < SOFT_LIMIT_S


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "quatspin" / "cli.py").is_file():
        print(f"error: no quatspin source under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), root)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
