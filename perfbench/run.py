"""Benchmark runner: one workload, one seed, fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  A run
first spawns one untimed warm-up process, then (untraced) three processes
that only set up, then job processes one after another, a closed loop with a
single client, until the next job would end after S seconds; at least one
job always runs.  Each process is timed from just before its spawn to the
moment it is ready (setup_s) and from ready to outputs checked (wall_s).
peak_rss_mb is the process's peak RSS once the job has returned, read by the
child before its checks run; os.wait4 gives the peak over the whole process,
checks included, and its CPU time, both kept in the run record.  A process
that exits nonzero, is killed or does not report fails every operation of
its job, and its metrics count as missing.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones (medians over processes) with --trace 0 and
per-layer ones with --trace 1.  A summary goes to stderr, and the full run
record, provenance included, to a file of its own in .perfbench_out/runs/.
The run exits 2 without a result when the program cannot be started at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).with_name("child.py")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_ONLY = 3  # set-up-only processes per untraced run, besides the jobs
RUN_LIMIT_S = 170  # every process is killed by then, so a run ends within 180 s

# single-threaded children: no BLAS or OpenMP pools, fixed hash order
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Unstartable(RuntimeError):
    """The program cannot be set up at all; no result is printed."""


def provenance() -> dict:
    def git(*args):
        try:
            res = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    is_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain") if is_repo else None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_sha": git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(workload: str, inputs: dict, mode: str, trace_path, deadline: float) -> dict:
    """Run one child process to its end; returns its record."""
    work = OUT / "work" / f"{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    request = {
        "workload": workload,
        "inputs": inputs,
        "mode": mode,
        "trace": trace_path is not None,
        "trace_path": str(trace_path) if trace_path else None,
        "workdir": str(work),
        "result_path": str(work / "result.json"),
    }
    (work / "request.json").write_text(json.dumps(request))
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(CHILD.parent)])
    argv = [sys.executable, str(CHILD), str(work / "request.json")]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    killed = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline and not killed:
                proc.send_signal(signal.SIGKILL)
                killed = True
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "mode": mode,
        "exit": proc.returncode,
        "killed_at_deadline": killed,
        "life_s": ended - spawned,
        "process_peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    try:
        result = json.loads((work / "result.json").read_text())
    except (OSError, ValueError):
        result = {}
    shutil.rmtree(work)
    if "ready" in result:
        rec["setup_s"] = result["ready"] - spawned
    if "job_peak_rss_mb" in result:
        rec["peak_rss_mb"] = result["job_peak_rss_mb"]
    for key in ("wall_s", "failed", "reasons", "digests", "layers", "missing_hooks", "error"):
        if key in result:
            rec[key] = result[key]
    ops = WORKLOADS[workload].outputs(inputs)
    rec["ops"] = len(ops)
    if mode == "job" and (proc.returncode not in (0, 1) or "wall_s" not in result):
        rec["failed"] = ops  # crashed, killed or silent: every output is lost
        for key in ("wall_s", "peak_rss_mb", "process_peak_rss_mb", "cpu_s", "layers"):
            rec.pop(key, None)
    return rec


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tally(jobs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over job records."""
    return sum(j["ops"] for j in jobs), sum(len(j.get("failed", ())) for j in jobs)


def run(workload: str, inputs: dict, seconds: float, trace: bool, tag: str) -> dict:
    """All processes of one run and the metrics they give."""
    if not (ROOT / "src" / "ringgraphs" / "__init__.py").is_file():
        raise Unstartable(f"no ringgraphs package under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    prov = provenance()
    warm = spawn(workload, inputs, "setup", None, deadline)
    if "setup_s" not in warm:
        raise Unstartable(f"the warm-up process could not set up: {warm}")
    children = []
    if not trace:
        children += [spawn(workload, inputs, "setup", None, deadline) for _ in range(SETUP_ONLY)]
    jobs = []
    while True:
        trace_path = None
        if trace:
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = OUT / "traces" / f"{tag}-{len(jobs)}.jsonl"
        jobs.append(spawn(workload, inputs, "job", trace_path, deadline))
        estimate = statistics.median(j["life_s"] for j in jobs)
        if time.monotonic() + estimate > start + seconds:
            break
    children += jobs
    if trace:
        traced = [j["layers"] for j in jobs if "layers" in j]
        metrics = {}
        for name, unit, _ in spans.metric_table():
            if name == "proc.cpu_s":
                values = [j["cpu_s"] for j in jobs if "cpu_s" in j]
            elif name == "proc.cpu_util":
                values = [j["cpu_s"] / j["life_s"] for j in jobs if "cpu_s" in j]
            else:
                values = [t[name] for t in traced]
                if None in values:
                    values = []  # a missing hook has no value, never zero
            metrics[name] = {"value": _median(values), "unit": unit}
    else:
        values = {
            "wall_s": [j.get("wall_s") for j in jobs],
            "setup_s": [c.get("setup_s") for c in children],
            "peak_rss_mb": [j.get("peak_rss_mb") for j in jobs],
        }
        metrics = {
            name: {"value": _median(values[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    attempted, failed = tally(jobs)
    return {
        "workload": workload,
        "inputs": inputs,
        "trace": trace,
        "provenance": prov,
        "run_s": time.monotonic() - start,
        "jobs": len(jobs),
        "error_rate": failed / attempted,
        "missing_hooks": sorted({h for j in jobs for h in j.get("missing_hooks", ())}),
        "children": children,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    inputs = WORKLOADS[args.workload].make_inputs(args.seed)
    try:
        record = run(args.workload, inputs, args.seconds, bool(args.trace), tag)
    except Unstartable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    res = record["result"]
    print(
        f"perfbench {tag}: {record['jobs']} jobs in {record['run_s']:.1f} s, "
        f"error_rate {res['failed']}/{res['attempted']} = {record['error_rate']:.4g}, "
        f"load {record['provenance']['loadavg_1m']:.2f}",
        file=sys.stderr,
    )
    for child in record["children"]:
        for op, why in child.get("reasons", {}).items():
            print(f"  FAILED {op}: {why}", file=sys.stderr)
    if record["missing_hooks"]:
        print(f"  missing hooks: {', '.join(record['missing_hooks'])}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
