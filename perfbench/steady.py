"""Steadiness check: two sets of runs of the same commit, compared.

    python3 perfbench/steady.py [--workload NAME ...]

Each of two sets runs every workload (or only the ones named) once per seed,
seeds 1..10, untraced, for BENCHMARK.json's run_seconds.  For each workload
and end-to-end metric it prints the median and quartiles of both sets, the
spread (q3 - q1) / median, and whether the sets agree: both spreads within
the metric's bound and the second median within the bound of the first, in
either direction.  The target for a steady benchmark is a spread below a
third of the bound.  Results also go to .perfbench_out/steady.json; the exit
status is 1 when the sets disagree or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="two sets of runs, compared")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    report, ok = {}, True
    for wl in workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in SEEDS:
                res = one_run(wl, seed, bench["run_seconds"])
                ok &= res["correct"]
                runs.append(res)
                print(f"{wl} set {k + 1} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics
                ) + ("" if res["correct"] else " INCORRECT"), file=sys.stderr, flush=True)
            sets.append(runs)
        report[wl] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            drift = stats[1]["median"] / stats[0]["median"] - 1
            spread = max(s["spread"] for s in stats)
            agree = abs(drift) <= bound and spread <= bound
            ok &= agree
            report[wl][name] = {"bound": bound, "sets": stats, "worst_spread": spread,
                                "drift": drift, "agree": agree,
                                "steady": spread < bound / 3}
            meds = " ".join(f"{s['median']:.5g}[{s['q1']:.5g},{s['q3']:.5g}]" for s in stats)
            print(f"{wl:16s} {name:12s} {meds}  spread {spread:.4f} drift {drift:+.4f} "
                  f"bound {bound}  {'agree' if agree else 'DISAGREE'}"
                  f"{'' if spread < bound / 3 else ' (spread above bound/3)'}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
