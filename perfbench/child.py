"""One benchmark process: set up, optionally run the job, check, report.

    python3 perfbench/child.py REQUEST.json

The request names the workload, its inputs, the mode ("setup" stops once the
process is ready, "job" runs the job and its checks), whether to trace, and
where to write the result and the trace.  Times are time.monotonic(), which
the parent compares with its own reading taken just before the spawn.  The
process's peak RSS is read once the job has returned and before the checks
run, so that the harness's own recomputation cannot raise it.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback

import spans
from workloads import WORKLOADS, digest, pinned_mismatches


def check(wl, inputs: dict, outputs: dict) -> tuple[dict, dict]:
    """(failure reasons by output, pinned form of every output)."""
    digests = {k: digest(v) for k, v in outputs.items()}
    bad = wl.check(inputs, outputs)
    bad.update(pinned_mismatches(wl, inputs, digests))
    return bad, digests


def execute(request: dict) -> dict:
    """Set up and run one job in this process; returns the result record."""
    wl = WORKLOADS[request["workload"]]
    inputs = request["inputs"]
    ops = wl.outputs(inputs)
    tracer = None
    try:
        job = wl.setup(inputs)
        if request.get("trace"):
            tracer = spans.Tracer(request.get("hooks", spans.HOOKS))
            tracer.install()
    except Exception:
        traceback.print_exc()
        return {"error": "setup failed", "ops": len(ops), "failed": ops}
    ready = time.monotonic()
    result = {"ready": ready, "ops": len(ops)}
    if request["mode"] == "setup":
        return result
    bad = {}
    try:
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        with span(spans.JOB):
            outputs = job(request["workdir"])
        result["job_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with span(spans.CHECK):
            bad, result["digests"] = check(wl, inputs, outputs)
    except Exception as exc:
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
        bad = {op: "job or check raised" for op in ops}
    done = time.monotonic()
    result["wall_s"] = done - ready
    result["failed"] = sorted(bad)
    result["reasons"] = bad
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summarize(done - ready)
        result["missing_hooks"] = tracer.missing
        if request.get("trace_path"):
            tracer.write_jsonl(request["trace_path"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    result = execute(request)
    with open(request["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if result.get("error") or result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
