"""Write reference.json: the outputs of every workload's canonical input.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known to be right; the references
are what every later run of the canonical input is compared with.
"""

from __future__ import annotations

import json
import time

import run
from workloads import REFERENCE, WORKLOADS

if __name__ == "__main__":
    pins = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.make_inputs(0)
        rec = run.spawn(name, inputs, "job", None, time.monotonic() + run.RUN_LIMIT_S)
        if "digests" not in rec:
            raise SystemExit(f"{name}: the job did not finish: {rec}")
        pins[name] = {"inputs": inputs, "outputs": rec["digests"]}
        print(name, rec.get("reasons", {}))
    REFERENCE.write_text(json.dumps(pins, indent=1) + "\n")
