"""The benchmark's workloads: inputs from a seed, the job, and its checks.

Each workload is one batch job run to completion in a fresh process.  Seed 0
gives the canonical input; other seeds change map constants or offsets but
keep the work the same size.  The job calls only the public ringgraphs API,
through module attributes so that the tracer's hooks see every call.

Checks recompute what they can on their own, with numpy and scipy and no
ringgraphs code, and compare the canonical input's outputs with the pinned
references in reference.json.  Each output of a job is one operation; an
output that fails any check is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable  # (seed, **sizes) -> JSON-able dict
    outputs: Callable  # inputs -> names of the job's outputs (its operations)
    setup: Callable  # inputs -> job(workdir) -> {output name: str | bytes | int}
    check: Callable  # (inputs, outputs) -> {output name: reason} for failures
    # output name -> the input keys it depends on, for pinning; None: all
    pin_keys: Callable | None = None


def digest(value):
    """Pinned form of an output: short text and numbers as they are, long
    text and bytes as a sha256."""
    if isinstance(value, str) and len(value) <= 400:
        return value
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, bytes):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    return value


def pinned_mismatches(wl: Workload, inputs: dict, digests: dict) -> dict[str, str]:
    """Outputs that differ from the pinned reference, among those whose
    inputs are the pinned ones."""
    ref = json.loads(REFERENCE.read_text()).get(wl.name)
    if ref is None:
        return {}
    bad = {}
    for k, want in ref["outputs"].items():
        keys = wl.pin_keys(k) if wl.pin_keys else inputs.keys()
        if all(ref["inputs"].get(i) == inputs[i] for i in keys):
            if digests.get(k) != want:
                bad[k] = "differs from the pinned reference"
    return bad


# ---------------------------------------------------------------------------
# independent graph routines (numpy and scipy only)


def _edge_keys(n: int, images) -> np.ndarray:
    """Sorted distinct keys lo*n+hi of the non-loop pairs (x, image[x])."""
    x = np.arange(n, dtype=np.int64)
    u = np.concatenate([x] * len(images))
    v = np.concatenate(images)
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    return keys[np.diff(keys, prepend=-1) != 0]


def _adjacency(n: int, keys: np.ndarray):
    lo, hi = keys // n, keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    data = np.ones(len(rows), dtype=np.int32)
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _triangles(n: int, keys: np.ndarray) -> int:
    """Triangle count from (U@U)∘U, U the edges oriented from lower to higher
    (degree, index), which sees each triangle once."""
    lo, hi = keys // n, keys % n
    degree = np.bincount(np.concatenate([lo, hi]), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    up = rank[lo] < rank[hi]
    src, dst = np.where(up, lo, hi), np.where(up, hi, lo)
    data = np.ones(len(src), dtype=np.int32)
    u = coo_matrix((data, (src, dst)), shape=(n, n)).tocsr()
    return int((u @ u).multiply(u).sum(dtype=np.int64))


def _squares_plus(n: int, consts) -> list[np.ndarray]:
    x = np.arange(n, dtype=np.int64)
    return [(x * x + c) % n for c in consts]


def _connected_pair(n: int, rng: random.Random) -> list[int]:
    """Constants c1 < c2 for which x^2+c1, x^2+c2 connect Z_n, so that every
    seed scans a component of all n vertices."""
    while True:
        c1 = rng.randrange(1, n - 3)
        pair = [c1, c1 + rng.randrange(1, 4)]
        adj = _adjacency(n, _edge_keys(n, _squares_plus(n, pair)))
        if connected_components(adj, directed=False)[0] == 1:
            return pair


def _squares_text(consts) -> str:
    return ",".join(f"x^2+{c}" for c in consts)


# ---------------------------------------------------------------------------
# figure-stats


def figure_inputs(seed: int, n: int = 4000) -> dict:
    pair = [1, 2] if seed == 0 else _connected_pair(n, random.Random(seed))
    return {"n": n, "consts": pair}


def figure_setup(inputs: dict):
    from ringgraphs import graphs, maps, metrics, spaces

    family = maps.family_from_texts(
        spaces.parse_space(f"zn:{inputs['n']}"), _squares_text(inputs["consts"])
    )

    def job(workdir):
        return {"report": metrics.full_report(graphs.build_graph(family)).to_json()}

    return job


def figure_check(inputs: dict, outputs: dict) -> dict[str, str]:
    n = inputs["n"]
    doc = json.loads(outputs["report"])
    keys = _edge_keys(n, _squares_plus(n, inputs["consts"]))
    adj = _adjacency(n, keys)
    count, _ = connected_components(adj, directed=False)
    triangles = _triangles(n, keys)
    ecc0 = int(shortest_path(adj, unweighted=True, indices=0).max())
    want = {
        "vertices": n,
        "edges": len(keys),
        "components": count,
        "triangles": triangles,
        "euler_char": n - len(keys) + triangles,
    }
    bad = [f"{k}={doc[k]}!={v}" for k, v in want.items() if doc[k] != v]
    if not ecc0 <= doc["diameter"] <= 2 * ecc0:
        bad.append(f"diameter={doc['diameter']} outside [{ecc0},{2 * ecc0}]")
    if not 1.0 <= doc["mu"] <= doc["diameter"]:
        bad.append(f"mu={doc['mu']} outside [1,diameter]")
    return {"report": "; ".join(bad)} if bad else {}


# ---------------------------------------------------------------------------
# sweeps

# every claim at its default range except three shortened ones, so that one
# job with its set-up fits a run's time, and affine-table (left out: 3.5k
# graphs of a single shape, no new layer work)
SWEEP_CLAIMS = (
    ("lemma1", {"n_max": 2048}),
    ("artin", {"p_max": 1000}),
    ("fermat", {}),
    ("collatz-triangles", {}),
    ("pierpont", {}),
    ("power-pair", {}),
    ("collatz-connected", {"n_max": 1000}),
    ("matrix-example", {}),
)

# the honest counterexample: this claim must keep failing, with this reason
EXPECTED_FAIL = {"matrix-example": "disagree=[components=5] FAIL"}


def sweeps_inputs(
    seed: int,
    claims=SWEEP_CLAIMS,
    ca_width: int = 9,
    locus_nmax: int = 1000,
    perm=(100, 50),
    euler_nmax: int = 23,
) -> dict:
    rng = random.Random(seed)
    return {
        "claims": [[c, dict(kw)] for c, kw in claims],
        "ca_width": ca_width,
        "locus_b": 1 if seed == 0 else rng.randrange(2, 1000),
        "locus_nmax": locus_nmax,
        "perm": [perm[0], perm[1], seed],
        "euler_nmax": euler_nmax,
    }


def sweeps_outputs(inputs: dict) -> list[str]:
    claims = [f"verify:{c}" for c, _ in inputs["claims"]]
    return claims + ["ca-pbm", "locus-csv", "perm-csv", "euler-seq"]


def sweeps_pin_keys(output: str) -> tuple[str, ...]:
    if output.startswith("verify:"):
        return ("claims",)
    return {
        "ca-pbm": ("ca_width",),
        "locus-csv": ("locus_b", "locus_nmax"),
        "perm-csv": ("perm",),
        "euler-seq": ("euler_nmax",),
    }[output]


def sweeps_setup(inputs: dict):
    from ringgraphs import maps, survey, verify

    locus_maps = maps.parse_maps(f"3x+{inputs['locus_b']}")

    def job(workdir):
        out = {
            f"verify:{c}": verify.run_claim(c, **kw).to_line()
            for c, kw in inputs["claims"]
        }
        grid = survey.ca_mandelbrot(inputs["ca_width"], workers=1)
        out["ca-pbm"] = survey.to_pbm(grid)
        locus = survey.connectivity_locus(
            locus_maps, "zn", range(1, inputs["locus_nmax"] + 1)
        )
        out["locus-csv"] = locus.to_csv()
        out["perm-csv"] = survey.permutation_lambda(*inputs["perm"]).to_csv()
        out["euler-seq"] = ",".join(
            str(x) for x in survey.euler_sequence(inputs["euler_nmax"])
        )
        return out

    return job


def _locus_csv(b: int, n_max: int, chunk: int = 20) -> str:
    """Component counts of 3x+b on Z_n, n = 1..n_max, from block-diagonal
    graphs of `chunk` moduli at a time."""
    lines = ["param,components,connected"]
    for first in range(1, n_max + 1, chunk):
        ns = np.arange(first, min(first + chunk, n_max + 1), dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(ns)])
        total = int(offsets[-1])
        block = np.repeat(np.arange(len(ns)), ns)
        x = np.arange(total, dtype=np.int64) - offsets[block]
        img = (3 * x + b) % ns[block] + offsets[block]
        data = np.ones(total, dtype=np.int8)
        mat = coo_matrix((data, (x + offsets[block], img)), shape=(total, total))
        _, labels = connected_components(mat, directed=False)
        counts = np.bincount(np.unique(block * total + labels) // total)
        lines += [f"{n},{c},{int(c == 1)}" for n, c in zip(ns, counts)]
    return "\n".join(lines) + "\n"


def _euler_seq(n_max: int) -> str:
    out = []
    for n in range(1, n_max + 1):
        keys = _edge_keys(n, _squares_plus(n, [0]))
        out.append(n - len(keys) + _triangles(n, keys))
    return ",".join(str(x) for x in out)


def _perm_csv_problem(text: str, n: int, trials: int, seed: int) -> str | None:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:-1]]
    if lines[0] != "trial,lambda" or [r[0] for r in rows] != [str(i) for i in range(trials)]:
        return "trial rows malformed"
    defined = [float(r[1]) for r in rows if r[1] != "undef"]
    if any(x <= 0 for x in defined):
        return "a lambda is not positive"
    footer = dict(f.split("=") for f in lines[-1][2:].split())
    if footer["n"] != str(n) or footer["trials"] != str(trials) or footer["seed"] != str(seed):
        return f"footer {lines[-1]!r} does not match the inputs"
    if int(footer["undefined"]) != trials - len(defined):
        return "undefined count differs from the rows"
    if defined:
        mean = math.fsum(defined) / len(defined)
        if not math.isclose(float(footer["mean"]), mean, rel_tol=1e-7):
            return f"mean {footer['mean']} differs from the rows ({mean})"
    return None


def sweeps_check(inputs: dict, outputs: dict) -> dict[str, str]:
    bad = {}
    for claim, _ in inputs["claims"]:
        line = outputs[f"verify:{claim}"]
        tail = EXPECTED_FAIL.get(claim, "PASS")
        if not line.startswith(claim + " ") or not line.endswith(tail):
            bad[f"verify:{claim}"] = f"verdict {line!r} does not end with {tail!r}"
    rows = outputs["ca-pbm"].splitlines()
    grid = [r for r in rows if r and r[0] in "01"]
    if rows[0] != "P1" or len(grid) != 256 or any(len(r) != 256 for r in grid):
        bad["ca-pbm"] = "not a 256x256 P1 bitmap"
    elif any(grid[a][b] != grid[b][a] for a in range(256) for b in range(a)):
        bad["ca-pbm"] = "rule-pair grid is not symmetric"
    if outputs["locus-csv"] != _locus_csv(inputs["locus_b"], inputs["locus_nmax"]):
        bad["locus-csv"] = "component counts differ from the block-diagonal recount"
    problem = _perm_csv_problem(outputs["perm-csv"], *inputs["perm"])
    if problem:
        bad["perm-csv"] = problem
    if outputs["euler-seq"] != _euler_seq(inputs["euler_nmax"]):
        bad["euler-seq"] = "differs from the (U@U)∘U recount"
    return bad


# ---------------------------------------------------------------------------
# gen-large


def gen_inputs(seed: int, n: int = 1 << 19) -> dict:
    rng = random.Random(seed)
    adds = [0, 1] if seed == 0 else [rng.randrange(n), rng.randrange(n)]
    return {"n": n, "affine": [[2, adds[0]], [3, adds[1]]]}


def _affine_text(affine) -> str:
    return ",".join(f"{a}x+{b}" if b else f"{a}x" for a, b in affine)


def gen_setup(inputs: dict):
    from ringgraphs import cli

    def job(workdir):
        path = Path(workdir) / "graph.edges"
        argv = ["gen", "--space", f"zn:{inputs['n']}", "--maps", _affine_text(inputs["affine"])]
        code = cli.main(argv + ["--out", str(path)])
        if code != 0:
            raise RuntimeError(f"ringgraphs gen exited with {code}")
        return {"edges": path.read_bytes()}

    return job


def gen_check(inputs: dict, outputs: dict) -> dict[str, str]:
    n = inputs["n"]
    data = outputs["edges"]
    head = 0
    while data.startswith(b"# ", head):
        head = data.index(b"\n", head) + 1
    body = data[head:]
    x = np.arange(n, dtype=np.int64)
    want = _edge_keys(n, [(a * x + b) % n for a, b in inputs["affine"]])
    lines = body.count(b"\n")
    if lines != len(want):
        return {"edges": f"{lines} edge lines, expected E={len(want)}"}
    ends = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(ends) != 2 * len(want):  # every edge line adds 2 to the degree sum
        return {"edges": f"degree sum {len(ends)} != 2E = {2 * len(want)}"}
    pairs = ends.reshape(-1, 2)
    if not np.array_equal(pairs[:, 0] * n + pairs[:, 1], want):
        return {"edges": "edge lines are not the canonical sorted edges u < v"}
    return {}


# ---------------------------------------------------------------------------
# triangles-large


def triangles_inputs(seed: int, n: int = 1 << 17) -> dict:
    pair = [1, 2] if seed == 0 else _connected_pair(n, random.Random(seed))
    return {"n": n, "consts": pair}


def triangles_setup(inputs: dict):
    from ringgraphs import graphs, maps, metrics, spaces

    family = maps.family_from_texts(
        spaces.parse_space(f"zn:{inputs['n']}"), _squares_text(inputs["consts"])
    )

    def job(workdir):
        g = graphs.build_graph(family)
        return {
            "components": int(metrics.components(g)[0]),
            "euler_char": int(metrics.euler_characteristic(g)),
        }

    return job


def triangles_check(inputs: dict, outputs: dict) -> dict[str, str]:
    n = inputs["n"]
    keys = _edge_keys(n, _squares_plus(n, inputs["consts"]))
    want = {
        "components": connected_components(_adjacency(n, keys), directed=False)[0],
        "euler_char": n - len(keys) + _triangles(n, keys),
    }
    return {k: f"{outputs[k]} != {v}" for k, v in want.items() if outputs[k] != v}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figure-stats",
            "full_report on the paper's figure family x^2+1,x^2+2 over zn:4000: "
            "the exact all-pairs distance scan does nearly all the work",
            figure_inputs,
            lambda inputs: ["report"],
            figure_setup,
            figure_check,
        ),
        Workload(
            "sweeps",
            "seven claim checkers and four surveys over about 40,000 tiny graphs, "
            "one job per run: per-call overhead of components and build_graph dominates",
            sweeps_inputs,
            sweeps_outputs,
            sweeps_setup,
            sweeps_check,
            sweeps_pin_keys,
        ),
        Workload(
            "gen-large",
            "ringgraphs gen of 2x,3x+1 on zn:2^19 to an .edges file: CSR "
            "canonicalisation and edge-list export dominate and set peak memory",
            gen_inputs,
            lambda inputs: ["edges"],
            gen_setup,
            gen_check,
        ),
        Workload(
            "triangles-large",
            "components and Euler characteristic of x^2+1,x^2+2 on zn:2^17: the "
            "per-edge triangle loop over a degree-skewed graph dominates",
            triangles_inputs,
            lambda inputs: ["components", "euler_char"],
            triangles_setup,
            triangles_check,
        ),
    )
}
