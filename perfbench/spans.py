"""Span tracing of the ringgraphs layers from outside the package.

The tracer wraps layer entry points by replacing module attributes of the
imported package, so the package itself carries no tracing code.  Every
wrapper records one span: name, start, end, parent span, counts and the rise
of the process's peak RSS while it ran.  Spans stay in memory until the job
ends; `write_jsonl` dumps them and `summarize` turns them into the per-layer
metrics named in BENCHMARK.json.

HOOKS is the one table of what is traced.  A target is "module:attr" inside
the `ringgraphs` package and names the attribute where callers look the
function up, so a function imported by name into several modules is patched
in each.  A target that no longer exists is reported as missing and its
metrics come out as null, never as zero; the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# harness spans: the whole timed job, and the output checks inside it
JOB = "bench.job"
CHECK = "bench.check"


@dataclass(frozen=True)
class Counter:
    """A count summed over a hook's calls, read from (args, kwargs, result)."""

    name: str
    unit: str
    better: str
    read: Callable


@dataclass(frozen=True)
class Ratio:
    """numerator / denominator * scale over a hook's summed metrics; 0 when
    the layer did not run."""

    name: str
    unit: str
    better: str
    num: str
    den: str
    scale: float = 1.0


@dataclass(frozen=True)
class Hook:
    name: str
    targets: tuple[str, ...]
    moves: str  # end-to-end metric and workload this layer should move
    counters: tuple[Counter, ...] = ()
    ratios: tuple[Ratio, ...] = ()


def _vertices(args, kwargs, result):
    g = args[0] if args else kwargs["g"]  # a SimpleGraph, or a scipy matrix in survey
    return g.vertex_count if hasattr(g, "vertex_count") else g.shape[0]


def _distance_sources(args, kwargs, result):
    # sampled run: the sample size; exact run: every vertex of the largest
    # component is a source
    sampled = result[2]
    if sampled is not None:
        return sampled
    labels = kwargs.get("labels")
    return None if labels is None else int(np.bincount(labels).max())


def _written_bytes(args, kwargs, result):
    path, body = args[0], args[1]
    return os.path.getsize(path) if path is not None else len(body)


def _verdict_graphs(args, kwargs, result):
    return result.agreements + len(result.disagreements)


def _survey_graphs(args, kwargs, result):
    if isinstance(result, tuple):  # euler_sequence: one graph per n
        return len(result)
    if hasattr(result, "lambdas"):  # permutation_lambda: one graph per trial
        return len(result.lambdas)
    if result.generation[1][1] == "ca:a,ca:b":  # symmetric grid, b >= a
        rules = int(len(result.params) ** 0.5)
        return rules * (rules + 1) // 2
    return len(result.params)  # connectivity_locus: one graph per modulus


HOOKS = (
    Hook(
        "maps.image_table",
        ("graphs:image_table", "survey:image_table"),
        "wall_s on sweeps (many calls); a small share of gen-large",
        (Counter("states", "count", "lower", lambda a, k, r: len(r)),),
    ),
    Hook(
        "graphs.graph_from_edges",
        ("graphs:graph_from_edges",),
        "wall_s and peak_rss_mb on gen-large, wall_s on sweeps; flat on figure-stats",
        (
            Counter("pairs_in", "count", "lower", lambda a, k, r: len(a[1])),
            Counter("edges_out", "count", "lower", lambda a, k, r: r.edge_count),
        ),
        (Ratio("kept_ratio", "ratio", "higher", "edges_out", "pairs_in"),),
    ),
    Hook(
        "graphs.build_graph",
        (
            "graphs:build_graph",
            "verify:build_graph",
            "survey:build_graph",
            "cli:build_graph",
        ),
        "wall_s and peak_rss_mb on gen-large, wall_s on sweeps; flat on figure-stats",
    ),
    Hook(
        "metrics.components",
        (
            "metrics:components",
            "verify:components",
            "survey:components",
            "survey:_scipy_components",
        ),
        "wall_s on sweeps",
        (Counter("vertices", "count", "lower", _vertices),),
    ),
    Hook(
        "metrics.distance",
        ("metrics:_distance_scan",),
        "wall_s and peak_rss_mb on figure-stats",
        (Counter("sources", "count", "lower", _distance_sources),),
    ),
    Hook(
        "metrics.triangles",
        ("metrics:_edge_triangle_counts",),
        "wall_s on triangles-large; a minor share of sweeps",
        (Counter("edges", "count", "lower", lambda a, k, r: len(r[0])),),
    ),
    Hook(
        "metrics.clustering",
        ("metrics:_clustering_core",),
        "wall_s on figure-stats",
    ),
    Hook(
        "metrics.full_report",
        ("metrics:full_report", "survey:full_report", "cli:full_report"),
        "wall_s on figure-stats",
    ),
    Hook(
        "verify",
        ("verify:run_claim", "cli:run_claim"),
        "wall_s on sweeps",
        (Counter("graphs", "count", "higher", _verdict_graphs),),
        (Ratio("ms_per_graph", "ms", "lower", "s", "graphs", 1e3),),
    ),
    Hook(
        "survey",
        (
            "survey:connectivity_locus",
            "survey:ca_mandelbrot",
            "survey:permutation_lambda",
            "survey:euler_sequence",
            "cli:connectivity_locus",
            "cli:ca_mandelbrot",
            "cli:permutation_lambda",
            "cli:euler_sequence",
        ),
        "wall_s on sweeps",
        (Counter("graphs", "count", "higher", _survey_graphs),),
        (Ratio("ms_per_graph", "ms", "lower", "s", "graphs", 1e3),),
    ),
    Hook(
        "cli.export",
        ("cli:export_edge_list", "cli:export_dot"),
        "wall_s and peak_rss_mb on gen-large",
        (Counter("bytes", "bytes", "lower", lambda a, k, r: len(r)),),
    ),
    Hook(
        "cli.write",
        ("cli:_write",),
        "wall_s and peak_rss_mb on gen-large",
        (Counter("bytes", "bytes", "lower", _written_bytes),),
        (Ratio("mb_per_s", "MB/s", "higher", "bytes", "s", 1e-6),),
    ),
)

# per-hook metrics every layer reports, besides its own counters and ratios
_COMMON = (
    ("s", "s", "lower"),
    ("self_s", "s", "lower"),
    ("calls", "count", "lower"),
    ("rss_rise_mb", "MB", "lower"),
)

# whole-run metrics: the harness's own spans, the process and the tracer
RUN_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    (JOB + ".self_s", "s", "lower"),
    (CHECK + ".s", "s", "lower"),
    (CHECK + ".rss_rise_mb", "MB", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.cpu_util", "ratio", "higher"),
)


def _hook_metrics(hook: Hook) -> list[tuple[str, str, str]]:
    out = [(f"{hook.name}.{m}", u, b) for m, u, b in _COMMON]
    out += [(f"{hook.name}.{c.name}", c.unit, c.better) for c in hook.counters]
    return out + [(f"{hook.name}.{r.name}", r.unit, r.better) for r in hook.ratios]


def metric_table(hooks=HOOKS) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [m for hook in hooks for m in _hook_metrics(hook)] + list(RUN_METRICS)


def _read(counter: Counter, args, kwargs, result):
    """A counter that no longer fits the traced function gives null, and the
    job goes on."""
    try:
        return counter.read(args, kwargs, result)
    except Exception:
        return None


class Tracer:
    """Collects spans for one job in one process."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start, end, parent, counts, rss_rise_mb]
        self.missing: list[str] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for hook in self.hooks:
            for target in hook.targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(f"ringgraphs.{module_name}")
                except ImportError:
                    self.missing.append(target)
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(target)
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = self._open(hook.name)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span[1], span[2] = start, end
                rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
                span[5] = rise / 1024
            if hook.counters:
                span[4] = {c.name: _read(c, args, kwargs, result) for c in hook.counters}
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness span (the job, the checks) around a block."""
        rec = self._open(name)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            rec[5] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summarize(self, wall_s: float) -> dict[str, float | None]:
        """Per-layer metrics for one traced job (proc.* are added by the
        parent process, which owns the child's rusage)."""
        self_s = self.self_times()
        absent = set(self.missing)
        out: dict[str, float | None] = {}
        for hook in self.hooks:
            if all(t in absent for t in hook.targets):
                out.update(dict.fromkeys((m for m, _, _ in _hook_metrics(hook)), None))
                continue
            mine = [i for i, s in enumerate(self.spans) if s[0] == hook.name]
            sums = {
                "s": sum(self.spans[i][2] - self.spans[i][1] for i in mine),
                "self_s": sum(self_s[i] for i in mine),
                "calls": len(mine),
                "rss_rise_mb": sum(self.spans[i][5] for i in mine),
            }
            for c in hook.counters:
                values = [self.spans[i][4][c.name] for i in mine if self.spans[i][4]]
                sums[c.name] = None if None in values else sum(values)
            for r in hook.ratios:
                num, den = sums[r.num], sums[r.den]
                if num is None or den is None:
                    sums[r.name] = None
                else:
                    sums[r.name] = num / den * r.scale if den else 0.0
            out.update({f"{hook.name}.{k}": v for k, v in sums.items()})
        job = [i for i, s in enumerate(self.spans) if s[0] == JOB]
        check = [i for i, s in enumerate(self.spans) if s[0] == CHECK]
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = sum(self_s)
        out["trace.overhead_s"] = self.overhead_s
        out["trace.spans"] = len(self.spans)
        out[JOB + ".self_s"] = sum(self_s[i] for i in job)
        out[CHECK + ".s"] = sum(self.spans[i][2] - self.spans[i][1] for i in check)
        out[CHECK + ".rss_rise_mb"] = sum(self.spans[i][5] for i in check)
        return out

    def write_jsonl(self, path) -> None:
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts, rise) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "self_s": self_s[i],
                    "rss_rise_mb": rise,
                    "counts": counts or {},
                }
                fh.write(json.dumps(doc) + "\n")
