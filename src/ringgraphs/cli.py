"""Command-line front door: gen | stats | verify | scan.

Every output file carries a comment header with the content-determining
fields of its run, so a run can be reproduced byte-for-byte from its own
output: space and maps for gen, plus labels in a labelled .dot file; nu and
seed too for stats; every option of a scan kind but --workers, defaults
filled in from SCANS; and the options given to verify, plus a claim's a, b
and space-kind at their verify.CLAIMS defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import __version__, survey
from .graphs import build_graph, export_dot, export_edge_list
from .maps import family_from_texts, parse_maps
from .metrics import full_report
from .spaces import SPACE_KINDS, ResidueSpace, parse_space
from .survey import (
    ca_mandelbrot,
    connectivity_locus,
    euler_sequence,
    permutation_lambda,
    to_pbm,
)
from .verify import CLAIM_IDS, CLAIMS, PIERPONT_SPACE_KINDS, run_claim

# run_claim parameters whose verify flag is spelt differently
_VERIFY_FLAGS = {"n_max": "nmax", "p_max": "pmax", "space_kind": "space-kind"}


@dataclass(frozen=True)
class RunConfig:
    """Content-determining configuration of one run, as ordered key=value
    pairs: the comment header of any output file."""

    command: str
    fields: tuple[tuple[str, str], ...]

    def header_lines(self) -> list[str]:
        pairs = (("command", self.command),) + self.fields
        return [f"ringgraphs={__version__}"] + [f"{k}={v}" for k, v in pairs]


# characters of the body written per call by _write, so that the body is
# never copied or encoded whole
_WRITE_SLICE = 1 << 20


def _write(path: str | None, body: str, config: RunConfig) -> None:
    """Write body with the header of config to path, or to stdout: as #
    lines after the magic number of a PBM, else as comment lines before the
    body (// for a .dot path).  A closed stdout pipe, as under `| head`,
    ends the write quietly."""
    if body.startswith("P1\n"):
        magic, mark = "P1\n", "#"
    else:
        magic, mark = "", "//" if path is not None and path.endswith(".dot") else "#"
    header = magic + "".join(f"{mark} {h}\n" for h in config.header_lines())
    starts = range(len(magic), len(body), _WRITE_SLICE)
    slices = (body[at : at + _WRITE_SLICE] for at in starts)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(slices)
        return
    try:
        sys.stdout.write(header)
        sys.stdout.writelines(slices)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to devnull, so
        # that the flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_gen(args) -> int:
    family = family_from_texts(parse_space(args.space), args.maps)
    g = build_graph(family)
    fields = (("space", args.space), ("maps", family.provenance()))
    outs = args.out or [None]
    for path in outs:
        if path is not None and path.endswith(".dot"):
            space, dot_fields = None, fields
            if args.labels:
                space, dot_fields = family.space, fields + (("labels", "true"),)
            _write(path, export_dot(g, space), RunConfig("gen", dot_fields))
        else:
            _write(path, export_edge_list(g), RunConfig("gen", fields))
    return 0


def cmd_stats(args) -> int:
    family = family_from_texts(parse_space(args.space), args.maps)
    report = full_report(build_graph(family), nu_estimator=args.nu, sample_seed=args.seed)
    config = RunConfig(
        "stats",
        (
            ("space", args.space),
            ("maps", family.provenance()),
            ("nu", args.nu),
            ("seed", str(args.seed)),
        ),
    )
    _write(args.out, report.to_json(), config)
    return 0


def cmd_verify(args) -> int:
    takes = CLAIMS[args.claim][1]
    extras = args.extras
    if extras is not None:
        extras = tuple(int(v) for v in extras.split(",") if v.strip())
    # every given option goes to run_claim, which rejects one its claim does
    # not take; a, b and space-kind are recorded at their defaults too
    given = {"n_max": args.nmax, "p_max": args.pmax}
    for k in ("a", "b", "space_kind"):
        given[k] = takes.get(k) if getattr(args, k) is None else getattr(args, k)
    given["extras"] = extras
    kwargs = {k: v for k, v in given.items() if v is not None}
    verdict = run_claim(args.claim, **kwargs)
    header = tuple(
        (_VERIFY_FLAGS.get(k, k), ",".join(map(str, v)) if k == "extras" else str(v))
        for k, v in kwargs.items()
    )
    config = RunConfig("verify", (("claim", args.claim),) + header)
    _write(args.out, verdict.to_line() + "\n", config)
    if args.out is not None:
        print(verdict.to_line())
    return 0 if verdict.passed else 2


def _scan_locus(space_kind: str, maps: str | None, nmax: int) -> str:
    space_cls = SPACE_KINDS.get(space_kind)
    if space_cls is None or not issubclass(space_cls, ResidueSpace):
        raise ValueError(f"locus scans sweep residue spaces, not {space_kind!r}")
    if maps is None:
        raise ValueError("locus scans need --maps")
    ns = range(space_cls.first + 1, nmax + 1)
    return connectivity_locus(parse_maps(maps), space_kind, ns).to_csv()


def _scan_ca_mandelbrot(width: int, workers: int) -> str:
    if workers < 0:
        raise ValueError(f"--workers must be >= 0, not {workers}")
    workers = workers or os.cpu_count() or 1
    print(f"workers={workers}", file=sys.stderr)
    return to_pbm(ca_mandelbrot(width, workers=workers))


def _scan_euler_seq(nmax: int) -> str:
    seq = euler_sequence(nmax)
    return "n,euler_char\n" + "".join(f"{n},{chi}\n" for n, chi in enumerate(seq, 1))


def _scan_perm_lambda(n: int, trials: int, seed: int) -> str:
    return permutation_lambda(n, trials, seed).to_csv()


def _scan_artin_census(count: int) -> str:
    hits, fraction = survey.artin_census(count)
    return f"primes={count} count={hits} fraction={fraction:.9g}\n"


# scan kind -> (body writer, {option: default}); the header records every
# option but workers, in this order.  The writers look the survey functions up
# when they run, so a function patched on this module is the one called.
SCANS = {
    "locus": (_scan_locus, {"space_kind": "zn", "maps": None, "nmax": 100}),
    "ca-mandelbrot": (_scan_ca_mandelbrot, {"width": 9, "workers": 0}),
    "euler-seq": (_scan_euler_seq, {"nmax": 100}),
    "perm-lambda": (_scan_perm_lambda, {"n": 100, "trials": 50, "seed": 0}),
    "artin-census": (_scan_artin_census, {"count": 10000}),
}
_SCAN_OPTIONS = {name for _, takes in SCANS.values() for name in takes}


def cmd_scan(args) -> int:
    writer, takes = SCANS[args.kind]
    given = {k: v for k, v in vars(args).items() if k in _SCAN_OPTIONS and v is not None}
    for name in given:
        if name not in takes:
            raise ValueError(f"scan {args.kind} takes no --{name.replace('_', '-')}")
    options = {**takes, **given}
    header = tuple(
        (k.replace("_", "-"), str(v)) for k, v in options.items() if k != "workers"
    )
    config = RunConfig("scan", (("kind", args.kind),) + header)
    _write(args.out, writer(**options), config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgraphs",
        description="graphs generated by map families on finite rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a graph and export .edges/.dot files")
    gen.add_argument("--space", required=True, help="state space, e.g. zn:31")
    gen.add_argument("--maps", required=True, help='comma-separated maps, e.g. "2x,3x+1"')
    gen.add_argument("--out", action="append", help="output file (.edges or .dot)")
    gen.add_argument("--labels", action="store_true", help="label DOT nodes with state payloads")
    gen.set_defaults(func=cmd_gen)

    stats = sub.add_parser("stats", help="compute the full statistics report")
    stats.add_argument("--space", required=True)
    stats.add_argument("--maps", required=True)
    stats.add_argument("--nu", choices=("local", "transitivity"), default="local")
    stats.add_argument("--seed", type=int, default=0, help="sampling seed for huge graphs")
    stats.add_argument("--out")
    stats.set_defaults(func=cmd_stats)

    ver = sub.add_parser("verify", help="run one claim checker")
    ver.add_argument("claim", choices=CLAIM_IDS)
    ver.add_argument("--nmax", type=int)
    ver.add_argument("--pmax", type=int)
    ver.add_argument("--a", type=int, help="first exponent (power-pair)")
    ver.add_argument("--b", type=int, help="second exponent (power-pair)")
    ver.add_argument(
        "--space-kind", choices=PIERPONT_SPACE_KINDS, help="vertex set reading for pierpont"
    )
    ver.add_argument("--extras", help="comma-separated extra n values (fermat)")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    scan = sub.add_parser("scan", help="parameter-space sweeps and censuses")
    scan.add_argument("kind", choices=SCANS)
    scan.add_argument("--maps", help="maps for locus scans")
    scan.add_argument("--space-kind", help="residue space family for locus scans")
    scan.add_argument("--nmax", type=int)
    scan.add_argument("--width", type=int, help="bit width (ca-mandelbrot)")
    scan.add_argument("--n", type=int, help="modulus (perm-lambda)")
    scan.add_argument("--trials", type=int)
    scan.add_argument("--seed", type=int)
    scan.add_argument("--count", type=int, help="primes (artin-census)")
    scan.add_argument(
        "--workers", type=int,
        help="0 = one worker per available CPU (results are worker-invariant)",
    )
    scan.add_argument("--out")
    scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
