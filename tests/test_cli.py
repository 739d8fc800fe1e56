import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from ringgraphs import __version__, cli
from ringgraphs.graphs import build_graph
from ringgraphs.maps import MapFamily, parse_maps
from ringgraphs.spaces import Zn, parse_space

from conftest import assert_same_text, child_env, loop_dot, run_under_rlimit
from oracles import config_args, config_from_output, enumerate_states


def run(args):
    return cli.main(args)


def read(path):
    return path.read_text(encoding="utf-8")


def split_header(text, comment="#"):
    """(header dict, body) from a written output file."""
    header, body_lines = {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith(comment + " ") and "=" in line:
            key, _, value = line[len(comment) + 1 :].strip().partition("=")
            header[key] = value
        else:
            body_lines.append(line)
    return header, "".join(body_lines)


def test_gen_edges_and_dot(tmp_path):
    edges = tmp_path / "c31.edges"
    dot = tmp_path / "c31.dot"
    assert run(["gen", "--space", "zn:31", "--maps", "2x,3x+1",
                "--out", str(edges), "--out", str(dot)]) == 0
    header, body = split_header(read(edges))
    assert header["space"] == "zn:31"
    assert header["maps"] == "2x,3x+1"
    assert all(len(line.split()) == 2 for line in body.splitlines())
    dot_header, dot_body = split_header(read(dot), comment="//")
    assert dot_header["command"] == "gen"
    assert "labels" not in dot_header
    assert dot_body.startswith("graph G {")
    assert body.count("\n") == dot_body.count(" -- ")


@pytest.mark.parametrize(
    "space,maps",
    [
        ("zn:31", "2x,3x+1"),
        ("units:24", "x^2"),
        ("mat2:3", "matquad:1,2,2,4"),
        ("znz:13", "x^2"),
        ("from2:11", "x^2+1"),
        ("ut2:3", "matquad:1,1,0,1"),
        ("poly:3:3", "deriv,square"),
        ("bits:5", "ca:110"),
        ("poly:5:1", "deriv"),  # one-tuple labels: (3,)
        # more states than one label block of each family
        ("units:200000", "x^2"),
        ("bits:17", "ca:30,ca:110"),
    ],
)
def test_gen_dot_labels_are_state_payloads(tmp_path, space, maps):
    dot = tmp_path / "g.dot"
    assert run(["gen", "--space", space, "--maps", maps, "--labels", "--out", str(dot)]) == 0
    header, body = split_header(read(dot), comment="//")
    assert header["labels"] == "true"
    family = MapFamily(parse_maps(maps), parse_space(space))
    labels = [str(s.payload) for s in enumerate_states(family.space)]
    assert_same_text(body, loop_dot(build_graph(family), labels), space)


def test_gen_labels_read_residues_once(tmp_path, monkeypatch):
    # a perm map builds its table without digits(), so every call counted
    # here comes from the labels
    calls = []
    digits = Zn.digits
    monkeypatch.setattr(Zn, "digits", lambda self, i: calls.append(1) or digits(self, i))
    dot = tmp_path / "g.dot"
    args = ["gen", "--space", "zn:65536", "--maps", "perm:1", "--labels", "--out", str(dot)]
    assert run(args) == 0
    assert len(calls) <= 1
    _, body = split_header(read(dot), comment="//")
    labels = re.findall(r'^  \d+ \[label="(.*)"\];$', body, flags=re.M)
    assert labels == [str(s.payload) for s in enumerate_states(Zn(1 << 16))]


def test_gen_power_with_an_exponent_past_int64(tmp_path):
    e = 99999999999999999999
    out = tmp_path / "g.edges"
    assert run(["gen", "--space", "zn:10", "--maps", f"x^{e}", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    edges = sorted({tuple(sorted((x, pow(x, e, 10)))) for x in range(10) if pow(x, e, 10) != x})
    assert body == "".join(f"{u} {v}\n" for u, v in edges)


def test_gen_trivial_graph_is_empty(tmp_path):
    out = tmp_path / "g.edges"
    assert run(["gen", "--space", "zn:1", "--maps", "x", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    assert body == ""


def test_gen_polynomial_ring(tmp_path):
    out = tmp_path / "p.edges"
    assert run(["gen", "--space", "poly:5:6",
                "--maps", "deriv,square,addc:1,1,1,1,1,0", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    vertices = {int(x) for line in body.splitlines() for x in line.split()}
    assert max(vertices) < 15625


def test_stats_deterministic_and_correct(tmp_path):
    out = tmp_path / "s.json"
    args = ["stats", "--space", "zn:13", "--maps", "2x,3x+1", "--out", str(out)]
    assert run(args) == 0
    first = read(out)
    assert run(args) == 0
    assert read(out) == first  # identical bytes on rerun
    header, body = split_header(first)
    assert header["nu"] == "local"  # defaults recorded explicitly
    doc = json.loads(body)
    assert doc["triangles"] == 6
    assert doc["vertices"] == 13


def test_stats_nu_switch(tmp_path):
    out = tmp_path / "s.json"
    run(["stats", "--space", "zn:100", "--maps", "2x,3x+1",
         "--nu", "transitivity", "--out", str(out)])
    header, body = split_header(read(out))
    assert header["nu"] == "transitivity"
    doc = json.loads(body)
    if doc["lambda"] is not None and 0 < doc["nu_transitivity"] < 1:
        import math

        expected = -doc["mu"] / math.log(doc["nu_transitivity"])
        assert abs(doc["lambda"] - expected) < 1e-12


def test_header_reproduces_run(tmp_path):
    out1 = tmp_path / "a.json"
    run(["stats", "--space", "zn:60", "--maps", "x^2+1,x^2+2", "--out", str(out1)])
    header, _ = split_header(read(out1))
    out2 = tmp_path / "b.json"
    run(["stats", "--space", header["space"], "--maps", header["maps"],
         "--nu", header["nu"], "--seed", header["seed"], "--out", str(out2)])
    assert read(out1) == read(out2)


def test_run_config_roundtrips_through_output(tmp_path):
    # the parsed config of any output file reproduces that file exactly; the
    # header follows the body, not the suffix, so a .pbm file that is not a
    # P1 bitmap starts with it too
    cases = [
        (["stats", "--space", "zn:40", "--maps", "2x,3x+1"], ".out"),
        (["verify", "pierpont", "--nmax", "40", "--space-kind", "znz"], ".out"),
        (["verify", "power-pair", "--a", "2", "--b", "5", "--nmax", "30"], ".out"),
        (["scan", "locus", "--maps", "3x+1", "--space-kind", "zn", "--nmax", "20"], ".out"),
        (["scan", "perm-lambda", "--n", "30", "--trials", "3", "--seed", "9"], ".out"),
        (["scan", "ca-mandelbrot", "--width", "3", "--workers", "1"], ".pbm"),
        (["scan", "ca-mandelbrot", "--width", "3", "--workers", "1"], ".dot"),
        (["scan", "euler-seq"], ".out"),
        (["scan", "artin-census", "--count", "50"], ".out"),
        (["gen", "--space", "zn:12", "--maps", "x^2"], ".out"),
        (["scan", "locus", "--maps", "3x+1", "--space-kind", "zn", "--nmax", "20"], ".pbm"),
        (["gen", "--space", "zn:12", "--maps", "x^2"], ".pbm"),
        (["gen", "--space", "zn:12", "--maps", "x^2", "--labels"], ".dot"),
        (["gen", "--space", "mat2:2", "--maps", "x^2", "--labels"], ".dot"),
        (["gen", "--space", "zn:12", "--maps", "x^2", "--labels"], ".edges"),
        # a map list starting with '-' is only read in the --maps= form
        (["gen", "--space", "zn:7", "--maps=-2x+1"], ".edges"),
        (["scan", "locus", "--maps=-2x+1", "--space-kind", "zn", "--nmax", "20"], ".out"),
    ]
    for i, (argv, suffix) in enumerate(cases):
        first = tmp_path / f"first{i}{suffix}"
        run(argv + ["--out", str(first)])
        text = read(first)
        if text.startswith("P1\n"):  # a PBM keeps # lines, whatever its suffix
            assert text.splitlines()[1].startswith("# ringgraphs="), argv
        config = config_from_output(text)
        second = tmp_path / f"second{i}{suffix}"
        assert run(config_args(config) + ["--out", str(second)]) in (0, 2)
        assert read(first) == read(second), argv


def test_verify_pass_exit_zero(tmp_path):
    out = tmp_path / "v.txt"
    assert run(["verify", "lemma1", "--nmax", "64", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    assert body == "lemma1 range=2..64 agree=63 disagree=[] PASS\n"


def test_verify_fail_exit_two(tmp_path):
    # the stated matrix example is disconnected; the checker reports FAIL
    out = tmp_path / "v.txt"
    assert run(["verify", "matrix-example", "--out", str(out)]) == 2
    _, body = split_header(read(out))
    assert body.endswith("FAIL\n")


def test_verify_power_pair_flags(capsys):
    assert run(["verify", "power-pair", "--a", "2", "--b", "5", "--nmax", "60"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,name",
    [
        (["verify", "artin", "--nmax", "50"], "n_max"),
        (["verify", "lemma1", "--pmax", "50"], "p_max"),
        (["verify", "lemma1", "--extras", "5"], "extras"),
        (["verify", "fermat", "--pmax", "9"], "p_max"),
        (["verify", "matrix-example", "--nmax", "7"], "n_max"),
        (["verify", "artin", "--pmax", "50", "--a", "3"], "a"),
        (["verify", "pierpont", "--nmax", "20", "--b", "3"], "b"),
        (["verify", "lemma1", "--nmax", "20", "--space-kind", "from2"], "space_kind"),
    ],
)
def test_verify_rejects_a_flag_its_claim_does_not_take(tmp_path, capsys, argv, name):
    out = tmp_path / "v.txt"
    assert run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: claim {argv[1]} takes no {name}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "claim,recorded",
    [("power-pair", {"a": "2", "b": "5"}), ("pierpont", {"space-kind": "znz"})],
)
def test_verify_header_records_the_claim_defaults(tmp_path, claim, recorded):
    out = tmp_path / "v.txt"
    assert run(["verify", claim, "--nmax", "40", "--out", str(out)]) == 0
    header, _ = split_header(read(out))
    assert {k: header[k] for k in recorded} == recorded
    other_claims_flags = {"a", "b", "space-kind"} - recorded.keys()
    assert not other_claims_flags & header.keys()


def test_verify_unknown_claim_rejected():
    with pytest.raises(SystemExit):
        run(["verify", "nonesuch"])


# the options each scan kind takes; every other (kind, option) pair is an error
SCAN_TAKES = {
    "locus": ("maps", "space-kind", "nmax"),
    "ca-mandelbrot": ("width", "workers"),
    "euler-seq": ("nmax",),
    "perm-lambda": ("n", "trials", "seed"),
    "artin-census": ("count",),
}
SCAN_VALUES = {
    "maps": "x^2", "space-kind": "zn", "nmax": "5", "width": "3", "n": "5",
    "trials": "1", "seed": "1", "count": "5", "workers": "1",
}


def test_scans_declare_the_options_each_kind_takes():
    declared = {
        kind: {name.replace("_", "-") for name in takes}
        for kind, (_, takes) in cli.SCANS.items()
    }
    assert declared == {kind: set(flags) for kind, flags in SCAN_TAKES.items()}


@pytest.mark.parametrize(
    "kind,flag",
    [(k, f) for k in SCAN_TAKES for f in SCAN_VALUES if f not in SCAN_TAKES[k]],
)
def test_scan_rejects_an_option_its_kind_does_not_take(tmp_path, capsys, kind, flag):
    out = tmp_path / "s.out"
    assert run(["scan", kind, f"--{flag}", SCAN_VALUES[flag], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scan {kind} takes no --{flag}\n"
    assert not out.exists()


def test_scan_header_records_every_option_of_its_kind(capsys):
    assert run(["scan", "perm-lambda", "--trials", "2"]) == 0
    config = config_from_output(capsys.readouterr().out)
    assert config.fields == (
        ("kind", "perm-lambda"), ("n", "100"), ("trials", "2"), ("seed", "0"),
    )


def test_scan_euler_seq(tmp_path):
    out = tmp_path / "chi.csv"
    assert run(["scan", "euler-seq", "--nmax", "23", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    lines = body.splitlines()
    assert lines[0] == "n,euler_char"
    values = tuple(int(line.split(",")[1]) for line in lines[1:])
    assert values == (1, 2, 2, 2, 2, 4, 3, 2, 3, 4, 2, 4, 3, 6, 4, 2, 2, 6, 3, 4, 6, 4, 2)


def test_scan_locus(tmp_path):
    out = tmp_path / "locus.csv"
    assert run(["scan", "locus", "--maps", "3x+1", "--space-kind", "zn",
                "--nmax", "30", "--out", str(out)]) == 0
    header, body = split_header(read(out))
    assert header["maps"] == "3x+1"
    lines = body.splitlines()
    assert lines[0] == "param,components,connected"
    connected = [int(l.split(",")[0]) for l in lines[1:] if l.endswith(",1")]
    assert connected == [1, 2, 3, 6, 9, 18, 27]


@pytest.mark.parametrize("kind,start", [("zn", 1), ("znz", 2), ("units", 1), ("from2", 3)])
def test_scan_locus_starts_at_the_smallest_modulus(capsys, kind, start):
    assert run(["scan", "locus", "--maps", "x^2", "--space-kind", kind, "--nmax", "8"]) == 0
    _, body = split_header(capsys.readouterr().out)
    params = [int(line.split(",")[0]) for line in body.splitlines()[1:]]
    assert params == list(range(start, 9))


@pytest.mark.parametrize("kind", ["mat2", "foo"])
def test_scan_locus_rejects_a_space_kind_that_is_not_a_residue_space(capsys, kind):
    assert run(["scan", "locus", "--maps", "x^2", "--space-kind", kind]) == 1
    assert capsys.readouterr().err == (
        f"error: locus scans sweep residue spaces, not {kind!r}\n"
    )


def test_scan_ca_mandelbrot_to_stdout_matches_the_file(tmp_path, capsys):
    out = tmp_path / "m.pbm"
    argv = ["scan", "ca-mandelbrot", "--width", "3", "--workers", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == read(out)
    config = config_from_output(read(out))
    assert config.fields == (("kind", "ca-mandelbrot"), ("width", "3"))


def test_scan_ca_mandelbrot_rejects_negative_workers(tmp_path, capsys):
    out = tmp_path / "m.pbm"
    argv = ["scan", "ca-mandelbrot", "--width", "3", "--workers", "-1", "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: --workers must be >= 0, not -1\n"
    assert not out.exists()


def test_scan_perm_lambda_reproducible(tmp_path):
    out1 = tmp_path / "l1.csv"
    out2 = tmp_path / "l2.csv"
    args = ["scan", "perm-lambda", "--n", "40", "--trials", "5", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert "trial,lambda" in read(out1)


def test_scan_artin_census(tmp_path):
    out = tmp_path / "census.txt"
    assert run(["scan", "artin-census", "--count", "100", "--out", str(out)]) == 0
    _, body = split_header(read(out))
    assert body.startswith("primes=100 count=")


def test_scan_ca_mandelbrot_pbm(tmp_path):
    out = tmp_path / "m.pbm"
    assert run(["scan", "ca-mandelbrot", "--width", "3", "--out", str(out)]) == 0
    text = read(out)
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert any(line.startswith("# ") and "width=3" in line for line in lines[1:6])
    assert "256 256" in lines
    rows = [l for l in lines if set(l) <= {"0", "1"} and len(l) == 256]
    assert len(rows) == 256


def test_cli_error_is_nonzero(capsys):
    assert run(["gen", "--space", "zn:0", "--maps", "x"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["gen", "--space", "zn:5", "--maps", "3x+"]) == 1
    assert run(["stats", "--space", "bits:2", "--maps", "ca:30"]) == 1


@pytest.mark.parametrize(
    "space,maps,message",
    [
        ("bits:4", "2x", "'2x' not applicable to bits:4"),
        ("ut2:3", "matquad:1,1,1,1", "matrix constant must be upper triangular here"),
    ],
)
def test_gen_rejects_a_map_its_space_does_not_take(tmp_path, capsys, space, maps, message):
    out = tmp_path / "g.edges"
    assert run(["gen", "--space", space, "--maps", maps, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False])
def test_gen_reports_a_ws_image_past_the_largest_float(tmp_path, capsys, to_file):
    # 999^1001 overflows a float: one error line naming the map, no output
    out = tmp_path / "g.edges"
    argv = ["gen", "--space", "zn:1000", "--maps", "ws:1000:0"]
    assert run(argv + ["--out", str(out)] * to_file) == 1
    assert capsys.readouterr() == ("", "error: 'ws:1000.0:0' overflows a float\n")
    assert not out.exists()


def test_locus_without_maps_is_an_error(capsys):
    assert run(["scan", "locus", "--nmax", "10"]) == 1
    assert capsys.readouterr().err == "error: locus scans need --maps\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_gen_reports_a_failed_write_to_a_file(capsys):
    argv = ["gen", "--space", "zn:50000", "--maps", "2x,3x+1", "--out", "/dev/full"]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 28]")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("space, lines", [("zn:200000", 1), ("zn:12", 0)])
def test_gen_to_a_closed_pipe_stops_quietly(space, lines, unbuffered):
    # the reader closes the pipe, as `| head -1` does: after one line of an
    # output far from written, or before anything of an output that fits in
    # the buffer of stdout, so that, if stdout is buffered, the flush at exit
    # meets the closed pipe too
    argv = [sys.executable, "-m", "ringgraphs.cli", "gen", "--space", space,
            "--maps", "2x,3x+1"]
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with subprocess.Popen(argv, env=env, **pipes) as child:
        for _ in range(lines):
            assert child.stdout.readline() == f"# ringgraphs={__version__}\n".encode()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert (code, err) == (0, b"")


class HashSink(io.RawIOBase):
    """A raw stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.sha.update(data)
        return len(data)


def test_write_holds_no_copy_of_the_body(tmp_path, monkeypatch):
    body = "1234567 7654321\n" * (1 << 20)  # 16 MiB
    config = cli.RunConfig("gen", (("space", "zn:7654322"), ("maps", "2x")))
    header = "".join(f"# {h}\n" for h in config.header_lines())
    want = hashlib.sha256((header + body).encode()).hexdigest()
    sink = HashSink()
    stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    path = tmp_path / "big.edges"
    for target in (str(path), None):
        tracemalloc.start()
        try:
            cli._write(target, body, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, target
    stdout.flush()
    assert sink.sha.hexdigest() == want
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


# SHA-256 of `gen --space zn:2097152 --maps 2x,3x+1` into a .edges file, as
# written before the export walked the CSR in row blocks
_GEN_2_21_SHA256 = "7f388e7c5be3a455062f06e859206a75ed123b973d926420b97b8fe8831a2b5e"


def test_gen_at_2_21_fits_in_448_mib_of_address_space(tmp_path):
    # gen holds its text once beside the graph: the smallest address-space
    # limit it ran under was 366 MiB, against 482 MiB while the text was
    # copied whole several times (Linux x86-64, Python 3.11, numpy 2.4,
    # scipy 1.17, one BLAS thread)
    out = tmp_path / "g.edges"
    code = (
        "import sys\n"
        "from ringgraphs import cli\n"
        f"argv = ['gen', '--space', 'zn:2097152', '--maps', '2x,3x+1', '--out', {str(out)!r}]\n"
        "sys.exit(cli.main(argv))\n"
    )
    run_under_rlimit(code, "RLIMIT_AS", 448 << 20)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GEN_2_21_SHA256


_GEN_BITS_19_LABELS_SHA256 = "4ea986ad21f96d38803953c880615a7b40e5212ed4848fe7ed994fe8dff95d02"


def test_gen_labels_at_bits_19_fit_in_392_mib_of_address_space(tmp_path):
    # the label rows are written per block of states straight from their
    # digit columns: the smallest address-space limit it ran under was 373
    # MiB, against 404 MiB while gen built a tuple and a label str for every
    # state first (Linux x86-64, Python 3.11, numpy 2.4, scipy 1.17, one
    # BLAS thread)
    out = tmp_path / "g.dot"
    code = (
        "import sys\n"
        "from ringgraphs import cli\n"
        "argv = ['gen', '--space', 'bits:19', '--maps', 'ca:30,ca:110', '--labels',"
        f" '--out', {str(out)!r}]\n"
        "sys.exit(cli.main(argv))\n"
    )
    run_under_rlimit(code, "RLIMIT_AS", 392 << 20)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GEN_BITS_19_LABELS_SHA256
