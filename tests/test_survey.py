import os

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ringgraphs import metrics, numtheory, survey
from ringgraphs.graphs import build_graph
from ringgraphs.maps import Affine, MapFamily, Perm, PowerPlus, parse_maps
from ringgraphs.spaces import Zn, parse_space

EULER_23 = (1, 2, 2, 2, 2, 4, 3, 2, 3, 4, 2, 4, 3, 6, 4, 2, 2, 6, 3, 4, 6, 4, 2)


def test_euler_sequence_matches_stated_list():
    assert survey.euler_sequence(23) == EULER_23
    assert survey.euler_sequence(1) == (1,)


def test_euler_sequence_at_127():
    g = build_graph(MapFamily((PowerPlus(2, 0),), Zn(127)))
    seq = survey.euler_sequence(127)
    assert seq[126] == g.vertex_count - g.edge_count + 2  # exactly 2 triangles


def test_locus_triple_smooth():
    r = survey.connectivity_locus(parse_maps("3x+1"), "zn", range(1, 101))
    assert r.connected_params() == (1, 2, 3, 6, 9, 18, 27, 54, 81)


def test_locus_identity_map_never_connected():
    r = survey.connectivity_locus(parse_maps("x"), "zn", range(1, 30))
    assert r.connected_params() == (1,)
    assert r.component_counts == tuple(range(1, 30))


def test_locus_fifth_power_three_components():
    r = survey.connectivity_locus(parse_maps("x^5"), "zn", range(1, 261))
    threes = [n for n, c in zip(r.params, r.component_counts) if c == 3]
    assert threes[:4] == [3, 4, 11, 251]


def test_locus_csv_format():
    r = survey.connectivity_locus(parse_maps("3x+1"), "zn", range(1, 6))
    lines = r.to_csv().splitlines()
    assert lines[0] == "param,components,connected"
    assert lines[1] == "1,1,1"
    assert len(lines) == 6


@pytest.mark.parametrize(
    "maps,space_kind,ns",
    [
        ("x^2,x^3", "znz", range(2, 40)),
        ("2x,3x+1", "zn", range(1, 40)),
        ("x^2+1", "mat2", range(1, 6)),
        ("deriv,square", "poly:3", range(1, 5)),
        ("ca:30", "bits", range(3, 8)),
    ],
)
def test_locus_matches_each_parsed_space(maps, space_kind, ns):
    # the space kind is parsed once; each n must still get the space that
    # parse_space(f"{space_kind}:{n}") gives, fields before n included
    got = survey.connectivity_locus(parse_maps(maps), space_kind, ns).component_counts
    families = [MapFamily(parse_maps(maps), parse_space(f"{space_kind}:{n}")) for n in ns]
    assert list(got) == [metrics.components(build_graph(f))[0] for f in families]


def test_locus_rejects_empty_range():
    with pytest.raises(ValueError):
        survey.connectivity_locus(parse_maps("x"), "zn", [])


@pytest.fixture(scope="module")
def width3_grid():
    return survey.ca_mandelbrot(3)


def test_ca_grid_symmetric(width3_grid):
    g = survey.grid_of(width3_grid)
    assert g.shape == (256, 256)
    assert np.array_equal(g, g.T)


def test_ca_grid_known_cells(width3_grid):
    g = survey.grid_of(width3_grid)
    assert g[0, 255]  # all-to-zero and all-to-one hubs meet
    assert not g[204, 204]  # identity rule produces no edges
    counts = np.array(width3_grid.component_counts).reshape(256, 256)
    assert counts[204, 204] == 8  # every width-3 vector isolated


def test_ca_grid_diagonal_matches_single_rule(width3_grid):
    from ringgraphs.maps import CARule
    from ringgraphs.spaces import BitVec

    counts = np.array(width3_grid.component_counts).reshape(256, 256)
    for rule in (0, 30, 110, 204, 255):
        g = build_graph(MapFamily((CARule(rule),), BitVec(3)))
        assert counts[rule, rule] == metrics.components(g)[0]


def test_ca_grid_params_are_pair_keys(width3_grid):
    # entry a*256 + b is the pair (a, b); perfbench's survey hook reads the
    # grid's size as len(params)
    params = width3_grid.params
    assert len(params) == 65536
    assert all(params[k] == k for k in range(65536))
    assert width3_grid.connected_params() == tuple(
        np.flatnonzero(survey.grid_of(width3_grid)).tolist()
    )


def test_ca_pbm_determinism(width3_grid):
    a = survey.to_pbm(width3_grid)
    b = survey.to_pbm(survey.ca_mandelbrot(3))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "256 256"
    assert len(lines) == 2 + 256
    assert set("".join(lines[2:])) <= {"0", "1"}


def test_ca_workers_give_identical_grid(width3_grid):
    parallel = survey.ca_mandelbrot(3, workers=2)
    assert parallel.component_counts == width3_grid.component_counts
    assert survey.to_pbm(parallel) == survey.to_pbm(width3_grid)


def test_ca_pool_has_at_most_one_process_per_cpu(width3_grid, monkeypatch):
    # a stand-in pool that records what it is asked for and counts every
    # part in one in-process call, so no process is started
    asked, split = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, widths, parts):
            split.append(len(parts))
            counts = fn(widths[0], np.concatenate(parts))
            return np.split(counts, np.cumsum([len(p) for p in parts])[:-1])

    monkeypatch.setattr(survey, "ProcessPoolExecutor", RecordingPool)
    many = survey.ca_mandelbrot(3, workers=5000)
    assert asked == [min(5000, os.cpu_count() or 1)]
    assert split == [5000]  # workers still sets the number of parts
    assert many.component_counts == width3_grid.component_counts


def _bit_reversal(width):
    index = np.arange(1 << width)
    out = np.zeros_like(index)
    for i in range(width):
        out |= (index >> i & 1) << (width - 1 - i)
    return out


def test_rule_symmetries_pin_the_known_classes():
    mirror, complement = survey._MIRROR, survey._COMPLEMENT
    assert (mirror[30], complement[30], mirror[complement[30]]) == (86, 135, 149)
    assert (mirror[110], complement[110], mirror[complement[110]]) == (124, 137, 193)
    for g in (mirror, complement):
        assert sorted(g) == list(range(256))
        assert (g[g] == np.arange(256)).all()
    orbit_min = np.minimum.reduce([np.arange(256), mirror, complement, mirror[complement]])
    assert len(np.unique(orbit_min)) == 88  # Wolfram's equivalence classes


@pytest.mark.parametrize("width", range(3, 10))
def test_rule_symmetries_conjugate_the_ca_maps(width):
    # the premise of the orbit reduction: mirroring a rule conjugates its
    # map by the bit reversal R, complementing it by the bit flip C
    from ringgraphs.maps import CARule, image_table
    from ringgraphs.spaces import BitVec

    space = BitVec(width)
    tables = [image_table(CARule(r), space) for r in range(256)]
    reverse = _bit_reversal(width)
    flip = np.arange(1 << width) ^ ((1 << width) - 1)
    for r in range(256):
        assert np.array_equal(tables[survey._MIRROR[r]], reverse[tables[r][reverse]]), r
        assert np.array_equal(tables[survey._COMPLEMENT[r]], flip[tables[r][flip]]), r


def test_ca_orbits_cover_the_pairs():
    a, b = np.triu_indices(256)
    keys = survey._orbit_keys(a, b)
    assert len(np.unique(keys)) == 8896
    assert (keys <= a * 256 + b).all()
    # a representative is its own key
    ra, rb = np.divmod(np.unique(keys), 256)
    assert np.array_equal(survey._orbit_keys(ra, rb), ra * 256 + rb)


def _rule_tables(width):
    from ringgraphs.maps import CARule, image_table
    from ringgraphs.spaces import BitVec

    return np.array([image_table(CARule(r), BitVec(width)) for r in range(256)])


def _pair_counts(tables, keys, per_call=1024):
    # the reference: each pair graph (a, b) on its full image tables, with
    # per_call pair graphs stacked block-diagonally in one scipy call; it
    # shares no code with the sweep kernel
    states = tables.shape[1]
    counts = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(keys), per_call):
        a, b = np.divmod(keys[lo : lo + per_call], 256)
        rows = np.arange(len(a) * states).reshape(len(a), states)
        offset = rows[:, :1]
        src = np.concatenate([rows, rows]).ravel()
        dst = np.concatenate([tables[a] + offset, tables[b] + offset]).ravel()
        mat = coo_matrix((np.ones(len(src)), (src, dst)), shape=(rows.size,) * 2)
        found, labels = connected_components(mat, directed=False)
        owner = np.empty(found, dtype=np.int64)
        owner[labels.reshape(rows.shape)] = np.arange(len(a))[:, None]
        counts.append(np.bincount(owner, minlength=len(a)))
    return np.concatenate(counts)


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_ca_grid_matches_the_unreduced_grid(width, monkeypatch):
    tables = _rule_tables(width)
    a, b = np.triu_indices(256)
    want = np.zeros((256, 256), dtype=np.int64)
    want[a, b] = want[b, a] = _pair_counts(tables, a * 256 + b)
    # the default chunk holds a rule's whole run of pairs; 100 entries split
    # a run over chunks of a few pairs, 7 and 1 entries into one pair each
    for chunk in (metrics._CHUNK_VERTICES, 100, 7, 1):
        monkeypatch.setattr(metrics, "_CHUNK_VERTICES", chunk)
        got = np.array(survey.ca_mandelbrot(width).component_counts).reshape(256, 256)
        assert np.array_equal(got, want), chunk


def test_ca_cell_counts_of_a_part_starting_inside_a_run():
    # a worker's part of the representative keys can start and stop in the
    # middle of a first rule's run of pairs
    width = 5
    tables = _rule_tables(width)
    a, b = np.triu_indices(256)
    keys = np.unique(survey._orbit_keys(a, b))
    first = keys // 256
    inside = np.flatnonzero(first[1:] == first[:-1]) + 1  # not the start of a run
    lo, hi = inside[len(inside) // 3], inside[2 * len(inside) // 3]
    part = keys[lo:hi]
    assert first[lo - 1] == first[lo] and first[hi - 1] == first[hi]
    assert np.array_equal(survey._ca_cell_counts(width, part), _pair_counts(tables, part))
    # the counts follow the keys in any order, runs of one first rule or not
    shuffled = np.random.default_rng(0).permutation(part)
    assert np.array_equal(
        survey._ca_cell_counts(width, shuffled), _pair_counts(tables, shuffled)
    )


@pytest.mark.parametrize("width", [3, 7])
def test_ca_pairs_with_a_connected_first_rule_count_one(width):
    # rule 0 sends every state to 0: its one component is its contraction's
    # only vertex, whatever the second rule
    keys = np.arange(256)
    counts = survey._ca_cell_counts(width, keys)
    assert (counts == 1).all()
    assert np.array_equal(counts, _pair_counts(_rule_tables(width), keys))


def test_ca_width_bounds():
    with pytest.raises(ValueError):
        survey.ca_mandelbrot(2)
    with pytest.raises(ValueError):
        survey.ca_mandelbrot(21)


def test_permutation_lambda_reproducible():
    a = survey.permutation_lambda(50, 10, seed=1)
    b = survey.permutation_lambda(50, 10, seed=1)
    assert a == b
    assert a.to_csv() == b.to_csv()
    c = survey.permutation_lambda(50, 10, seed=2)
    assert c.lambdas != a.lambdas


def test_permutation_lambda_undefined_accounting():
    census = survey.permutation_lambda(12, 40, seed=3)
    assert census.undefined_count == sum(1 for x in census.lambdas if x is None)
    defined = [x for x in census.lambdas if x is not None]
    if defined:
        assert census.mean == pytest.approx(sum(defined) / len(defined))


def test_identity_permutations_leave_lambda_undefined():
    # seed 1 shuffles range(3) to itself: an edgeless graph, lambda undefined
    from ringgraphs.rng import shuffled_range

    assert shuffled_range(3, 1).tolist() == [0, 1, 2]
    fam = MapFamily((Perm(1), Perm(1)), Zn(3))
    g = build_graph(fam)
    assert g.edge_count == 0
    assert metrics.full_report(g).lam is None


def test_artin_census_small():
    count, fraction = survey.artin_census(2)
    assert (count, fraction) == (1, 0.5)


def test_artin_census_pinned_across_every_sieve_growth_step(monkeypatch):
    # the first 10^4 primes reach 104,729, so from no sieve the census grows
    # the kept table through every power of two from 2^10 to 2^17
    monkeypatch.setattr(numtheory, "_SIEVE", None)
    assert survey.artin_census(10**4) == (3750, 0.375)
    assert len(numtheory._SIEVE[0]) == 2**17


def test_artin_census_desk_scale():
    count, fraction = survey.artin_census(10**4)
    assert abs(fraction - 0.3739558) < 0.02
    assert count == round(fraction * 10**4)
