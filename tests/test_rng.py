import pytest

from ringgraphs import rng

from oracles import shuffled_range, shuffled_top

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def unxorshift(y: int, k: int) -> int:
    """The z with z ^ (z >> k) == y."""
    z = y
    for _ in range(64 // k + 1):
        z = y ^ (z >> k)
    return z


def unmix(value: int) -> int:
    """The splitmix64 state whose output is value: the output mix undone."""
    z = unxorshift(value, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unxorshift(z, 30)


def seed_with_top_draw(t: int) -> int:
    """A seed whose t-th splitmix64 draw is 2^64 - 1, which next_below
    rejects for every bound that is not a power of two."""
    return (unmix(MASK) - t * GOLDEN) & MASK


@pytest.mark.parametrize("seed", [0, 1, 5, 2**63 + 12345, MASK, -3])
def test_shuffle_matches_the_one_draw_at_a_time_oracle(seed):
    for n in list(range(70)) + [1000, 4097]:
        assert rng.shuffled_range(n, seed).tolist() == shuffled_range(n, seed), n


def test_shuffle_across_draw_chunks(monkeypatch):
    monkeypatch.setattr(rng, "_DRAW_CHUNK", 7)
    for seed in (0, 9):
        for n in (2, 7, 8, 9, 15, 100):
            assert rng.shuffled_range(n, seed).tolist() == shuffled_range(n, seed), n


@pytest.mark.parametrize("t", [1, 2, 7, 8, 9, 40])
def test_shuffle_redraws_a_rejected_draw(monkeypatch, t):
    # the draw at counter t is rejected, at the start, middle and end of a
    # 7-draw chunk and at the real chunk size, so the step falls back to
    # SeedStream and the rest of the stream shifts by one
    seed = seed_with_top_draw(t)
    stream = rng.SeedStream(seed)
    assert [stream.next_u64() for _ in range(t)][-1] == MASK
    n = 101  # bound 101 - t + 1 is no power of two at any t here
    want = shuffled_range(n, seed)
    assert rng.shuffled_range(n, seed).tolist() == want
    monkeypatch.setattr(rng, "_DRAW_CHUNK", 7)
    assert rng.shuffled_range(n, seed).tolist() == want


def test_shuffle_top_across_the_real_draw_chunk():
    # the oracle's sparse route to the top positions, which the at-cap perm
    # table is checked against, over more steps than one draw chunk
    n, count = 70001, rng._DRAW_CHUNK + 64
    for seed in (7, 2**64 - 1):
        want = shuffled_top(n, seed, count)
        assert rng.shuffled_range(n, seed)[n - count :].tolist() == want
        assert shuffled_range(n, seed)[n - count :] == want
