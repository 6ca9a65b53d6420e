"""Enumeration geometry, sharding, sampling, vertex filtering."""

import hashlib

import numpy as np
import pytest

from monodom.core import Colour, ColouredTournament
from monodom.enumeration import (
    INDEX_LIMIT,
    SAMPLE_BLOCK_ROWS,
    BudgetExceededError,
    EnumerationSpec,
    enumerate_instances,
    index_to_codes,
    instance_at,
    pattern_pinned_codes,
    philox_digits,
    sample_block,
    sample_codes,
    shard_indices,
)
from monodom.kernel import two_colour_vertices_mask

RB = (Colour.RED, Colour.BLUE)
RGB = (Colour.RED, Colour.GREEN, Colour.BLUE)


def test_space_sizes():
    assert EnumerationSpec(n=3).space == 216
    assert EnumerationSpec(n=4).space == 46656
    assert EnumerationSpec(n=3, colours=2).space == 64
    assert EnumerationSpec(n=1).space == 1


def test_index_round_trip():
    spec = EnumerationSpec(n=4)
    for index in (0, 1, 6, 46655, 12345):
        codes = index_to_codes(spec, index)
        assert sum(c * 6**s for s, c in enumerate(codes)) == index
    # least significant digit sits in slot 0
    assert index_to_codes(spec, 1)[0] == 1
    assert index_to_codes(spec, 6)[1] == 1


def test_instance_at_matches_codes():
    spec = EnumerationSpec(n=3)
    t = instance_at(spec, 26)
    assert t.to_codes() == list(index_to_codes(spec, 26))


def test_enumeration_is_exhaustive_and_distinct():
    spec = EnumerationSpec(n=3)
    seen = set()
    for index, t in enumerate_instances(spec):
        seen.add(tuple(t.to_codes()))
    assert len(seen) == 216


def test_shards_partition_the_space():
    spec = EnumerationSpec(n=3)
    full = list(shard_indices(spec))
    pieces = []
    for k in range(4):
        pieces.extend(shard_indices(EnumerationSpec(n=3, shard=(k, 4))))
    assert sorted(pieces) == full
    assert len(full) == 216


def test_shard_size():
    assert EnumerationSpec(n=3, shard=(0, 4)).shard_size() == 54
    assert EnumerationSpec(n=3, shard=(3, 5)).shard_size() == 43
    total = sum(EnumerationSpec(n=3, shard=(k, 5)).shard_size() for k in range(5))
    assert total == 216


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumerationSpec(n=0)
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, colours=4)
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, mode="all")
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, filter="odd")
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, shard=(4, 4))
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, mode="sampled")  # needs samples
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, samples=5)  # samples outside sampled mode
    with pytest.raises(ValueError, match="unknown mode 'canonical'"):
        EnumerationSpec(n=7, mode="canonical")
    with pytest.raises(ValueError):
        EnumerationSpec(n=3, colours=2, pattern=RGB)  # green outside palette
    with pytest.raises(ValueError):
        EnumerationSpec(n=4, pattern=RGB)  # period does not divide order
    with pytest.raises(ValueError, match="at least one colour"):
        EnumerationSpec(n=6, pattern=())
    # a Hamilton cycle needs 3 vertices: at n=2 the closing arc would
    # overwrite the pinned arc 0 -> 1
    for n, pattern in ((1, (Colour.RED,)), (2, RB)):
        with pytest.raises(ValueError, match="order >= 3"):
            EnumerationSpec(n=n, pattern=pattern)


def test_word_width_limit():
    EnumerationSpec(n=21, mode="sampled", samples=1)
    EnumerationSpec(n=32, colours=2, mode="sampled", samples=1)
    with pytest.raises(ValueError, match=r"colours \* order <= 64 \(order <= 21"):
        EnumerationSpec(n=22, mode="sampled", samples=1)
    with pytest.raises(ValueError, match=r"colours \* order <= 64 \(order <= 32"):
        EnumerationSpec(n=33, colours=2, mode="sampled", samples=1)


def test_seed_range():
    EnumerationSpec(n=3, mode="sampled", samples=1, seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be in"):
            EnumerationSpec(n=3, mode="sampled", samples=1, seed=seed)


def test_budget_guard():
    with pytest.raises(BudgetExceededError, match="use sampled mode"):
        EnumerationSpec(n=12)
    # sampled mode ignores the space budget
    EnumerationSpec(n=12, mode="sampled", samples=10)
    # raising the budget admits the space
    EnumerationSpec(n=5, budget=6**10)


def test_index_limit():
    # indices stay below 2**63: the largest accepted spaces, and the first
    # refused ones once the budget no longer stops them
    assert INDEX_LIMIT == 2**63
    assert EnumerationSpec(n=7, budget=6**21).space == 6**21
    assert EnumerationSpec(n=8, colours=2, budget=4**28).space == 2**56
    EnumerationSpec(n=5, mode="sampled", samples=2**63)
    for kwargs in (
        dict(n=8, budget=10**30),
        dict(n=8, budget=10**30, shard=(5, 10**20)),
        dict(n=8, budget=10**30, shard=(2**63 + 1, 2**64)),
        dict(n=9, colours=2, budget=4**36),
        dict(n=5, mode="sampled", samples=2**63 + 1),
    ):
        with pytest.raises(ValueError, match=r"exceeds the campaign index limit 2\*\*63"):
            EnumerationSpec(**kwargs)
    # a shard modulus past the space leaves at most one index per shard
    spec = EnumerationSpec(n=7, budget=6**21, shard=(6**21 - 1, 2**70))
    assert spec.shard_size() == 1
    assert EnumerationSpec(n=7, budget=6**21, shard=(6**21, 2**70)).shard_size() == 0


def test_pattern_pinning_rb_order4():
    spec = EnumerationSpec(n=4, pattern=RB)
    assert spec.space == 36
    for _, t in enumerate_instances(spec):
        assert t.arc_colour(0, 1) is Colour.RED
        assert t.arc_colour(1, 2) is Colour.BLUE
        assert t.arc_colour(2, 3) is Colour.RED
        assert t.arc_colour(3, 0) is Colour.BLUE


def test_pattern_pinned_codes_two_colour_palette():
    pinned = pattern_pinned_codes(4, RB, colours=2)
    # closing arc 3 -> 0 runs against slot orientation: reversed-blue is 2+1
    assert pinned[2] == 3
    spec2 = EnumerationSpec(n=4, colours=2, pattern=RB)
    assert spec2.space == 4 ** 2
    for _, t in enumerate_instances(spec2):
        assert t.arc_colour(3, 0) is Colour.BLUE


def test_pattern_spec_echo():
    d = EnumerationSpec(n=6, pattern=RGB).to_dict()
    assert d["pattern"] == "rgb"
    assert "samples" not in d and "seed" not in d
    d2 = EnumerationSpec(n=6, mode="sampled", samples=10, seed=3).to_dict()
    assert d2["samples"] == 10 and d2["seed"] == 3


def test_sampled_stream_deterministic():
    spec = EnumerationSpec(n=5, mode="sampled", samples=50, seed=11)
    a = [t.to_codes() for _, t in enumerate_instances(spec)]
    b = [t.to_codes() for _, t in enumerate_instances(spec)]
    assert a == b
    other = EnumerationSpec(n=5, mode="sampled", samples=50, seed=12)
    c = [t.to_codes() for _, t in enumerate_instances(other)]
    assert a != c


def test_sampled_shards_slice_one_stream():
    base = EnumerationSpec(n=4, mode="sampled", samples=40, seed=5)
    whole = dict(
        (i, t.to_codes()) for i, t in enumerate_instances(base)
    )
    sharded = {}
    for k in range(3):
        spec = EnumerationSpec(n=4, mode="sampled", samples=40, seed=5, shard=(k, 3))
        for i, t in enumerate_instances(spec):
            sharded[i] = t.to_codes()
    assert sharded == whole


def test_sample_block_geometry():
    spec = EnumerationSpec(n=4, mode="sampled", samples=10, seed=0)
    block = sample_block(spec, 0)
    assert block.shape == (SAMPLE_BLOCK_ROWS, 6)
    assert block.dtype == np.uint8
    assert block.max() < 6
    # block indexing is stable: row r of block b is sample b*65536 + r
    assert tuple(block[7]) == sample_codes(spec, 7)
    again = sample_block(spec, 0)
    assert (block == again).all()


# SHA-256 of sample_block(spec(n, seed), block).tobytes(): seeds below 2**63
# pin the streams campaigns have always drawn; the last two pin the upper half
SAMPLE_BLOCK_DIGESTS = [
    (5, 0, 0, "b15f693a6a35de86fb3460e91fb01cede2e20009cc5105a81800cd0816c26edf"),
    (5, 5, 3, "406fb069c38f92f5db6cbcd49bc1ed91496af63936cd324ca3a3b71ff16a6cb6"),
    (9, 39892, 0, "3c78d6fe82c52b92491cc4387c4a1bc5b395480ee4e1ae51c1c7ccc6c3a2acdb"),
    (4, 2**53 + 1, 1, "28bf188858776818cff4cef81c8e651b97930cf783088e04e46cad8c16962b2f"),
    (6, 2**63 - 1, 0, "4a4da07d41b07e8d74be82c6457afee86abdf4d664334fa2180a345fa13e344f"),
    (3, 2**63 + 5, 0, "fff03e732b7f530febfe232d676bf84291f15f2a67c27b938feb63b15b7e1e75"),
    (3, 2**64 - 1, 0, "4f87859c022256440b3eca618bea95d9ba84f889be16a1092e2a2de70f43785d"),
]


@pytest.mark.parametrize("n, seed, block, digest", SAMPLE_BLOCK_DIGESTS)
def test_sample_block_golden_digests(n, seed, block, digest):
    spec = EnumerationSpec(n=n, mode="sampled", samples=1, seed=seed)
    assert hashlib.sha256(sample_block(spec, block).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", [0, 1, 7, 39892, 2**53 + 1, 2**63, 2**64 - 1])
def test_short_philox_draw_is_a_block_prefix(seed):
    # gen draws one row; it must be row 0 of the block campaigns sample from
    for base in (4, 6):
        for width in (0, 1, 3, 10, 36, 210):
            block = philox_digits(seed, base, width, 0, SAMPLE_BLOCK_ROWS)
            one = philox_digits(seed, base, width, 0, 1)
            assert one.shape == (1, width)
            assert (one[0] == block[0]).all()


def test_distinct_seeds_draw_distinct_streams():
    def head(seed):
        spec = EnumerationSpec(n=3, mode="sampled", samples=1, seed=seed)
        return sample_block(spec, 0)[:64].tobytes()

    assert head(2**63) != head(2**63 + 5)
    assert len({head(0), head(2**64 - 1), head(2**63)}) == 3


def test_sample_codes_cross_block_boundary():
    spec = EnumerationSpec(
        n=3, mode="sampled", samples=SAMPLE_BLOCK_ROWS + 5, seed=9
    )
    i = SAMPLE_BLOCK_ROWS + 3
    codes = sample_codes(spec, i)
    assert codes == tuple(sample_block(spec, 1)[3])


def test_sampled_respects_pattern():
    spec = EnumerationSpec(n=6, mode="sampled", samples=30, seed=2, pattern=RGB)
    for _, t in enumerate_instances(spec):
        assert t.arc_colour(0, 1) is Colour.RED
        assert t.arc_colour(1, 2) is Colour.GREEN
        assert t.arc_colour(5, 0) is Colour.BLUE


def test_filter_two_colour_vertices():
    t_bad = ColouredTournament.from_arcs(
        4,
        {(0, 1): Colour.RED, (0, 2): Colour.BLUE, (0, 3): Colour.GREEN,
         (1, 2): Colour.RED, (1, 3): Colour.RED, (2, 3): Colour.RED},
    )
    t_ok = ColouredTournament.from_codes(4, [0] * 6)
    codes = np.array([t_bad.to_codes(), t_ok.to_codes()], dtype=np.uint8)
    assert two_colour_vertices_mask(codes, 4).tolist() == [False, True]
