"""Batch kernel vs the one-instance engine: every mask, both colour counts."""

import random

import numpy as np
import pytest

from monodom.auditor import genhamilton_check
from monodom.core import Colour, ColouredTournament, pair_slots, parse
from monodom.domination import (
    at_most_two_everywhere,
    domination_relation,
    dominating_vertices,
    find_rainbow_triangle,
    min_cover,
)
from monodom.enumeration import (
    SAMPLE_BLOCK_ROWS,
    EnumerationSpec,
    enumerate_instances,
    index_to_codes,
    sample_block,
)
from monodom.kernel import (
    Workspace,
    any_reach,
    batch_codes,
    closure_rows,
    cover_order_tiers,
    decode_rows,
    dominating_vertex_mask,
    qualifying_cycle_mask,
    rainbow_triangle_mask,
    take_rows,
    two_colour_vertices_mask,
)


RB = (Colour.RED, Colour.BLUE)
RGB = (Colour.RED, Colour.GREEN, Colour.BLUE)


def random_codes(rng, rows, n, colours=3):
    pairs = n * (n - 1) // 2
    return np.array(
        [[rng.randrange(2 * colours) for _ in range(pairs)] for _ in range(rows)],
        dtype=np.uint8,
    )


def test_batch_codes_match_enumeration_stream():
    for colours in (2, 3):
        for n in (2, 3, 4):
            spec = EnumerationSpec(n=n, colours=colours)
            rows = batch_codes(spec, 0, min(spec.space, 500))
            for (index, t), row in zip(enumerate_instances(spec), rows):
                assert list(row) == t.to_codes(colours)


def test_batch_codes_sharded_and_offset():
    spec = EnumerationSpec(n=4, shard=(2, 5))
    rows = batch_codes(spec, 3, 7)
    indices = list(range(2, 46656, 5))[3:10]
    for row, gi in zip(rows, indices):
        assert tuple(row) == index_to_codes(spec, gi)


def _assert_rows_match_indices(spec, start, size):
    k, m = spec.shard
    rows = batch_codes(spec, start, size)
    assert rows.shape == (size, len(pair_slots(spec.n)))
    for offset, row in enumerate(rows):
        assert tuple(row) == index_to_codes(spec, k + (start + offset) * m)


# (colours, order, pattern): free-slot counts 3, 6, 9 (pinned order 6) and
# 15, at base 4 and base 6; budgets raised where the space needs it
TABLE_SPECS = [
    (colours, n, pattern)
    for colours in (2, 3)
    for n, pattern in ((3, None), (4, None), (6, RB), (6, None))
]


@pytest.mark.parametrize("colours,n,pattern", TABLE_SPECS)
def test_batch_codes_table_matches_index_to_codes(colours, n, pattern):
    spec = EnumerationSpec(n=n, colours=colours, pattern=pattern, budget=6**15)
    base, free = spec.base, len(spec.free_slots)
    assert free in (3, 6, 9, 15)
    _assert_rows_match_indices(spec, 0, min(spec.space, 2000))
    _assert_rows_match_indices(spec, spec.space - 50, 50)
    # batches and single rows around each digit-run boundary: multiples of
    # base**5 and base**10
    for run_size in (base**5, base**10):
        for j in range(1, 4):
            edge = j * run_size
            if edge >= spec.space:
                break
            _assert_rows_match_indices(spec, edge - 3, 6)
            for p in (edge - 1, edge, edge + 1):
                _assert_rows_match_indices(spec, p, 1)


def test_batch_codes_table_at_large_indices():
    top = 6**21  # the order-7 space, accepted once the budget is raised
    spec = EnumerationSpec(n=7, budget=top)
    _assert_rows_match_indices(spec, top - 1000, 1000)
    # shards whose moduli reach or pass the space
    for k, m in ((7, 6**20 + 1), (3, top // 2), (top - 1, top), (top - 2, 2**64 + 3),
                 (12345, 10**30)):
        sharded = EnumerationSpec(n=7, budget=top, shard=(k, m))
        size = sharded.shard_size()
        assert 1 <= size <= 6
        _assert_rows_match_indices(sharded, 0, size)
    # a pinned order-6 space with a large modulus crossing run boundaries
    pinned = EnumerationSpec(n=6, pattern=RGB, shard=(4, 6**5 - 1))
    _assert_rows_match_indices(pinned, 0, pinned.shard_size())


def test_batch_codes_sampled_matches_sample_stream():
    spec = EnumerationSpec(n=5, mode="sampled", samples=1000, seed=77)
    rows = batch_codes(spec, 100, 400)
    stream = dict(
        (i, t.to_codes()) for i, t in enumerate_instances(spec)
    )
    for offset, row in enumerate(rows):
        assert list(row) == stream[100 + offset]


def test_batch_codes_sampled_pattern_pins_columns():
    spec = EnumerationSpec(
        n=6, mode="sampled", samples=200, seed=1,
        pattern=(Colour.RED, Colour.GREEN, Colour.BLUE),
    )
    rows = batch_codes(spec, 0, 200)
    for i, t in enumerate_instances(spec):
        assert list(rows[i]) == t.to_codes()


SAMPLED_SHARDS = [
    # (order, pattern, shard); a modulus of 65536 keeps one row offset in
    # every block, and 70001 leaves at most one row per block
    (4, None, (0, 1)),
    (4, None, (2, 3)),
    (4, None, (6, 7)),
    (4, None, (100, 65536)),
    (4, None, (5, 70001)),
    (6, (Colour.RED, Colour.GREEN, Colour.BLUE), (1, 3)),
]


@pytest.mark.parametrize("n,pattern,shard", SAMPLED_SHARDS)
def test_batch_codes_sampled_slices_blocks(n, pattern, shard):
    """Sampled batches equal the sample_block rows of the same global
    indices, for batches starting mid-block, crossing block boundaries and
    holding one row."""
    spec = EnumerationSpec(n=n, mode="sampled", samples=4 * SAMPLE_BLOCK_ROWS + 123,
                           seed=29, pattern=pattern, shard=shard)
    k, m = shard
    size = spec.shard_size()
    stream = np.concatenate([sample_block(spec, b) for b in range(5)])
    ref = np.empty((size, len(pair_slots(n))), dtype=np.uint8)
    ref[:, spec.free_slots] = stream[k::m][:size]
    for s, code in spec.pinned.items():
        ref[:, s] = code
    assert np.array_equal(batch_codes(spec, 0, size), ref)
    step = 40000  # batches of 40000 rows start mid-block and cross boundaries
    for start in range(0, size, step):
        got = batch_codes(spec, start, min(step, size - start))
        assert np.array_equal(got, ref[start : start + step])
    # one-row batches on both sides of every block boundary
    for b in range(1, 5):
        first = -(-(b * SAMPLE_BLOCK_ROWS - k) // m)  # first position in block b
        for p in (first - 1, first, first + 1):
            if 0 <= p < size:
                assert np.array_equal(batch_codes(spec, p, 1), ref[p : p + 1])


def test_closure_rows_matches_bfs_oracle():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randrange(2, 9)
        colours = rng.choice((2, 3))
        # random digraph bit-rows per colour plane, not necessarily tournaments
        planes = [[rng.randrange(1 << n) & ~(1 << i) for i in range(n)]
                  for _ in range(colours)]
        words = [sum(planes[c][x] << (c * n) for c in range(colours)) for x in range(n)]
        adj = np.array(words, dtype=np.uint32).reshape(1, n)
        reach = closure_rows(adj, n, colours)[0]
        for c, plane in enumerate(planes):
            for src in range(n):
                seen, frontier = set(), [src]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for y in range(n):
                            if plane[x] >> y & 1 and y not in seen:
                                seen.add(y)
                                nxt.append(y)
                    frontier = nxt
                got = int(reach[src]) >> (c * n) & ((1 << n) - 1)
                assert got == sum(1 << y for y in seen)


def test_any_reach_matches_engine_at_word_edges():
    # orders on both sides of the uint32/uint64 switch and at the word limit
    rng = random.Random(55)
    edges = [(3, n) for n in (1, 2, 3, 5, 6, 10, 11, 21)]
    edges += [(2, n) for n in (16, 17, 32)]
    for colours, n in edges:
        codes = random_codes(rng, 12, n, colours)
        reach = any_reach(codes, n, colours)
        assert reach.dtype == (np.uint32 if colours * n <= 32 else np.uint64)
        for r, row in enumerate(codes):
            rel = domination_relation(ColouredTournament.from_codes(n, list(row), colours))
            assert [int(x) for x in reach[r]] == list(rel.any_rows)


def test_kernel_refuses_words_past_64_bits():
    with pytest.raises(ValueError, match="64-bit word"):
        decode_rows(np.zeros((1, 231), dtype=np.uint8), 22, 3)


def test_reach_matches_engine_relation():
    rng = random.Random(202)
    for colours in (2, 3):
        for n in range(2, 9):
            codes = random_codes(rng, 60, n, colours)
            reach = closure_rows(decode_rows(codes, n, colours), n, colours)
            for r, row in enumerate(codes):
                t = ColouredTournament.from_codes(n, list(row), colours)
                rel = domination_relation(t)
                for c in range(colours):
                    got = [int(reach[r, x]) >> (c * n) & ((1 << n) - 1) for x in range(n)]
                    assert got == list(rel.rows[c])


def test_masks_match_engine_seeded():
    rng = random.Random(303)
    for colours in (2, 3):
        for n in range(3, 9):
            codes = random_codes(rng, 80, n, colours)
            reach = any_reach(codes, n, colours)
            dom = dominating_vertex_mask(reach, n)
            qual = qualifying_cycle_mask(reach, n)
            tri_cyc = rainbow_triangle_mask(codes, n, colours)
            tri_any = rainbow_triangle_mask(codes, n, colours, require_cyclic=False)
            two = two_colour_vertices_mask(codes, n, colours)
            for r, row in enumerate(codes):
                t = ColouredTournament.from_codes(n, list(row), colours)
                assert bool(dom[r]) == bool(dominating_vertices(t))
                assert bool(qual[r]) == genhamilton_check(t).holds
                assert bool(tri_cyc[r]) == (find_rainbow_triangle(t) is not None)
                assert bool(tri_any[r]) == (
                    find_rainbow_triangle(t, require_cyclic=False) is not None
                )
                assert bool(two[r]) == at_most_two_everywhere(t)


# every vertex of MISS_ONE misses exactly one vertex (0, 2 or 4), and 1, 3
# and 5 each lie on a red cycle
MISS_ONE = parse("6\n.r..g.\n..br..\nb..r..\ng...br\n.gr..r\nbrb...\n")


def blow_up(base, owner, filler):
    """Codes of the instance in which vertex i plays base vertex owner[i];
    pairs with the same owner take their code from filler."""
    codes = []
    for s, (i, j) in enumerate(pair_slots(len(owner))):
        a, b = owner[i], owner[j]
        if a == b:
            codes.append(int(filler[s]))
        elif base.beats(a, b):
            codes.append(int(base.arc_colour(a, b)))
        else:
            codes.append(3 + int(base.arc_colour(b, a)))
    return codes


def test_qualifying_mask_matches_engine_past_order_12():
    """Rows that get past the singleton screen at orders 13-21: blowing up
    1, 3 and 5 of MISS_ONE keeps every vertex missing exactly one vertex,
    whatever the sampled arcs inside each blown-up vertex are."""
    for n in range(13, 22):
        owner = list(range(6)) + [(1, 3, 5)[i % 3] for i in range(n - 6)]
        spec = EnumerationSpec(n=n, mode="sampled", samples=20, seed=n)
        sampled = batch_codes(spec, 0, 20)
        codes = np.vstack([sampled, [blow_up(MISS_ONE, owner, row) for row in sampled]])
        qual = qualifying_cycle_mask(any_reach(codes, n), n)
        reasons = set()
        for r, row in enumerate(codes):
            gh = genhamilton_check(ColouredTournament.from_codes(n, list(row)))
            assert bool(qual[r]) == gh.holds
            if r >= len(sampled):
                reasons.add(gh.diagnosis["reason"])
        assert reasons == {"predecessor_map_splits"}


def test_rainbow_table_exhaustive_n3():
    """All 216 instances on 3 vertices hit each entry of the T_3 table once."""
    spec = EnumerationSpec(n=3)
    codes = batch_codes(spec, 0, 216)
    entries = (codes[:, 0].astype(int) * 6 + codes[:, 1]) * 6 + codes[:, 2]
    assert sorted(entries) == list(range(216))
    masks = {cyclic: rainbow_triangle_mask(codes, 3, require_cyclic=cyclic)
             for cyclic in (True, False)}
    assert int(masks[True].sum()) == 12 and int(masks[False].sum()) == 48
    qual = qualifying_cycle_mask(any_reach(codes, 3), 3)
    for r, row in enumerate(codes):
        t = ColouredTournament.from_codes(3, list(row))
        for cyclic, mask in masks.items():
            assert bool(mask[r]) == (find_rainbow_triangle(t, require_cyclic=cyclic) is not None)
        assert bool(qual[r]) == genhamilton_check(t).holds


def test_qualifying_mask_counts_n3_n4():
    spec3 = EnumerationSpec(n=3)
    codes3 = batch_codes(spec3, 0, 216)
    qual3 = qualifying_cycle_mask(any_reach(codes3, 3), 3)
    assert int(qual3.sum()) == 12
    spec4 = EnumerationSpec(n=4)
    codes4 = batch_codes(spec4, 0, 46656)
    qual4 = qualifying_cycle_mask(any_reach(codes4, 4), 4)
    assert int(qual4.sum()) == 0


def test_cover_tiers_match_min_cover():
    rng = random.Random(404)
    for n in range(2, 7):
        codes = random_codes(rng, 120, n)
        reach = any_reach(codes, n)
        tiers = cover_order_tiers(reach, n, k_max=3)
        for r, row in enumerate(codes):
            t = ColouredTournament.from_codes(n, list(row))
            cover = min_cover(t, k_max=3)
            if tiers[r] == 0:
                assert cover is None or cover.order > 3
            else:
                assert cover is not None and cover.order == int(tiers[r])


def test_rainbow_mask_requires_three_colours():
    rng = random.Random(9)
    codes = random_codes(rng, 200, 5, colours=2)
    assert not rainbow_triangle_mask(codes, 5, colours=2).any()
    assert not rainbow_triangle_mask(codes, 5, colours=2, require_cyclic=False).any()


# (colours, order): both sides of the uint32/uint64 switch and the word limit
WORD_EDGES = [(3, n) for n in (3, 5, 6, 10, 11, 21)] + [(2, n) for n in (16, 17, 32)]


def kernel_calls(codes, n, colours, ws=None):
    """Every batch kernel on one code batch, as name -> result; the reach
    words each mask reads are copied out, since with a workspace they live
    in a buffer the next kernel call rewrites."""
    out = {
        "rainbow_triangle_mask": rainbow_triangle_mask(codes, n, colours, True, ws).copy(),
        "rainbow_any": rainbow_triangle_mask(codes, n, colours, False, ws).copy(),
        "two_colour_vertices_mask": two_colour_vertices_mask(codes, n, colours, ws).copy(),
        "decode_rows": decode_rows(codes, n, colours, ws).copy(),
        "closure_rows": closure_rows(decode_rows(codes, n, colours, ws), n, colours, ws).copy(),
    }
    out["closure_of_copy"] = closure_rows(out["decode_rows"], n, colours, ws).copy()
    reach = any_reach(codes, n, colours, ws)
    out["any_reach"] = reach.copy()
    out["dominating_vertex_mask"] = dominating_vertex_mask(reach, n, ws).copy()
    out["qualifying_cycle_mask"] = qualifying_cycle_mask(reach, n, ws).copy()
    out["cover_order_tiers"] = cover_order_tiers(reach, n, 3, ws).copy()
    rows = np.flatnonzero(out["rainbow_triangle_mask"] | (np.arange(len(codes)) % 3 == 0))
    picked = take_rows(codes, rows, ws)
    out["take_rows"] = picked.copy()
    out["take_rows_again"] = take_rows(picked, np.arange(0, len(rows), 2), ws).copy()
    out["take_rows_first"] = picked.copy()  # the first selection survives the second
    return out


@pytest.mark.parametrize("colours,n", WORD_EDGES)
def test_workspace_reuse_matches_fresh_calls(colours, n):
    """One workspace fed batches that grow, shrink and grow again gives
    every kernel the result of the same call without a workspace."""
    specs = [EnumerationSpec(n=n, colours=colours, mode="sampled", samples=4000, seed=n)]
    if n <= 5:
        specs.append(EnumerationSpec(n=n, colours=colours, shard=(0, 1) if n == 3 else (2, 7)))
    ws = Workspace()
    for spec in specs:
        for start, size in ((0, 100), (100, 17), (117, 1), (0, 216), (150, 64)):
            codes = batch_codes(spec, start, size, ws)
            assert np.array_equal(codes, batch_codes(spec, start, size))
            fresh = kernel_calls(batch_codes(spec, start, size), n, colours)
            reused = kernel_calls(codes, n, colours, ws)
            for name, want in fresh.items():
                got = reused[name]
                assert got.shape == want.shape and np.array_equal(got, want), (name, size)


def readonly(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


def test_kernels_without_workspace_stay_pure():
    """Without a workspace every kernel accepts read-only inputs, leaves
    them unchanged and returns fresh memory on every call."""
    rng = random.Random(17)
    for colours, n in ((3, 6), (2, 17)):
        codes = readonly(random_codes(rng, 50, n, colours))
        adj = readonly(decode_rows(codes, n, colours))
        reach = readonly(any_reach(codes, n, colours))
        rows = readonly(np.arange(0, 50, 3))
        spec = EnumerationSpec(n=n, colours=colours, mode="sampled", samples=100, seed=3)
        calls = {
            "batch_codes": lambda: batch_codes(spec, 10, 40),
            "take_rows": lambda: take_rows(codes, rows),
            "rainbow_triangle_mask": lambda: rainbow_triangle_mask(codes, n, colours),
            "decode_rows": lambda: decode_rows(codes, n, colours),
            "closure_rows": lambda: closure_rows(adj, n, colours),
            "any_reach": lambda: any_reach(codes, n, colours),
            "dominating_vertex_mask": lambda: dominating_vertex_mask(reach, n),
            "qualifying_cycle_mask": lambda: qualifying_cycle_mask(reach, n),
            "cover_order_tiers": lambda: cover_order_tiers(reach, n),
            "two_colour_vertices_mask": lambda: two_colour_vertices_mask(codes, n, colours),
        }
        inputs = [a.copy() for a in (codes, adj, reach, rows)]
        for name, call in calls.items():
            first, second = call(), call()
            assert np.array_equal(first, second), name
            assert not np.shares_memory(first, second), name
            for array in (codes, adj, reach, rows):
                assert not np.shares_memory(first, array), name
        for before, after in zip(inputs, (codes, adj, reach, rows)):
            assert np.array_equal(before, after)
