"""Batch kernel vs the one-instance engine: every mask, both colour counts."""

import random
from dataclasses import replace
from itertools import combinations, permutations
from math import gcd

import numpy as np
import pytest

from monodom import kernel
from monodom.auditor import genhamilton_check
from monodom.core import Colour, ColouredTournament, pair_slots, parse, slot_index
from monodom.domination import (
    DominationRelation,
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


def test_batch_codes_exhaustive_refuses_positions_outside_the_shard():
    spec = EnumerationSpec(n=3)  # 216 positions
    for start, size in ((215, 3), (216, 1), (-2, 1), (0, 217), (0, -1)):
        with pytest.raises(ValueError, match="shard of 216 positions"):
            batch_codes(spec, start, size)
    assert batch_codes(spec, 216, 0).shape == (0, 3)
    sharded = EnumerationSpec(n=3, shard=(5, 100))  # indices 5, 105, 205
    with pytest.raises(ValueError, match="shard of 3 positions"):
        batch_codes(sharded, 2, 2)
    assert [tuple(row) for row in batch_codes(sharded, 2, 1)] == [index_to_codes(sharded, 205)]


def test_batch_codes_sampled_refuses_positions_outside_the_shard():
    spec = EnumerationSpec(n=4, mode="sampled", samples=10, seed=1)
    for start, size in ((8, 5), (10, 1), (-1, 2)):
        with pytest.raises(ValueError, match="shard of 10 positions"):
            batch_codes(spec, start, size)
    assert batch_codes(spec, 10, 0).shape == (0, 6)
    sharded = EnumerationSpec(n=4, mode="sampled", samples=10, seed=1, shard=(1, 3))
    with pytest.raises(ValueError, match="shard of 3 positions"):  # rows 1, 4, 7
        batch_codes(sharded, 2, 2)


def _mirror_codes(spec, start, size):
    """index_to_codes of every row, vectorized: free slot j holds digit j of
    the index, x // base**j % base."""
    k, m = spec.shard
    index = np.uint64(k) + np.uint64(m) * (start + np.arange(size, dtype=np.uint64))
    codes = np.zeros((size, len(pair_slots(spec.n))), dtype=np.uint8)
    for s, code in spec.pinned.items():
        codes[:, s] = code
    for j, s in enumerate(spec.free_slots):
        codes[:, s] = index // np.uint64(spec.base**j) % np.uint64(spec.base)
    return codes


# Exhaustive spaces with runs of place value 1, base**5 and, for 15 free
# slots, base**10.  Each modulus list straddles both higher place values and
# a quarter of them (kernel.STRETCH_ROWS), so the runs above the lowest are
# repeated over stretches (4 * m <= place) or gathered row by row, and
# 7776 = 6**5 leaves a one-column tile
RUN_CASES = [
    (EnumerationSpec(n=6, budget=6**15),
     (1, 2, 3, 36, 229, 1296, 1943, 1944, 1945, 7775, 7776, 7777,
      6**10 // 4, 6**10 // 4 + 1, 6**10 - 1, 6**10 + 1)),
    (EnumerationSpec(n=6, colours=2, budget=4**15),
     (1, 3, 229, 255, 256, 257, 1023, 1024, 1025, 4**10 - 1, 4**10 + 1)),
    (EnumerationSpec(n=6, pattern=RGB), (1, 2, 229, 1296, 1944, 1945, 7775, 7776, 7777)),
]


@pytest.mark.parametrize("spec,moduli", RUN_CASES, ids=["n6", "n6-two-colour", "n6-pinned"])
def test_batch_codes_exhaustive_run_cases(spec, moduli):
    """Batches of 0, 1, 63 and 2^15 rows from mid-shard and at the last rows
    of the space match index_to_codes: row by row for the small batches, and
    through a vectorized mirror of it, itself checked on every 97th row, for
    the large ones.  One workspace serves each shard's batches, so its tile
    is built, rebuilt as the batches grow, and reused."""
    radix = spec.base ** min(kernel.DIGIT_RUN, len(spec.free_slots))
    for m in moduli:
        sharded = replace(spec, shard=(m // 3, m))
        positions = sharded.shard_size()
        period = radix // gcd(m, radix)
        ws = Workspace()
        for size in (0, 1, 63, 2**15, 63):
            if size > positions:
                continue
            last = positions - size
            for start in sorted({min(positions // 2 + period // 2 + 1, last), last}):
                got = batch_codes(sharded, start, size, ws)
                if size <= 63:
                    want = [index_to_codes(sharded, m // 3 + (start + p) * m) for p in range(size)]
                    assert [tuple(row) for row in got] == want, (m, start, size)
                else:
                    want = _mirror_codes(sharded, start, size)
                    for p in range(0, size, 97):
                        assert tuple(want[p]) == index_to_codes(sharded, m // 3 + (start + p) * m)
                    assert np.array_equal(got, want), (m, start, size)


def test_short_exhaustive_calls_gather_the_lowest_run():
    """A call shorter than the lowest run's period gathers that run with
    place value 1 and builds no digit tile; a full batch builds it."""
    spec = EnumerationSpec(n=5, shard=(17, 229))  # period 6**5: 229 is prime to 6
    ws = Workspace()
    for start, size in ((1000, 1), (5000, 63), (spec.shard_size() - 63, 63)):
        got = batch_codes(spec, start, size, ws)
        assert ws.tile is None
        want = [index_to_codes(spec, spec.index(start + p)) for p in range(size)]
        assert [tuple(row) for row in got] == want
    got = batch_codes(spec, 7000, 2**15, ws)
    assert ws.tile is not None
    for p in range(0, 2**15, 997):
        assert tuple(got[p]) == index_to_codes(spec, spec.index(7000 + p))


def to_planes(bits):
    """Bit planes of a boolean array whose last axis counts rows: bit r % 64
    of word r // 64."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = -(-bits.shape[-1] // 64)
    pad = [(0, 0)] * (bits.ndim - 1) + [(0, 8 * words - packed.shape[-1])]
    return np.ascontiguousarray(np.pad(packed, pad)).view(np.uint64)


def plane_bits(planes, rows):
    """The first `rows` bits of every plane, as a 0/1 array."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, count=rows, bitorder="little")


def reach_of_words(words, n):
    """A Reach whose word view is `words`, shape (rows, n)."""
    words = np.asarray(words, dtype=np.uint64)
    bits = words.T[:, None, :] >> np.arange(n, dtype=np.uint64)[None, :, None] & 1
    return kernel.Reach(to_planes(bits.astype(bool)), len(words))


def test_closure_rows_matches_bfs_oracle():
    """Random digraphs, not necessarily tournaments, one per colour and row;
    70 rows put the last six in a second plane word."""
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randrange(1, 9)
        colours = rng.choice((2, 3))
        rows = 70
        bits = np.array([[[[rng.random() < 0.3 and i != j for _ in range(rows)]
                           for _ in range(colours)] for j in range(n)] for i in range(n)])
        reach = plane_bits(closure_rows(to_planes(bits), n, colours), rows)
        for r in range(rows):
            for c in range(colours):
                for src in range(n):
                    seen, frontier = set(), [src]
                    while frontier:
                        nxt = []
                        for x in frontier:
                            for y in range(n):
                                if bits[x, y, c, r] and y not in seen:
                                    seen.add(y)
                                    nxt.append(y)
                        frontier = nxt
                    assert {y for y in range(n) if reach[src, y, c, r]} == seen


def test_any_reach_matches_engine_at_word_edges():
    # orders on both sides of 32 colour bits and at the word limit
    rng = random.Random(55)
    edges = [(3, n) for n in (1, 2, 3, 5, 6, 10, 11, 21)]
    edges += [(2, n) for n in (16, 17, 32)]
    for colours, n in edges:
        codes = random_codes(rng, 12, n, colours)
        reach = any_reach(codes, n, colours)
        assert np.asarray(reach).dtype == np.uint64
        for r, row in enumerate(codes):
            rel = domination_relation(ColouredTournament.from_codes(n, list(row), colours))
            assert [int(x) for x in reach[r]] == list(rel.any_rows)


def test_kernel_refuses_words_past_64_bits():
    with pytest.raises(ValueError, match="64-bit word"):
        decode_rows(np.zeros((1, 231), dtype=np.uint8), 22, 3)


def test_kernel_refuses_other_colour_counts():
    for colours in (1, 4):
        with pytest.raises(ValueError, match=f"2 or 3 colours, not {colours}"):
            any_reach(np.zeros((1, 3), dtype=np.uint8), 3, colours)


@pytest.mark.parametrize("colours,code", [
    *((3, code) for code in (6, 7, 8, 255)), *((2, code) for code in (4, 5, 7, 255))])
def test_decode_refuses_codes_out_of_range(colours, code):
    """Decoding reads code bits, so a code of 2 * colours or more would land
    on the planes of valid codes (6 = 0b110 on codes 2 and 4): it raises,
    naming the code, wherever it sits in the batch, through any_reach too.
    A negative code of a signed array is refused the same way."""
    rng = random.Random(code * 10 + colours)
    codes = random_codes(rng, 130, 5, colours)
    for row, slot in ((0, 0), (64, 3), (129, 9)):
        bad = codes.copy()
        bad[row, slot] = code
        for call in (decode_rows, any_reach):
            with pytest.raises(ValueError, match=f"code {code} is not a {colours}-colour code"):
                call(bad, 5, colours, Workspace())
    signed = codes.astype(np.int8)
    signed[7, 2] = -1
    with pytest.raises(ValueError, match="code -1 is not"):
        decode_rows(signed, 5, colours)


def test_reach_matches_engine_relation():
    rng = random.Random(202)
    for colours in (2, 3):
        for n in range(2, 9):
            codes = random_codes(rng, 60, n, colours)
            reach = plane_bits(closure_rows(decode_rows(codes, n, colours), n, colours), 60)
            for r, row in enumerate(codes):
                t = ColouredTournament.from_codes(n, list(row), colours)
                rel = domination_relation(t)
                for c in range(colours):
                    got = [sum(int(b) << y for y, b in enumerate(reach[x, :, c, r]))
                           for x in range(n)]
                    assert got == list(rel.rows[c])


def test_masks_match_engine_seeded():
    rng = random.Random(303)
    for colours in (2, 3):
        for n in range(3, 9):
            codes = random_codes(rng, 80, n, colours)
            reach = any_reach(codes, n, colours)
            dom = dominating_vertex_mask(reach, n)
            qual = qualifying_cycle_mask(reach, n)
            tri = rainbow_triangle_mask(codes, n, colours)
            two = two_colour_vertices_mask(codes, n, colours)
            for r, row in enumerate(codes):
                t = ColouredTournament.from_codes(n, list(row), colours)
                assert bool(dom[r]) == bool(dominating_vertices(t))
                assert bool(qual[r]) == genhamilton_check(t).holds
                assert bool(tri[r]) == (find_rainbow_triangle(t) is not None)
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
    """All 216 instances on 3 vertices: every code triple (a, b, c) of the
    slots (0, 1), (0, 2), (1, 2) once, so the one-hot test of the T_3 mask
    meets every combination of orientations and colours."""
    spec = EnumerationSpec(n=3)
    codes = batch_codes(spec, 0, 216)
    entries = (codes[:, 0].astype(int) * 6 + codes[:, 1]) * 6 + codes[:, 2]
    assert sorted(entries) == list(range(216))
    mask = rainbow_triangle_mask(codes, 3)
    assert int(mask.sum()) == 12
    qual = qualifying_cycle_mask(any_reach(codes, 3), 3)
    for r, row in enumerate(codes):
        t = ColouredTournament.from_codes(3, list(row))
        assert bool(mask[r]) == (find_rainbow_triangle(t) is not None)
        assert bool(qual[r]) == genhamilton_check(t).holds


@pytest.mark.parametrize("colours", (2, 3))
def test_rainbow_mask_exhaustive_n4(colours):
    """Every code row on 4 vertices (46,656 at three colours, 4,096 at
    two): each code, 5 included, whose one-hot byte times 8 wraps to 0,
    plays every role of the half swap (the (i, k) slots (0, 2), (0, 3) and
    (1, 3)) and of the pair and far slots around it."""
    spec = EnumerationSpec(n=4, colours=colours)
    codes = batch_codes(spec, 0, spec.space)
    assert len(np.unique(codes, axis=0)) == (2 * colours) ** 6
    mask = rainbow_triangle_mask(codes, 4, colours)
    want = [find_rainbow_triangle(ColouredTournament.from_codes(4, list(row), colours))
            is not None for row in codes]
    assert mask.tolist() == want
    assert mask.any() == (colours == 3)


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
    """The tier is min_cover's order exactly, 0 where min_cover finds none.

    Random instances cover with one or two vertices, so sparse random reach
    words, fed to min_cover as a relation, reach the orders 3 and 4."""
    rng = random.Random(404)
    for k_max in (1, 2, 3, 4):
        for n in range(2, 7):
            codes = random_codes(rng, 120, n)
            tiers = cover_order_tiers(any_reach(codes, n), n, k_max=k_max)
            for r, row in enumerate(codes):
                cover = min_cover(ColouredTournament.from_codes(n, list(row)), k_max=k_max)
                assert int(tiers[r]) == (0 if cover is None else cover.order)
        seen = set()
        for n in (7, 9):
            # a quarter of the bits set in even rows, five eighths in odd ones
            reach = np.array(
                [[rng.getrandbits(n) & rng.getrandbits(n) | r % 2 * rng.getrandbits(n)
                  for _ in range(n)] for r in range(120)], dtype=np.uint32)
            tiers = cover_order_tiers(reach_of_words(reach, n), n, k_max=k_max)
            t = ColouredTournament.from_codes(n, [0] * (n * (n - 1) // 2))
            for r, words in enumerate(reach.tolist()):
                rel = DominationRelation(n, (tuple(words), (0,) * n, (0,) * n))
                cover = min_cover(t, k_max=k_max, rel=rel)
                assert int(tiers[r]) == (0 if cover is None else cover.order)
                seen.add(int(tiers[r]))
        assert seen == set(range(k_max + 1))


def planted(n, triple, colours, orient):
    """Codes of the all-red transitive instance of order n (every arc
    i -> j with i < j is red) with the slots (a, b), (a, c), (b, c) of the
    triple a < b < c recoloured colours[0..2]; bit s of orient reverses the
    arc of the s-th of those slots.  Only that triple can be rainbow: every
    other triple has at most one recoloured arc."""
    a, b, c = triple
    codes = [0] * (n * (n - 1) // 2)
    for s, (i, j) in enumerate(((a, b), (a, c), (b, c))):
        codes[slot_index(n, i, j)] = colours[s] + 3 * (orient >> s & 1)
    return codes


# orient 0b010 is a -> b -> c -> a and 0b101 its reverse; the rest are
# transitive, and the colourings after the permutations repeat a colour
PLANTS = ([(p, o) for p in permutations(range(3)) for o in (0b010, 0b101)]
          + [((0, 1, 2), o) for o in (0, 1, 3, 4, 6, 7)]
          + [((0, 0, 1), 0b010), ((2, 1, 2), 0b101), ((1, 2, 2), 0b011)])


@pytest.mark.parametrize("n", range(3, 22))
def test_rainbow_mask_finds_planted_triangles(n):
    """One cyclic rainbow triangle planted in both orientations and every
    colour permutation, on every triple up to order 9 and on the corner
    triples and sampled ones past it, plus transitive and repeated-colour
    plants; the mask matches the engine, and finds no T_3 in the six
    transitive rainbow plants of each triple."""
    triples = list(combinations(range(n), 3))
    if n > 9:
        corners = [(0, 1, 2), (0, 1, n - 1), (0, n - 2, n - 1), (n - 3, n - 2, n - 1)]
        triples = corners + random.Random(n).sample(triples, 2)
    codes = np.array([planted(n, tri, p, o) for tri in triples for p, o in PLANTS],
                     dtype=np.uint8)
    instances = [ColouredTournament.from_codes(n, list(row)) for row in codes]
    want = [find_rainbow_triangle(t) is not None for t in instances]
    rainbow = [find_rainbow_triangle(t, require_cyclic=False) is not None for t in instances]
    assert sum(want) == 12 * len(triples)
    assert sum(rainbow) == 18 * len(triples)
    assert rainbow_triangle_mask(codes, n).tolist() == want


def test_rainbow_mask_requires_three_colours():
    rng = random.Random(9)
    codes = random_codes(rng, 200, 5, colours=2)
    assert not rainbow_triangle_mask(codes, 5, colours=2).any()


# (colours, order): both sides of 32 colour bits and the word limit
WORD_EDGES = [(3, n) for n in (3, 5, 6, 10, 11, 21)] + [(2, n) for n in (16, 17, 32)]


def kernel_calls(codes, n, colours, ws=None):
    """Every batch kernel on one code batch, as name -> result; results are
    copied out, since with a workspace they live in buffers that later
    kernel calls rewrite."""
    out = {
        "rainbow_triangle_mask": rainbow_triangle_mask(codes, n, colours, ws).copy(),
        "two_colour_vertices_mask": two_colour_vertices_mask(codes, n, colours, ws).copy(),
        "decode_rows": decode_rows(codes, n, colours, ws).copy(),
        "closure_rows": closure_rows(decode_rows(codes, n, colours, ws), n, colours, ws).copy(),
    }
    out["closure_of_copy"] = closure_rows(out["decode_rows"], n, colours, ws).copy()
    reach = any_reach(codes, n, colours, ws)
    out["any_reach"] = reach.planes.copy()
    out["reach_words"] = np.asarray(reach)
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
        planes = readonly(any_reach(codes, n, colours).planes)
        reach = kernel.Reach(planes, 50)
        rows = readonly(np.arange(0, 50, 3))
        spec = EnumerationSpec(n=n, colours=colours, mode="sampled", samples=100, seed=3)
        calls = {
            "batch_codes": lambda: batch_codes(spec, 10, 40),
            "take_rows": lambda: take_rows(codes, rows),
            "rainbow_triangle_mask": lambda: rainbow_triangle_mask(codes, n, colours),
            "decode_rows": lambda: decode_rows(codes, n, colours),
            "closure_rows": lambda: closure_rows(adj, n, colours),
            "any_reach": lambda: any_reach(codes, n, colours).planes,
            "dominating_vertex_mask": lambda: dominating_vertex_mask(reach, n),
            "qualifying_cycle_mask": lambda: qualifying_cycle_mask(reach, n),
            "cover_order_tiers": lambda: cover_order_tiers(reach, n),
            "two_colour_vertices_mask": lambda: two_colour_vertices_mask(codes, n, colours),
        }
        inputs = [a.copy() for a in (codes, adj, planes, rows)]
        for name, call in calls.items():
            first, second = call(), call()
            assert np.array_equal(first, second), name
            assert not np.shares_memory(first, second), name
            for array in (codes, adj, planes, rows):
                assert not np.shares_memory(first, array), name
        for before, after in zip(inputs, (codes, adj, planes, rows)):
            assert np.array_equal(before, after)


# orders n = 1, 2, 3 and 5 at both colour counts, and every word edge
PARTIAL_ORDERS = sorted({(c, n) for c in (2, 3) for n in (1, 2, 3, 5)} | set(WORD_EDGES))


@pytest.mark.parametrize("colours,n", PARTIAL_ORDERS)
def test_masks_on_batches_of_partial_words(colours, n):
    """Batches of 0 to 5000 rows, most of them not whole 64-row plane words:
    every mask has exactly one entry per row, matches the engine, and the
    adjacency and reach plane bits past the last row stay 0, also in a
    workspace that held a larger batch.  An empty batch, as the vertex filter can leave, gives
    empty masks and planes of no words.  At n = 1 every row is dominating.
    The engine checks the first 127 rows of every batch and the last 65 of
    the largest."""
    rng = random.Random(n * 10 + colours)
    codes = random_codes(rng, 5000, n, colours)
    checked = list(range(127)) + list(range(5000 - 65, 5000))
    engine = {}
    for r in checked:
        t = ColouredTournament.from_codes(n, list(codes[r]), colours)
        rel = domination_relation(t)
        engine[r] = (list(rel.any_rows), bool(dominating_vertices(t, rel)),
                     genhamilton_check(t).holds)
    ws = Workspace()
    for B in (5000, 0, 1, 63, 64, 65, 127):
        for space in (ws, None):
            words = -(-B // 64)
            adj = decode_rows(codes[:B], n, colours, space)
            assert adj.shape == (n, n, colours, words)
            # every colour, both triangles: code 0's plane is an inverse
            assert not plane_bits(adj, 64 * words)[..., B:].any()
            assert rainbow_triangle_mask(codes[:B], n, colours, space).shape == (B,)
            reach = any_reach(codes[:B], n, colours, space)
            masks = [dominating_vertex_mask(reach, n, space).copy(),
                     qualifying_cycle_mask(reach, n, space).copy()]
            assert len(reach) == B and reach.shape == (B, n)
            assert reach.planes.shape == (n, n, words)
            assert all(mask.shape == (B,) and mask.dtype == bool for mask in masks)
            assert not plane_bits(reach.planes, 64 * reach.planes.shape[-1])[..., B:].any()
            for r in (r for r in checked if r < B):
                got = ([int(x) for x in reach[r]], bool(masks[0][r]), bool(masks[1][r]))
                assert got == engine[r], (B, r)
            if n == 1:
                assert masks[0].all()
