"""Domination relation, covers, rainbow triangles, colour profiles."""

import random
from itertools import combinations, product

import pytest

from monodom import domination
from monodom.auditor import audit, genhamilton_check
from monodom.core import COLOURS, Colour, ColouredTournament, canonical_json, parse, serialize
from monodom.domination import (
    DominationRelation,
    at_most_two_everywhere,
    dominated_by_all,
    dominates,
    dominating_vertices,
    domination_relation,
    find_rainbow_triangle,
    min_cover,
    vertex_colour_profile,
)

T3 = parse("3\n.r.\n..b\ng..\n")


def random_instance(rng, n, colours=3):
    codes = [rng.randrange(2 * colours) for _ in range(n * (n - 1) // 2)]
    return ColouredTournament.from_codes(n, codes, colours)


def fresh_rows(t):
    # the relation of a copy built anew, whose memo is empty
    return domination_relation(ColouredTournament.from_codes(t.n, t.to_codes())).rows


def bfs_reaches(t, colour, src):
    # independent oracle: breadth-first search along arcs of one colour
    seen = set()
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in t.out_neighbours(x):
                if t.arc_colour(x, y) is colour and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen  # may contain src itself via a colour cycle


def test_single_arc_dominates():
    t = ColouredTournament.from_arcs(2, {(0, 1): Colour.RED})
    assert dominates(t, 0, 1) == {Colour.RED}
    assert dominates(t, 1, 0) == frozenset()
    assert dominating_vertices(t) == [0]
    assert dominated_by_all(t) == [1]


def test_domination_is_path_based_not_arc_based():
    # 0 -r-> 1 -r-> 2 but 2 -b-> 0: 0 dominates 2 through 1 in red
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.RED, (2, 0): Colour.BLUE}
    )
    assert dominates(t, 0, 2) == {Colour.RED}
    assert dominates(t, 2, 1) == frozenset()  # 2 -b-> 0 -r-> 1 changes colour
    assert dominating_vertices(t) == [0]


def test_mixed_colour_path_does_not_dominate():
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (0, 2): Colour.GREEN}
    )
    assert dominates(t, 0, 2) == {Colour.GREEN}
    assert dominating_vertices(t) == [0]


def test_t3_has_no_dominating_vertex():
    assert dominating_vertices(T3) == []
    assert dominated_by_all(T3) == []
    for x, y in [(0, 1), (1, 2), (2, 0)]:
        assert len(dominates(T3, x, y)) == 1
        assert dominates(T3, y, x) == frozenset()


def test_dominates_rejects_equal_vertices():
    with pytest.raises(ValueError):
        dominates(T3, 1, 1)


def assert_matches_bfs(t):
    rel = domination_relation(t)
    for c in COLOURS:
        for x in range(t.n):
            reached = bfs_reaches(t, c, x)
            for y in range(t.n):
                assert bool(rel.rows[c][x] >> y & 1) == (y in reached)


def test_relation_matches_bfs_oracle_seeded():
    rng = random.Random(202406)
    for n in range(1, 22):
        for colours in (2, 3):
            for _ in range(3):
                assert_matches_bfs(random_instance(rng, n, colours))


@pytest.mark.parametrize("n", [21, 64])
@pytest.mark.parametrize("strong", [False, True])
def test_relation_with_every_arc_red(n, strong):
    # every red lane is all ones, so a carry across lanes would show at once;
    # turning the arc 0 -> n-1 round makes the tournament strongly connected
    arcs = {(i, j): Colour.RED for i in range(n) for j in range(i + 1, n)}
    if strong:
        arcs[(n - 1, 0)] = arcs.pop((0, n - 1))
    t = ColouredTournament.from_arcs(n, arcs)
    assert_matches_bfs(t)
    rel = domination_relation(t)
    full = (1 << n) - 1
    want = [full if strong else full & ~((2 << x) - 1) for x in range(n)]
    assert list(rel.rows[Colour.RED]) == want
    assert rel.rows[Colour.BLUE] == rel.rows[Colour.GREEN] == (0,) * n


def test_reversal_duality_seeded():
    # x dominates y in t iff y dominates x in the reversed tournament; t's
    # relation is memoized before reversing, which r must not inherit
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randrange(2, 7)
        t = random_instance(rng, n)
        domination_relation(t)
        r = t.reverse()
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert dominates(t, x, y) == dominates(r, y, x)


def test_one_closure_per_tournament(monkeypatch):
    built = []

    def counting(n, rows):
        built.append(n)
        return DominationRelation(n, rows)

    monkeypatch.setattr(domination, "DominationRelation", counting)
    rng = random.Random(4242)
    for _ in range(200):
        t = random_instance(rng, rng.randrange(1, 10), rng.choice((2, 3)))
        built.clear()
        report = audit(t)
        canonical_json(report.to_dict())
        min_cover(t)
        dominating_vertices(t)
        dominated_by_all(t)
        genhamilton_check(t)
        assert not report.finding("genhamilton").holds  # deep audits close subtournaments
        assert built == [t.n]


@pytest.mark.parametrize("memo_first", [False, True])
def test_passed_relation_is_not_memoized(memo_first):
    # vertex 0 dominates everything in this relation, though T_3 has no
    # dominating vertex: the cover must come from the relation passed in,
    # and T_3's own relation must stay what a fresh closure gives
    t = parse(serialize(T3))
    if memo_first:
        domination_relation(t)
    synthetic = DominationRelation(3, ((0b110, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert min_cover(t, k_max=1, rel=synthetic).members == (0,)
    assert domination_relation(t).rows == fresh_rows(t)
    assert min_cover(t).members == (0, 1)


@pytest.mark.parametrize(
    "derive",
    [
        lambda t: t.reverse(),
        lambda t: t.swap_colours({Colour.RED: Colour.GREEN, Colour.GREEN: Colour.BLUE,
                                  Colour.BLUE: Colour.RED}),
        lambda t: t.relabel(list(range(t.n))[::-1]),
        lambda t: t.induced(range(1, t.n))[0],
        lambda t: parse(serialize(t)),
    ],
    ids=["reverse", "swap_colours", "relabel", "induced", "parse"],
)
def test_derived_tournaments_start_without_the_memo(derive):
    rng = random.Random(77)
    for _ in range(40):
        t = random_instance(rng, rng.randrange(2, 9))
        domination_relation(t)
        d = derive(t)
        assert d._relation is None
        assert domination_relation(d).rows == fresh_rows(d)


def test_min_cover_t3():
    cover = min_cover(T3)
    assert cover is not None
    assert cover.order == 2
    assert cover.members == (0, 1)


def test_min_cover_single_when_dominating_vertex():
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.RED, (2, 0): Colour.BLUE}
    )
    assert min_cover(t).members == (0,)


def test_min_cover_none_within_kmax():
    assert min_cover(T3, k_max=1) is None


def test_min_cover_matches_subset_oracle_seeded():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randrange(2, 6)
        t = random_instance(rng, n)
        rel = domination_relation(t)

        def covered_by(subset):
            hit = set(subset)
            for x in subset:
                hit.update(y for y in range(n) if rel.any_rows[x] >> y & 1)
            return len(hit) == n

        best = None
        for k in range(1, n + 1):
            hits = [s for s in combinations(range(n), k) if covered_by(s)]
            if hits:
                best = (k, min(hits))
                break
        got = min_cover(t, k_max=n)
        assert got is not None and (got.order, got.members) == best


def test_find_rainbow_triangle_cyclic():
    tri = find_rainbow_triangle(T3)
    assert tri is not None and tri.cyclic
    assert tri.vertices == (0, 1, 2)
    assert tri.arcs == (
        (0, 1, Colour.RED), (1, 2, Colour.BLUE), (2, 0, Colour.GREEN)
    )


def test_find_rainbow_triangle_transitive():
    # 0 beats both, 1 beats 2: rainbow but not cyclic
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (0, 2): Colour.GREEN, (1, 2): Colour.BLUE}
    )
    assert find_rainbow_triangle(t, require_cyclic=True) is None
    tri = find_rainbow_triangle(t, require_cyclic=False)
    assert tri is not None and not tri.cyclic


def test_find_rainbow_triangle_none_with_two_colours():
    rng = random.Random(2)
    for _ in range(30):
        t = random_instance(rng, 4, colours=2)
        assert find_rainbow_triangle(t, require_cyclic=False) is None


def test_rainbow_triangle_witness_arcs_valid_seeded():
    rng = random.Random(808)
    found = 0
    for _ in range(200):
        t = random_instance(rng, rng.randrange(3, 7))
        tri = find_rainbow_triangle(t)
        if tri is None:
            continue
        found += 1
        a, b, c = tri.vertices
        assert tri.cyclic
        colours = set()
        for x, y, colour in tri.arcs:
            assert t.beats(x, y) and t.arc_colour(x, y) is colour
            colours.add(colour)
        assert colours == set(COLOURS)
        assert t.beats(a, b) and t.beats(b, c) and t.beats(c, a)
    assert found > 50  # cyclic rainbow triangles are common at these orders


def least_rainbow_triple(t, cyclic):
    # the definition written out: three distinct pair colours and, for a
    # T_3, the arcs i -> j -> k -> i or i -> k -> j -> i
    for i, j, k in combinations(range(t.n), 3):
        colours = {t.pair_colour(i, j), t.pair_colour(j, k), t.pair_colour(i, k)}
        directed = t.beats(i, j) == t.beats(j, k) == t.beats(k, i)
        if len(colours) == 3 and (directed or not cyclic):
            return (i, j, k)
    return None


def all_instances(n, colours):
    for codes in product(range(2 * colours), repeat=n * (n - 1) // 2):
        yield ColouredTournament.from_codes(n, codes, colours)


def test_witness_is_the_least_triangle():
    rng = random.Random(4242)
    exhaustive = [t for n in range(1, 5) for k in (2, 3) for t in all_instances(n, k)]
    seeded = [random_instance(rng, n, k) for n in range(5, 22) for k in (2, 3) for _ in range(20)]
    for t in exhaustive + seeded:
        for cyclic in (True, False):
            tri = find_rainbow_triangle(t, require_cyclic=cyclic)
            want = least_rainbow_triple(t, cyclic)
            assert (None if tri is None else tuple(sorted(tri.vertices))) == want
            if tri is not None:
                assert tri.cyclic == (t.beats(want[0], want[1]) == t.beats(want[1], want[2])
                                      == t.beats(want[2], want[0]))


def test_vertex_colour_profile():
    assert vertex_colour_profile(T3, 0) == {Colour.RED, Colour.GREEN}
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.RED, (2, 0): Colour.RED}
    )
    assert vertex_colour_profile(t, 1) == {Colour.RED}
    assert at_most_two_everywhere(t)
    assert at_most_two_everywhere(T3)


def test_at_most_two_everywhere_false():
    # a vertex needs three incident arcs to see three colours
    t = ColouredTournament.from_arcs(
        4,
        {(0, 1): Colour.RED, (0, 2): Colour.BLUE, (0, 3): Colour.GREEN,
         (1, 2): Colour.RED, (1, 3): Colour.RED, (2, 3): Colour.RED},
    )
    assert vertex_colour_profile(t, 0) == set(COLOURS)
    assert not at_most_two_everywhere(t)


def test_two_coloured_always_has_dominating_vertex_seeded():
    rng = random.Random(1912)
    for _ in range(150):
        t = random_instance(rng, rng.randrange(1, 7), colours=2)
        assert dominating_vertices(t)
