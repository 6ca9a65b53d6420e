"""Monochromatic domination primitives.

x dominates y monochromatically when a directed path from x to y exists whose
arcs all share one colour.  The relation is irreflexive by convention: x
reaches itself only along a monochromatic directed cycle.  Covers use the
opposite convention (a vertex covers itself) so that a dominating vertex is
always a cover of order 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import COLOURS, Colour, ColouredTournament


class DominationRelation:
    """Per-colour reachability closure over a fixed tournament.

    rows[c][x] is a bitmask over y of "x reaches y by a colour-c path of
    length >= 1".  Built once by a Warshall pass over adjacency rows that
    pack every colour into one integer; immutable afterwards.
    """

    __slots__ = ("n", "rows", "any_rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        self.n = n
        self.rows = rows
        self.any_rows = tuple(
            rows[0][x] | rows[1][x] | rows[2][x] for x in range(n)
        )

    def colours(self, x: int, y: int) -> frozenset[Colour]:
        """Colours in which x dominates y; empty = no domination."""
        return frozenset(c for c in COLOURS if self.rows[c][x] >> y & 1)

    def dominates_all(self, x: int) -> bool:
        """x reaches every other vertex in some colour."""
        full = (1 << self.n) - 1
        return (self.any_rows[x] | 1 << x) == full


def _closure(rows: list[int], n: int) -> list[int]:
    """Warshall closure (paths of length >= 1) of packed rows: plane c, bits
    c*n .. c*n+n-1 of rows[x], holds x's colour-c successors.

    For each k, a row reaching k in colour c gains plane c of row k:
    (row >> k) & lanes puts that bit at c*n, and multiplying by 2**n - 1
    spreads it over its own plane without carries.
    """
    lanes = sum(1 << (c * n) for c in COLOURS)
    fill = (1 << n) - 1
    for k in range(n):
        rk = rows[k]
        rows = [r | ((r >> k & lanes) * fill & rk) for r in rows]
    return rows


def domination_relation(t: ColouredTournament) -> DominationRelation:
    """Exact per-colour reachability closure for t."""
    n = t.n
    packed = [0] * n
    for i, j, c in t.arcs():
        packed[i] |= 1 << (c * n + j)
    packed = _closure(packed, n)
    plane = (1 << n) - 1
    rows = tuple(tuple(r >> (c * n) & plane for r in packed) for c in COLOURS)
    return DominationRelation(n, rows)


def dominates(
    t: ColouredTournament, x: int, y: int, rel: DominationRelation | None = None
) -> frozenset[Colour]:
    """Set of colours in which x dominates y; a singleton realizes 'only in c'."""
    if x == y:
        raise ValueError("domination queries need two distinct vertices")
    rel = rel or domination_relation(t)
    return rel.colours(x, y)


def dominating_vertices(
    t: ColouredTournament, rel: DominationRelation | None = None
) -> list[int]:
    """All x that monochromatically dominate every other vertex, ascending."""
    rel = rel or domination_relation(t)
    return [x for x in range(t.n) if rel.dominates_all(x)]


def dominated_by_all(
    t: ColouredTournament, rel: DominationRelation | None = None
) -> list[int]:
    """All y dominated by every other vertex, ascending."""
    rel = rel or domination_relation(t)
    common = (1 << t.n) - 1  # the vertices every other vertex dominates
    for x in range(t.n):
        common &= rel.any_rows[x] | 1 << x
    return [y for y in range(t.n) if common >> y & 1]


@dataclass(frozen=True)
class DominationCover:
    """Vertex set S such that every vertex is in S or dominated by a member."""

    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


MIN_COVER_VERTEX_LIMIT = 16


def min_cover(
    t: ColouredTournament, k_max: int = 4, rel: DominationRelation | None = None
) -> DominationCover | None:
    """Minimum-order domination cover of order <= k_max, or None.

    A vertex covers itself.  Exhaustive subset search in increasing order,
    so the first hit is minimum and (via combinations order) has the
    lexicographically least member set.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = t.n
    if n > MIN_COVER_VERTEX_LIMIT:
        raise ValueError(f"min_cover limited to n <= {MIN_COVER_VERTEX_LIMIT}")
    rel = rel or domination_relation(t)
    covered = [rel.any_rows[x] | 1 << x for x in range(n)]
    full = (1 << n) - 1
    for k in range(1, min(k_max, n) + 1):
        for subset in combinations(range(n), k):
            acc = 0
            for x in subset:
                acc |= covered[x]
            if acc == full:
                return DominationCover(subset)
    return None


@dataclass(frozen=True)
class RainbowTriangle:
    """Three vertices whose mutual arcs carry three distinct colours.

    For a cyclic triangle the vertices are stored in cycle order starting at
    the least index (a -> b -> c -> a); otherwise ascending.
    """

    vertices: tuple[int, int, int]
    cyclic: bool
    arcs: tuple[tuple[int, int, Colour], ...]

    def to_dict(self) -> dict:
        """The witness form every report uses."""
        arcs = [[a, b, c.char] for a, b, c in self.arcs]
        return {"triangle": list(self.vertices), "arcs": arcs}


def _triangle(t: ColouredTournament, i: int, j: int, k: int) -> RainbowTriangle | None:
    arcs = []
    for a, b in ((i, j), (i, k), (j, k)):
        if not t.beats(a, b):
            a, b = b, a
        arcs.append((a, b, t.arc_colour(a, b)))
    if len({c for _, _, c in arcs}) != 3:
        return None
    succ = {a: b for a, b, _ in arcs}
    cyclic = len(succ) == 3  # a 3-cycle iff every vertex has out-degree 1 in the triple
    order = (i, succ[i], succ[succ[i]]) if cyclic else (i, j, k)
    return RainbowTriangle(order, cyclic, tuple(sorted(arcs)))


def find_rainbow_triangle(
    t: ColouredTournament, require_cyclic: bool = True
) -> RainbowTriangle | None:
    """Lexicographically least (by sorted vertex triple) rainbow triangle.

    With require_cyclic the triangle must be a directed 3-cycle (a T_3);
    without, any orientation with three distinct arc colours qualifies.
    """
    for i, j, k in combinations(range(t.n), 3):
        tri = _triangle(t, i, j, k)
        if tri is not None and (tri.cyclic or not require_cyclic):
            return tri
    return None


def vertex_colour_profile(t: ColouredTournament, x: int) -> frozenset[Colour]:
    """Colours appearing on arcs incident to x."""
    out = set()
    for y in range(t.n):
        if y == x:
            continue
        out.add(t.pair_colour(x, y))
    return frozenset(out)


def at_most_two_everywhere(t: ColouredTournament) -> bool:
    """True when every vertex is incident with edges of at most two colours."""
    return all(len(vertex_colour_profile(t, x)) <= 2 for x in range(t.n))
