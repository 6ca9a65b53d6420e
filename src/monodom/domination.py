"""Monochromatic domination primitives.

x dominates y monochromatically when a directed path from x to y exists whose
arcs all share one colour.  The relation is irreflexive by convention: x
reaches itself only along a monochromatic directed cycle.  Covers use the
opposite convention (a vertex covers itself) so that a dominating vertex is
always a cover of order 1.  The closure and the T_3 search work on whole
integers: a lane of bits per (vertex, colour), and a mask of third vertices per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import COLOURS, Colour, ColouredTournament


class DominationRelation:
    """Per-colour reachability closure over a fixed tournament.

    rows[c][x] is a bitmask over y of "x reaches y by a colour-c path of
    length >= 1".  domination_relation closes the whole tournament as one
    integer m, bit x*3n + c*n + y set when x reaches y in colour c: row x
    holds one n-bit lane per colour.  Immutable afterwards.
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


def domination_relation(t: ColouredTournament) -> DominationRelation:
    """Exact per-colour reachability closure for t, computed once per
    tournament: the first call stores it on t and later calls return it, so
    every engine call on t shares one relation.  A race between threads at
    worst computes it twice.  A relation passed to a function's rel=
    parameter is used for that call only and never stored.

    Warshall's step k ORs row k's lane c into each lane (x, c) that holds
    bit k: (m >> k & lanes) * fill spreads that bit over its lane, and
    (m >> k*3n & row_mask) * rep copies row k into every row.  Neither
    product carries across lanes.
    """
    if t._relation is not None:
        return t._relation
    n = t.n
    width = 3 * n
    m = 0
    for x, row in enumerate(t._matrix):
        packed = 0
        for y, c in enumerate(row):
            if c is not None:
                packed |= 1 << (c * n + y)
        m |= packed << (x * width)
    fill, row_mask = (1 << n) - 1, (1 << width) - 1
    rep = ((1 << width * n) - 1) // row_mask  # bit 0 of every row
    lanes = rep * (row_mask // fill)  # bit 0 of every lane
    for k in range(n):
        m |= (m >> k & lanes) * fill & (m >> k * width & row_mask) * rep
    rows = tuple(tuple(m >> (x * width + c * n) & fill for x in range(n)) for c in COLOURS)
    t._relation = DominationRelation(n, rows)
    return t._relation


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


def _triangle(t: ColouredTournament, i: int, j: int, k: int) -> RainbowTriangle:
    """The witness on the rainbow triple i < j < k."""
    arcs = []
    for a, b in ((i, j), (i, k), (j, k)):
        if not t.beats(a, b):
            a, b = b, a
        arcs.append((a, b, t.arc_colour(a, b)))
    succ = {a: b for a, b, _ in arcs}
    cyclic = len(succ) == 3  # a 3-cycle iff every vertex has out-degree 1 in the triple
    order = (i, succ[i], succ[succ[i]]) if cyclic else (i, j, k)
    return RainbowTriangle(order, cyclic, tuple(sorted(arcs)))


# arc colour c -> the _masks_above entries (out d, into e, out e, into d), d < e the others
_CLOSING = tuple((d, 3 + e, e, 3 + d) for d, e in ((1, 2), (0, 2), (0, 1)))


def _masks_above(matrix: tuple, v: int, n: int, require_cyclic: bool) -> list[int]:
    """Colour masks of v over the y > v: entry c holds the y with v -> y of
    colour c, entry 3 + c those with y -> v of colour c.  Without
    require_cyclic both halves hold the pair-colour masks."""
    row = matrix[v]
    masks = [0] * 6
    for y in range(v + 1, n):
        c = row[y]
        if c is None:
            masks[3 + matrix[y][v]] |= 1 << y
        else:  # 0 + c is a plain int, which lists index faster than a Colour
            masks[0 + c] |= 1 << y
    if not require_cyclic:
        masks[:3] = masks[3:] = [o | i for o, i in zip(masks, masks[3:])]
    return masks


def find_rainbow_triangle(
    t: ColouredTournament, require_cyclic: bool = True
) -> RainbowTriangle | None:
    """Lexicographically least (by sorted vertex triple) rainbow triangle.

    With require_cyclic the triangle must be a directed 3-cycle (a T_3);
    without, any orientation with three distinct arc colours qualifies.

    Walks the pairs i < j in order: with a -> b the pair's arc, of colour c,
    and d, e the other colours, the k > j closing a T_3 are the bits of
    (out[d][b] & into[e][a] | out[e][b] & into[d][a]) >> j+1, the lowest
    first.  Masks are built on a vertex's first pair, so early exits stay cheap.
    """
    n = t.n
    matrix = t._matrix
    masks: list[list[int] | None] = [None] * n
    for i in range(n - 2):
        masks_i = masks[i] or _masks_above(matrix, i, n, require_cyclic)
        row = matrix[i]
        for j in range(i + 1, n - 1):
            masks_j = masks[j]
            if masks_j is None:
                masks_j = masks[j] = _masks_above(matrix, j, n, require_cyclic)
            c = row[j]
            if c is None:  # the arc runs j -> i
                a, b, c = masks_j, masks_i, matrix[j][i]
            else:
                a, b = masks_i, masks_j
            out_d, into_e, out_e, into_d = _CLOSING[c]
            closing = (b[out_d] & a[into_e] | b[out_e] & a[into_d]) >> (j + 1)
            if closing:
                return _triangle(t, i, j, j + (closing & -closing).bit_length())
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
