"""Data model for 3-edge-coloured tournaments.

A tournament on n vertices carries exactly one directed arc per unordered
vertex pair, and every arc has one of three colours (red, blue, green).
2-coloured tournaments are the special case that never uses green.

The text file format is a character matrix:

    line 1:      the vertex count n
    lines 2..n+1: n characters each, from {'.', 'r', 'b', 'g'};
                  'x' at row i, column j means arc i -> j coloured x,
                  the diagonal is '.', and exactly one of (i,j), (j,i)
                  is non-'.' for i != j.
"""

from __future__ import annotations

import json
from enum import IntEnum
from typing import Iterable, Iterator, Mapping, Sequence

_CHARS = "rbg"  # the colour <-> character table: colour c is written _CHARS[c]


class Colour(IntEnum):
    """Arc colour; the fixed order red < blue < green breaks ties everywhere."""

    RED = 0
    BLUE = 1
    GREEN = 2

    @property
    def char(self) -> str:
        return _CHARS[self]

    @classmethod
    def from_char(cls, ch: str) -> "Colour":
        colour = _COLOUR_OF.get(ch)
        if colour is None:
            raise ValueError(f"unknown colour character {ch!r}")
        return colour


COLOURS = (Colour.RED, Colour.BLUE, Colour.GREEN)
_COLOUR_OF = dict(zip(_CHARS, COLOURS))
_CELL_CHAR = {None: ".", **dict(zip(COLOURS, _CHARS))}


class TournamentFormatError(ValueError):
    """Malformed tournament file; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        pos = ""
        if line is not None:
            pos = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + pos)
        self.line = line
        self.column = column


def pair_slots(n: int) -> list[tuple[int, int]]:
    """Unordered pairs (i, j), i < j, in lexicographic order; slot s is the s-th pair."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def slot_index(n: int, i: int, j: int) -> int:
    """Slot of pair {i, j} (i < j) within pair_slots(n)."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class ColouredTournament:
    """Immutable complete oriented graph with one colour per arc.

    Vertices are dense indices 0..n-1.  The internal matrix stores, for each
    ordered pair (i, j), the arc colour if the arc i -> j exists and None
    otherwise.  Instances are safe to share between threads.  The one
    mutable slot memoizes the domination relation on first use (see
    domination.domination_relation); every constructor and transform starts
    it empty, and a race at worst computes the relation twice.
    """

    __slots__ = ("n", "_matrix", "_relation")

    def __init__(self, n: int, matrix: Sequence[Sequence[Colour | None]]):
        if n < 1:
            raise ValueError("vertex count must be >= 1")
        self._store(n, matrix)
        self._validate()

    @classmethod
    def _checked(cls, n: int, matrix: Sequence[Sequence[Colour | None]]) -> "ColouredTournament":
        """A tournament on a matrix the caller has checked as __init__ would
        (parse does, with positioned errors)."""
        t = cls.__new__(cls)
        t._store(n, matrix)
        return t

    def _store(self, n: int, matrix: Sequence[Sequence[Colour | None]]) -> None:
        self.n = n
        self._matrix = tuple(tuple(row) for row in matrix)
        self._relation = None  # the memo domination.domination_relation fills

    def _validate(self) -> None:
        m = self._matrix
        if len(m) != self.n or any(len(row) != self.n for row in m):
            raise ValueError("matrix shape does not match vertex count")
        for i in range(self.n):
            if m[i][i] is not None:
                raise ValueError(f"loop at vertex {i}")
            for j in range(i + 1, self.n):
                fwd, bwd = m[i][j], m[j][i]
                if (fwd is None) == (bwd is None):
                    kind = "two arcs" if fwd is not None else "no arc"
                    raise ValueError(f"pair {{{i}, {j}}} carries {kind}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Mapping[tuple[int, int], Colour]) -> "ColouredTournament":
        """Build from a map (winner, loser) -> colour covering every pair once."""
        matrix: list[list[Colour | None]] = [[None] * n for _ in range(n)]
        for (i, j), colour in arcs.items():
            matrix[i][j] = Colour(colour)
        return cls(n, matrix)

    @classmethod
    def from_codes(cls, n: int, codes: Sequence[int], colours: int = 3) -> "ColouredTournament":
        """Build from per-pair codes: code = orientation * colours + colour.

        Orientation 0 directs the slot pair (i, j) as i -> j, orientation 1 as
        j -> i.  Slot order is pair_slots(n).
        """
        slots = pair_slots(n)
        if len(codes) != len(slots):
            raise ValueError(f"expected {len(slots)} pair codes, got {len(codes)}")
        matrix: list[list[Colour | None]] = [[None] * n for _ in range(n)]
        for (i, j), code in zip(slots, codes):
            if not 0 <= code < 2 * colours:
                raise ValueError(f"pair code {code} out of range for {colours} colours")
            colour = Colour(code % colours)
            if code < colours:
                matrix[i][j] = colour
            else:
                matrix[j][i] = colour
        return cls(n, matrix)

    # -- arc queries -------------------------------------------------------

    def arc_colour(self, i: int, j: int) -> Colour | None:
        """Colour of the arc i -> j, or None if the arc runs j -> i."""
        return self._matrix[i][j]

    def beats(self, i: int, j: int) -> bool:
        return self._matrix[i][j] is not None

    def pair_colour(self, i: int, j: int) -> Colour:
        """Colour of the unique arc on pair {i, j}, whichever way it points."""
        c = self._matrix[i][j]
        return c if c is not None else self._matrix[j][i]  # type: ignore[return-value]

    def arcs(self) -> Iterator[tuple[int, int, Colour]]:
        """All arcs as (winner, loser, colour)."""
        for i in range(self.n):
            for j in range(self.n):
                c = self._matrix[i][j]
                if c is not None:
                    yield i, j, c

    def out_neighbours(self, x: int) -> list[int]:
        return [y for y in range(self.n) if self._matrix[x][y] is not None]

    def in_neighbours(self, x: int) -> list[int]:
        return [y for y in range(self.n) if self._matrix[y][x] is not None]

    def to_codes(self, colours: int = 3) -> list[int]:
        """Per-pair codes in slot order; inverse of from_codes."""
        codes = []
        for i, j in pair_slots(self.n):
            c = self._matrix[i][j]
            if c is not None:
                codes.append(int(c))
            else:
                codes.append(colours + int(self._matrix[j][i]))
        return codes

    # -- transforms --------------------------------------------------------

    def reverse(self) -> "ColouredTournament":
        """Flip every arc, keeping colours."""
        n = self.n
        return ColouredTournament(n, [[self._matrix[j][i] for j in range(n)] for i in range(n)])

    def swap_colours(self, mapping: Mapping[Colour, Colour]) -> "ColouredTournament":
        """Apply a colour permutation to every arc."""
        if sorted(mapping) != sorted(mapping.values()):
            raise ValueError("colour mapping must be a bijection")
        n = self.n
        return ColouredTournament(
            n,
            [
                [mapping.get(c, c) if c is not None else None for c in row]
                for row in self._matrix
            ],
        )

    def relabel(self, perm: Sequence[int]) -> "ColouredTournament":
        """Relabel vertices: new vertex perm[v] plays the role of old vertex v."""
        n = self.n
        matrix: list[list[Colour | None]] = [[None] * n for _ in range(n)]
        for i, j, c in self.arcs():
            matrix[perm[i]][perm[j]] = c
        return ColouredTournament(n, matrix)

    def induced(self, vertices: Iterable[int]) -> tuple["ColouredTournament", list[int]]:
        """Subtournament on the given vertices.

        Returns (sub, labels) where labels[k] is the original index of the
        sub-tournament vertex k; vertices are taken in sorted order.
        """
        labels = sorted(set(vertices))
        if not labels:
            raise ValueError("induced subtournament needs at least one vertex")
        k = len(labels)
        matrix = [[self._matrix[labels[a]][labels[b]] for b in range(k)] for a in range(k)]
        return ColouredTournament._checked(k, matrix), labels  # a subtournament of a valid one

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColouredTournament)
            and self.n == other.n
            and self._matrix == other._matrix
        )

    def __hash__(self) -> int:
        return hash((self.n, self._matrix))

    def __repr__(self) -> str:
        return f"ColouredTournament(n={self.n})"


# -- parse / serialize -----------------------------------------------------


def parse(text: str) -> ColouredTournament:
    """Parse the character-matrix file format into a validated tournament."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TournamentFormatError("empty input", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TournamentFormatError(f"malformed header {lines[0]!r}", line=1) from None
    if n < 1:
        raise TournamentFormatError(f"vertex count must be >= 1, got {n}", line=1)
    if len(lines) - 1 != n:
        raise TournamentFormatError(
            f"expected {n} matrix rows, found {len(lines) - 1}", line=len(lines)
        )
    matrix: list[list[Colour | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        row = lines[i + 1]
        if len(row) != n:
            raise TournamentFormatError(
                f"row has {len(row)} characters, expected {n}", line=i + 2
            )
        for j, ch in enumerate(row):
            if ch == ".":
                continue
            colour = _COLOUR_OF.get(ch)
            if colour is None:
                raise TournamentFormatError(
                    f"unknown colour character {ch!r}", line=i + 2, column=j + 1
                )
            if i == j:
                raise TournamentFormatError("diagonal must be '.'", line=i + 2, column=j + 1)
            matrix[i][j] = colour
    for i in range(n):
        for j in range(i + 1, n):
            fwd, bwd = matrix[i][j], matrix[j][i]
            if fwd is not None and bwd is not None:
                raise TournamentFormatError(
                    f"pair {{{i}, {j}}} has two arcs", line=j + 2, column=i + 1
                )
            if fwd is None and bwd is None:
                raise TournamentFormatError(
                    f"pair {{{i}, {j}}} has no arc", line=i + 2, column=j + 1
                )
    return ColouredTournament._checked(n, matrix)


def serialize(t: ColouredTournament) -> str:
    """Byte-deterministic inverse of parse (LF newlines, trailing newline)."""
    rows = ["".join([_CELL_CHAR[c] for c in row]) for row in t._matrix]
    return f"{t.n}\n" + "\n".join(rows) + "\n"


# -- shared report plumbing -------------------------------------------------


# json.dumps would build this encoder anew on every call
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: object) -> str:
    """Stable compact JSON used by every report surface."""
    return _CANONICAL_ENCODER.encode(obj)


def report_dict(t: ColouredTournament, findings: list[dict]) -> dict:
    """The shared single-instance report shape: n, instance, findings."""
    return {"n": t.n, "instance": serialize(t), "findings": findings}
