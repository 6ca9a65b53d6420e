"""Instance model, file format and transforms."""

import json
import random

import pytest

from monodom.core import (
    COLOURS,
    Colour,
    ColouredTournament,
    TournamentFormatError,
    canonical_json,
    pair_slots,
    parse,
    serialize,
    slot_index,
)
from monodom.domination import domination_relation

T3_TEXT = "3\n.r.\n..b\ng..\n"


def random_instance(rng, n, colours=3):
    codes = [rng.randrange(2 * colours) for _ in range(n * (n - 1) // 2)]
    return ColouredTournament.from_codes(n, codes, colours)


def test_colour_chars():
    assert [c.char for c in COLOURS] == ["r", "b", "g"]
    assert Colour.from_char("g") is Colour.GREEN
    with pytest.raises(ValueError):
        Colour.from_char("x")


def test_pair_slots_lexicographic():
    assert pair_slots(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for k, (i, j) in enumerate(pair_slots(6)):
        assert slot_index(6, i, j) == k


def test_from_arcs_and_accessors():
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (2, 0): Colour.GREEN}
    )
    assert t.beats(0, 1) and not t.beats(1, 0)
    assert t.arc_colour(2, 0) is Colour.GREEN
    assert t.arc_colour(0, 2) is None
    assert t.pair_colour(0, 2) is Colour.GREEN
    assert t.out_neighbours(0) == [1]
    assert t.in_neighbours(0) == [2]
    assert sorted(t.arcs()) == [
        (0, 1, Colour.RED), (1, 2, Colour.BLUE), (2, 0, Colour.GREEN)
    ]


def test_from_arcs_rejects_missing_and_double_pairs():
    with pytest.raises(ValueError):
        ColouredTournament.from_arcs(3, {(0, 1): Colour.RED, (1, 2): Colour.BLUE})
    with pytest.raises(ValueError):
        ColouredTournament.from_arcs(
            3,
            {(0, 1): Colour.RED, (1, 0): Colour.RED,
             (1, 2): Colour.BLUE, (2, 0): Colour.GREEN},
        )


def test_codes_round_trip_both_orientations():
    # code = orientation * colours + colour, slot order lexicographic
    t = ColouredTournament.from_codes(3, [0, 5, 1])
    assert t.beats(0, 1) and t.arc_colour(0, 1) is Colour.RED
    assert t.beats(2, 0) and t.arc_colour(2, 0) is Colour.GREEN
    assert t.beats(1, 2) and t.arc_colour(1, 2) is Colour.BLUE
    assert t.to_codes() == [0, 5, 1]


def test_two_colour_codes():
    t = ColouredTournament.from_codes(3, [0, 3, 1], colours=2)
    assert t.arc_colour(0, 1) is Colour.RED
    assert t.beats(2, 0) and t.arc_colour(2, 0) is Colour.BLUE
    assert t.to_codes(colours=2) == [0, 3, 1]
    with pytest.raises(ValueError):
        ColouredTournament.from_codes(3, [0, 0, 6])


def test_parse_basic():
    t = parse(T3_TEXT)
    assert t.n == 3
    assert t.arc_colour(0, 1) is Colour.RED
    assert t.arc_colour(1, 2) is Colour.BLUE
    assert t.arc_colour(2, 0) is Colour.GREEN


def test_parse_rejects_leading_junk():
    with pytest.raises(TournamentFormatError):
        parse("# note\n3\n.r.\n..b\ng..\n")


def test_serialize_round_trip_seeded():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.randrange(1, 9)
        t = random_instance(rng, n)
        u = parse(serialize(t))
        if n % 2:  # equality and hash ignore the memoized relation
            domination_relation(t)
        assert u == t and hash(u) == hash(t)


def test_parse_checks_each_pair_once(monkeypatch):
    """parse checks the matrix with positioned errors and builds the
    tournament without the constructor checking it again; the constructor
    still checks matrices it is handed directly."""
    def fail(self):
        raise AssertionError("matrix checked again")

    matrix = parse(T3_TEXT)._matrix
    monkeypatch.setattr(ColouredTournament, "_validate", fail)
    assert parse(T3_TEXT)._matrix == matrix
    with pytest.raises(AssertionError):
        ColouredTournament(3, matrix)


def test_parse_error_positions():
    with pytest.raises(TournamentFormatError) as e:
        parse("3\n.r.\n..b\nq..\n")
    assert e.value.line == 4 and e.value.column == 1

    with pytest.raises(TournamentFormatError) as e:
        parse("3\n.r.\n..b\n")
    assert "row" in str(e.value)

    with pytest.raises(TournamentFormatError) as e:
        parse("3\n.r.\n.b.\ng..\n")  # diagonal must stay '.'
    assert e.value.line == 3

    with pytest.raises(TournamentFormatError) as e:
        parse("3\nrr.\n..b\ng..\n")
    assert e.value.line == 2

    with pytest.raises(TournamentFormatError) as e:
        parse("3\n.r.\n..b\ng.r\n")  # trailing junk past row width? no: both arcs set
    # pair (1,2) then coloured both ways
    assert e.value.line is not None

    with pytest.raises(TournamentFormatError):
        parse("x\n")

    with pytest.raises(TournamentFormatError):
        parse("")


def test_parse_rejects_missing_arc():
    with pytest.raises(TournamentFormatError):
        parse("3\n.r.\n...\ng..\n")


def test_reverse_and_swap_colours():
    t = parse(T3_TEXT)
    r = t.reverse()
    assert r.beats(1, 0) and r.arc_colour(1, 0) is Colour.RED
    s = t.swap_colours({Colour.RED: Colour.BLUE, Colour.BLUE: Colour.RED,
                        Colour.GREEN: Colour.GREEN})
    assert s.arc_colour(0, 1) is Colour.BLUE
    assert s.arc_colour(2, 0) is Colour.GREEN
    assert t.reverse().reverse() == t


def test_relabel_and_induced():
    t = parse(T3_TEXT)
    u = t.relabel([2, 0, 1])  # vertex v becomes perm[v]
    assert u.arc_colour(2, 0) is Colour.RED
    sub, names = t.induced([0, 2])
    assert names == [0, 2]
    assert sub.n == 2 and sub.arc_colour(1, 0) is Colour.GREEN


def test_relabel_permutes_consistently_seeded():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 7)
        t = random_instance(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        u = t.relabel(perm)
        for i, j, colour in t.arcs():
            assert u.arc_colour(perm[i], perm[j]) is colour


def test_canonical_json_stable():
    for obj in [
        {"b": 1, "a": [2, {"d": None}]},
        {"name": "bl\u00e5 \u2192 gr\u00f8n \U0001d4af", "quote": '"\\\n'},
        [1.5, -0.0, 1e-07, 3.0e20, 0.1 + 0.2],
        {"t": True, "f": False, "none": None},
        {"outer": [[1, [2, {"z": [], "y": {}}]], {"b": {"d": 4, "c": [None]}}]},
        {10: "ten", 2: "two", -1: "minus one"},
        "plain",
        [],
    ]:
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert canonical_json({"b": 1, "a": [2, {"d": None}]}) == '{"a":[2,{"d":null}],"b":1}'
    # keys sort as given and become strings afterwards, so 2 precedes 10,
    # and keys of mixed types do not sort at all, as with json.dumps
    assert canonical_json({10: 0, 2: 1}) == '{"2":1,"10":0}'
    with pytest.raises(TypeError):
        canonical_json({"2": 0, 1: 1})
    assert canonical_json("\u00e9") == '"\\u00e9"'
