"""Cycle views, qualifying-cycle search, pivot partitions, descent, audit."""

import random

import pytest

from monodom.auditor import (
    ALARM_VERDICT,
    SAFE_VERDICT,
    AuditReport,
    CheckResult,
    ColourProfilePartition,
    CycleView,
    DescentPreconditionError,
    _check_alternation,
    _check_lemma_xcy,
    _check_obs_xxplus,
    _check_twocedges,
    audit,
    colour_profile_partition,
    descent_check,
    genhamilton_check,
    is_qualifying_cycle,
)
from monodom.core import COLOURS, Colour, ColouredTournament, parse, serialize
from monodom.domination import dominates, domination_relation, vertex_colour_profile

T3 = parse("3\n.r.\n..b\ng..\n")

# all 3-vertex instances admitting a qualifying Hamilton cycle, frozen from
# a 216-instance sweep; every one is a cyclic rainbow triangle
QUALIFYING_N3 = {
    (2, 4, 0): (0, 1, 2), (1, 5, 0): (0, 1, 2), (2, 3, 1): (0, 1, 2),
    (0, 5, 1): (0, 1, 2), (1, 3, 2): (0, 1, 2), (0, 4, 2): (0, 1, 2),
    (5, 1, 3): (0, 2, 1), (4, 2, 3): (0, 2, 1), (5, 0, 4): (0, 2, 1),
    (3, 2, 4): (0, 2, 1), (4, 0, 5): (0, 2, 1), (3, 1, 5): (0, 2, 1),
}


def random_instance(rng, n, colours=3):
    codes = [rng.randrange(2 * colours) for _ in range(n * (n - 1) // 2)]
    return ColouredTournament.from_codes(n, codes, colours)


# -- CycleView ----------------------------------------------------------------


def test_cycle_view_rotation():
    c = CycleView((0, 1, 2, 3, 4, 5))
    assert c.successor(5) == 0
    assert c.predecessor(0) == 5
    assert c.successor(2) == 3 and c.predecessor(2) == 1
    assert len(c) == 6


def test_cycle_view_segment():
    c = CycleView((0, 1, 2, 3, 4, 5))
    assert c.segment(2, 5) == (2, 3, 4, 5)
    assert c.segment(4, 1) == (4, 5, 0, 1)
    assert c.segment(3, 3) == (3,)


def test_cycle_view_validates_arcs():
    CycleView((0, 1, 2), T3)
    with pytest.raises(ValueError):
        CycleView((0, 2, 1), T3)
    with pytest.raises(ValueError):
        CycleView((0, 1))
    with pytest.raises(ValueError):
        CycleView((0, 1, 1))


def test_cycle_view_arc_colours():
    assert CycleView((0, 1, 2), T3).arc_colours(T3) == (
        Colour.RED, Colour.BLUE, Colour.GREEN
    )


# -- qualifying Hamilton cycles -----------------------------------------------


def test_genhamilton_t3():
    r = genhamilton_check(T3)
    assert r.holds
    assert r.cycle == (0, 1, 2)
    assert r.diagnosis is None


def test_genhamilton_census_n3():
    holders = {}
    for code in range(216):
        codes = (code % 6, code // 6 % 6, code // 36)
        r = genhamilton_check(ColouredTournament.from_codes(3, list(codes)))
        if r.holds:
            holders[codes] = r.cycle
    assert holders == QUALIFYING_N3


def test_genhamilton_implies_no_dominating_vertex_and_t3_here():
    from monodom.domination import dominating_vertices, find_rainbow_triangle

    for codes, cycle in QUALIFYING_N3.items():
        t = ColouredTournament.from_codes(3, list(codes))
        assert dominating_vertices(t) == []
        assert find_rainbow_triangle(t) is not None
        assert is_qualifying_cycle(t, cycle)


def test_genhamilton_diagnosis_dominating_vertex():
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.RED, (2, 0): Colour.BLUE}
    )
    r = genhamilton_check(t)
    assert not r.holds and r.cycle is None
    assert r.diagnosis == {"reason": "dominating_vertex", "vertex": 0}


def test_genhamilton_diagnosis_multiple_non_dominated():
    t = ColouredTournament.from_codes(4, [2, 3, 1, 1, 2, 0])
    r = genhamilton_check(t)
    assert not r.holds
    d = r.diagnosis
    assert d["reason"] == "multiple_non_dominated"
    for y in d["non_dominated"]:
        assert not dominates(t, d["vertex"], y)
    assert len(d["non_dominated"]) >= 2


def test_genhamilton_diagnosis_predecessor_map_splits():
    t = ColouredTournament.from_codes(5, [1, 4, 5, 5, 1, 1, 5, 1, 3, 2])
    r = genhamilton_check(t)
    assert not r.holds
    d = r.diagnosis
    assert d["reason"] == "predecessor_map_splits"
    rel = domination_relation(t)
    for x, p in enumerate(d["pred"]):
        assert not rel.colours(x, p)  # p is x's unique non-dominated vertex
        others = [y for y in range(5) if y not in (x, p)]
        assert all(rel.colours(x, y) for y in others)
    assert sorted(v for comp in d["components"] for v in comp) == list(range(5))
    assert len(d["components"]) >= 2


def test_genhamilton_small_and_limit():
    t = ColouredTournament.from_codes(2, [0])
    r = genhamilton_check(t)
    assert not r.holds
    assert r.diagnosis == {"reason": "no_directed_cycle_possible"}
    # the forced predecessor walk is linear in n: no order limit
    big = ColouredTournament.from_codes(13, [0] * 78)
    r = genhamilton_check(big)
    assert r.diagnosis == {"reason": "dominating_vertex", "vertex": 0}


def test_genhamilton_none_at_n4_seeded():
    rng = random.Random(46656)
    for _ in range(800):
        assert not genhamilton_check(random_instance(rng, 4)).holds


def test_is_qualifying_cycle():
    assert is_qualifying_cycle(T3, (0, 1, 2))
    assert is_qualifying_cycle(T3, (1, 2, 0))  # rotation
    assert not is_qualifying_cycle(T3, (0, 2, 1))
    assert not is_qualifying_cycle(T3, (0, 1))
    assert not is_qualifying_cycle(T3, (0, 1, 1))


# -- colour-profile partitions ------------------------------------------------


def test_partition_t3_pivot0():
    cycle = CycleView((0, 1, 2), T3)
    part = colour_profile_partition(T3, 0, cycle)
    assert part.pivot == 0
    # arc into the pivot is green, so green renames to red; red stays present
    assert part.colour_map_chars() == {"g": "r", "r": "b", "b": "g"}
    assert part.blue_out == {1}
    assert part.red_in == {2}
    assert part.red_out == part.blue_in == frozenset()
    for name in ("red_out_red", "red_in_red", "blue_out_blue", "blue_in_blue"):
        assert getattr(part, name) == frozenset()


def test_partition_classes_partition_the_rest():
    for codes, order in QUALIFYING_N3.items():
        t = ColouredTournament.from_codes(3, list(codes))
        cycle = CycleView(order, t)
        for x in range(3):
            part = colour_profile_partition(t, x, cycle)
            union = part.red_out | part.red_in | part.blue_out | part.blue_in
            assert union == set(range(3)) - {x}
            assert part.red_out_red <= part.red_out
            assert part.blue_in_blue <= part.blue_in
            # green never appears after renaming: the pivot misses a colour
            mapped = set(part.colour_map.values())
            assert mapped == {Colour.RED, Colour.BLUE, Colour.GREEN}


def test_partition_rejects_three_colour_pivot():
    t = ColouredTournament.from_arcs(
        4,
        {(0, 1): Colour.RED, (0, 2): Colour.BLUE, (3, 0): Colour.GREEN,
         (1, 2): Colour.RED, (1, 3): Colour.RED, (2, 3): Colour.RED},
    )
    cycle = CycleView((0, 1, 2, 3))
    with pytest.raises(ValueError, match="all three colours"):
        colour_profile_partition(t, 0, cycle)


def test_partition_rejects_non_qualifying_cycle():
    rng = random.Random(12)
    t = random_instance(rng, 4)
    while genhamilton_check(t).holds:  # pragma: no cover - none exist at n=4
        t = random_instance(rng, 4)
    # feed some directed cycle present in the instance, or any vertex order
    with pytest.raises(ValueError, match="qualifying"):
        colour_profile_partition(t, 0, CycleView((0, 1, 2, 3)))


def test_audit_does_not_recheck_the_proved_cycle(monkeypatch):
    """audit partitions around every pivot on the cycle genhamilton_check
    proved qualifying, and checks it no further."""
    import monodom.auditor as auditor_module

    def fail(*args, **kwargs):
        raise AssertionError("cycle checked again")

    want = audit(T3).to_dict()
    monkeypatch.setattr(auditor_module, "is_qualifying_cycle", fail)
    report = audit(T3)
    assert report.finding("lemma_m") is not None and report.to_dict() == want


def test_partition_matches_its_definitions_seeded(monkeypatch):
    """Classes and refinements around every pivot meeting at most two
    colours, on instances of order 4-8 around the pinned Hamilton cycle
    0 -> 1 -> ... -> 0.  No instance of order 4 to 6 has a qualifying cycle
    and those of order 3 give empty refinements only, so the cycle is taken
    as qualifying here: the definitions do not depend on it."""
    import monodom.auditor as auditor_module

    monkeypatch.setattr(auditor_module, "is_qualifying_cycle", lambda t, order, rel=None: True)
    rng = random.Random(4812)
    refinements = ("red_out_red", "red_in_red", "blue_out_blue", "blue_in_blue")
    nonempty = 0
    for _ in range(300):
        n = rng.randrange(4, 9)
        palette = rng.sample(COLOURS, rng.choice((2, 3)))
        arcs = {}
        for i in range(n):
            for j in range(i + 1, n):
                pair = (i, j) if j == i + 1 or rng.random() < 0.5 else (j, i)
                arcs[(n - 1, 0) if (i, j) == (0, n - 1) else pair] = rng.choice(palette)
        t = ColouredTournament.from_arcs(n, arcs)
        cycle = CycleView(range(n), t)
        for x in range(n):
            if len(vertex_colour_profile(t, x)) > 2:
                continue
            part = colour_profile_partition(t, x, cycle)
            inv = {new: orig for orig, new in part.colour_map.items()}
            red, blue = inv[Colour.RED], inv[Colour.BLUE]
            assert red is t.arc_colour(cycle.predecessor(x), x)
            rest = set(range(n)) - {x}
            red_out = {v for v in rest if t.arc_colour(x, v) is red}
            red_in = {v for v in rest if t.arc_colour(v, x) is red}
            blue_out = {v for v in rest if t.arc_colour(x, v) is blue}
            blue_in = {v for v in rest if t.arc_colour(v, x) is blue}
            expect = {
                "red_out": red_out, "red_in": red_in,
                "blue_out": blue_out, "blue_in": blue_in,
                "red_out_red": {v for v in red_out if red in dominates(t, v, x)},
                "red_in_red": {v for v in red_in if red in dominates(t, x, v)},
                "blue_out_blue": {v for v in blue_out if blue in dominates(t, v, x)},
                "blue_in_blue": {v for v in blue_in if blue in dominates(t, x, v)},
            }
            for name, members in expect.items():
                assert getattr(part, name) == members, (name, x, serialize(t))
            nonempty += sum(bool(expect[name]) for name in refinements)
    assert nonempty > 100


# -- descent ------------------------------------------------------------------

# 6-vertex fixture: Hamilton cycle 0..5 in cycle order, pivot 1 meets only
# red and blue; the partition is supplied explicitly (no qualifying cycle
# exists at this order) so the round mechanics can run
DESCENT_TEXT = "6\n.b....\n..rrb.\nb..rr.\ng...gr\nb....g\nrrb...\n"


def descent_fixture():
    t = parse(DESCENT_TEXT)
    cycle = CycleView((0, 1, 2, 3, 4, 5), t)
    part = ColourProfilePartition(
        pivot=1,
        colour_map={Colour.BLUE: Colour.RED, Colour.RED: Colour.BLUE,
                    Colour.GREEN: Colour.GREEN},
        red_out=frozenset({4}), red_in=frozenset({0}),
        blue_out=frozenset({2, 3}), blue_in=frozenset({5}),
        red_out_red=frozenset({4}), red_in_red=frozenset({0}),
        blue_out_blue=frozenset({2, 3}), blue_in_blue=frozenset({5}),
    )
    return t, cycle, part


def test_descent_fixture_partition_is_faithful():
    # the hand-built sets must match their definitions on the instance
    t, cycle, part = descent_fixture()
    x = part.pivot
    assert vertex_colour_profile(t, x) == {Colour.RED, Colour.BLUE}
    assert t.arc_colour(cycle.predecessor(x), x) is Colour.BLUE  # renames to red
    inv = {v: k for k, v in part.colour_map.items()}
    for v in range(t.n):
        if v == x:
            continue
        out = t.arc_colour(x, v)
        if out is not None:
            base = part.red_out if part.colour_map[out] is Colour.RED else part.blue_out
        else:
            arc = t.arc_colour(v, x)
            base = part.red_in if part.colour_map[arc] is Colour.RED else part.blue_in
        assert v in base
    # refinements: out-members dominate the pivot, in-members are dominated
    assert all(inv[Colour.RED] in dominates(t, v, x) for v in part.red_out_red)
    assert all(inv[Colour.BLUE] in dominates(t, v, x) for v in part.blue_out_blue)
    assert all(inv[Colour.RED] in dominates(t, x, v) for v in part.red_in_red)
    assert all(inv[Colour.BLUE] in dominates(t, x, v) for v in part.blue_in_blue)


def test_descent_runs_rounds_then_stalls():
    t, cycle, part = descent_fixture()
    trace = descent_check(t, 1, cycle, partition=part)
    assert trace.pivot == 1
    assert [(r.m, r.n, r.p, r.t) for r in trace.rounds] == [(2, 0, 4, 5)]
    assert trace.obstruction == "no_admissible_p"
    assert trace.obstruction_detail == {"round": 1, "missing": "p", "exhausted": True}
    assert len(trace.rounds) <= t.n // 2
    # round 0 picks p from the dominating out-class and t from the far end
    r0 = trace.rounds[0]
    assert r0.p in part.red_out_red and r0.t in part.blue_in_blue
    seg0 = cycle.segment(r0.m, r0.n)
    assert seg0.index(r0.p) < seg0.index(r0.t)
    # the next segment is strictly inside the previous one
    assert set(cycle.segment(r0.p, r0.t)) < set(seg0)


def test_descent_blocked_scan_detail():
    # same shape, different instance: the backward scan for t hits a member
    # of the avoid class first and reports what blocked it
    t = ColouredTournament.from_codes(6, [0, 5, 3, 2, 3, 1, 0, 1, 4, 1, 1, 5, 0, 4, 1])
    cycle = CycleView((0, 1, 2, 3, 4, 5), t)
    part = ColourProfilePartition(
        pivot=1,
        colour_map={Colour.GREEN: Colour.RED, Colour.RED: Colour.BLUE,
                    Colour.BLUE: Colour.GREEN},
        red_out=frozenset({3}), red_in=frozenset({0}),
        blue_out=frozenset({2, 4}), blue_in=frozenset({5}),
        red_out_red=frozenset({3}), red_in_red=frozenset({0}),
        blue_out_blue=frozenset({2, 4}), blue_in_blue=frozenset({5}),
    )
    trace = descent_check(t, 1, cycle, partition=part)
    assert trace.obstruction == "no_admissible_t"
    assert trace.obstruction_detail["blocked_by"] == 4
    assert len(trace.rounds) == 1


def test_descent_precondition_unmet_on_t3():
    cycle = CycleView((0, 1, 2), T3)
    with pytest.raises(DescentPreconditionError, match="precondition"):
        descent_check(T3, 0, cycle)


def test_descent_witness_shape():
    t, cycle, part = descent_fixture()
    w = descent_check(t, 1, cycle, partition=part).to_witness()
    assert w == {
        "pivot": 1,
        "rounds": [{"m": 2, "n": 0, "p": 4, "t": 5}],
        "obstruction": "no_admissible_p",
        "detail": {"round": 1, "missing": "p", "exhausted": True},
    }


# -- cycle-condition checks on ad-hoc cycles ----------------------------------


def test_alternation_detects_two_colour_cycle():
    t = ColouredTournament.from_arcs(
        4,
        {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (2, 3): Colour.RED,
         (3, 0): Colour.BLUE, (0, 2): Colour.GREEN, (1, 3): Colour.GREEN},
    )
    res = _check_alternation(t, CycleView((0, 1, 2, 3), t))
    assert not res.holds
    assert res.witness == {"pattern": ["r", "b"]}
    res2 = _check_alternation(T3, CycleView((0, 1, 2), T3))
    assert res2.holds and res2.witness is None


def test_twocedges_reports_missing_third_colour():
    # pred -> succ arc exists but succ dominates pred in the arc colour
    # itself rather than only in the third colour
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (0, 2): Colour.RED}
    )
    rel = domination_relation(t)
    res = _check_twocedges(t, CycleView((0, 1, 2)), rel)
    assert not res.holds
    reasons = {v["reason"] for v in res.witness}
    assert "not_only_third_colour" in reasons


def test_xcy_segment_domination_violation():
    # 0 -r-> 1 -b-> 2: no one-colour path from 0 to 2 inside the segment
    t = ColouredTournament.from_arcs(
        4,
        {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (2, 3): Colour.RED,
         (3, 0): Colour.BLUE, (2, 0): Colour.GREEN, (1, 3): Colour.GREEN},
    )
    rel = domination_relation(t)
    res = _check_lemma_xcy(t, CycleView((0, 1, 2, 3), t), rel)
    assert not res.holds
    assert {"x": 0, "y": 2, "segment": [0, 1, 2],
            "mode": "segment_domination"} in res.witness
    for v in res.witness:
        assert v["segment"][0] == v["x"] and v["segment"][-1] == v["y"]


def test_xcy_only_colour_refinement_violation():
    # 0 dominates 2 only in green (0 -g-> 3 -g-> 4 -g-> 2), yet the green
    # witness path leaves the segment (0, 1, 2): both assertions fire
    t = ColouredTournament.from_arcs(
        5,
        {(0, 1): Colour.RED, (1, 2): Colour.BLUE, (2, 3): Colour.RED,
         (3, 4): Colour.GREEN, (4, 0): Colour.BLUE, (2, 0): Colour.BLUE,
         (0, 3): Colour.GREEN, (3, 1): Colour.RED, (4, 1): Colour.RED,
         (4, 2): Colour.GREEN},
    )
    rel = domination_relation(t)
    assert dominates(t, 0, 2) == {Colour.GREEN}
    res = _check_lemma_xcy(t, CycleView((0, 1, 2, 3, 4), t), rel)
    assert not res.holds
    modes = {(v["x"], v["y"], v["mode"]) for v in res.witness}
    assert (0, 2, "segment_domination") in modes
    assert (0, 2, "only_colour_refinement") in modes
    refined = next(v for v in res.witness if v["mode"] == "only_colour_refinement"
                   and (v["x"], v["y"]) == (0, 2))
    assert refined["colour"] == "g"


def test_obs_xxplus_flags_mutual_colour():
    # y dominates x and x's successor dominates y in the same colour
    t = ColouredTournament.from_arcs(
        3, {(0, 1): Colour.RED, (1, 2): Colour.RED, (2, 0): Colour.RED}
    )
    rel = domination_relation(t)
    res = _check_obs_xxplus(t, CycleView((0, 1, 2)), rel)
    assert not res.holds
    assert {"x": 0, "successor": 1, "vertex": 2, "colours": ["r"]} in res.witness


# -- full audit ---------------------------------------------------------------


def test_audit_t3_profile():
    report = audit(T3)
    names = [f.check for f in report.findings]
    assert names == [
        "t3", "dominating_vertex", "genhamilton", "prop_1in", "lemma_xCy",
        "obs_xxplus", "lemma_twoCedges", "prop_alternate", "lemma_disjoint",
        "lemma_m", "lemma_n",
    ]
    assert not report.finding("t3").holds
    assert report.finding("t3").witness["triangle"] == [0, 1, 2]
    assert report.finding("dominating_vertex").holds
    gh = report.finding("genhamilton")
    assert gh.holds and gh.witness == {"cycle": [0, 1, 2], "qualifying_count": 1}
    assert not report.finding("prop_1in").holds
    assert len(report.finding("prop_1in").witness) == 6  # one in + one out per vertex
    assert report.finding("lemma_xCy").holds
    assert report.finding("obs_xxplus").holds
    twoc = report.finding("lemma_twoCedges")
    assert not twoc.holds
    assert all(v["reason"] == "arc_reversed" for v in twoc.witness)
    assert report.finding("prop_alternate").holds
    assert report.finding("lemma_disjoint").holds
    assert not report.finding("lemma_m").holds
    assert not report.finding("lemma_n").holds
    assert report.finding("descent") is None  # preconditions never met here
    assert not report.alarm
    assert report.verdict == SAFE_VERDICT


def test_audit_propagates_other_descent_errors(monkeypatch):
    # audit skips only an unmet descent precondition; any other error in the
    # descent is a fault and must surface
    import monodom.auditor as auditor_module

    def broken(*args, **kwargs):
        raise ValueError("not a precondition")

    monkeypatch.setattr(auditor_module, "descent_check", broken)
    with pytest.raises(ValueError, match="not a precondition"):
        audit(T3)


def test_audit_stops_early_without_qualifying_cycle():
    rng = random.Random(64)
    t = random_instance(rng, 5)
    report = audit(t)
    assert not genhamilton_check(t).holds
    assert [f.check for f in report.findings] == [
        "t3", "dominating_vertex", "genhamilton"
    ]
    assert not report.alarm


def test_audit_all_qualifying_n3_are_safe():
    for codes in QUALIFYING_N3:
        report = audit(ColouredTournament.from_codes(3, list(codes)))
        assert not report.alarm
        assert not report.finding("t3").holds  # the triangle itself betrays them


def test_audit_to_dict_shape():
    d = audit(T3).to_dict()
    assert set(d) == {"n", "instance", "findings", "verdict"}
    assert d["n"] == 3
    assert d["verdict"] == SAFE_VERDICT
    assert all(set(f) == {"check", "holds", "witness"} for f in d["findings"])


def test_alarm_verdict_mechanics():
    report = AuditReport(T3, [CheckResult("t3", True), CheckResult("x", True)])
    assert report.alarm and report.verdict == ALARM_VERDICT
    report.findings.append(CheckResult("y", False, {"why": "because"}))
    assert not report.alarm and report.verdict == SAFE_VERDICT
