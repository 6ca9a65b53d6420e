"""Structural necessary-condition checks for minimal-counterexample candidates.

A minimal counterexample to the domination conjecture (no cyclic rainbow
triangle, no dominating vertex, minimal under induced subtournaments) is known
to carry a directed Hamilton cycle on which every vertex dominates every
vertex except its predecessor, and to satisfy a list of further structural
conditions around that cycle.  The auditor executes every one of those
conditions on a candidate tournament and reports, per check, whether it holds,
with a re-checkable witness for every failure.

A report in which every check holds is an alarm state: such a tournament
would be a candidate minimal counterexample and refute the conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import COLOURS, Colour, ColouredTournament, report_dict, serialize
from .domination import (
    DominationRelation,
    dominating_vertices,
    domination_relation,
    find_rainbow_triangle,
    vertex_colour_profile,
)

SAFE_VERDICT = "cannot be a minimal counterexample"
ALARM_VERDICT = "ALL NECESSARY CONDITIONS PASS"


class CycleView:
    """A directed cycle as a rotation-indexed vertex sequence.

    Supports successor/predecessor lookup and segment extraction along the
    cycle orientation.  When a tournament is supplied, consecutive vertices
    must be joined by arcs in cycle direction.
    """

    __slots__ = ("order", "_pos")

    def __init__(self, order: Sequence[int], t: ColouredTournament | None = None):
        self.order = tuple(order)
        if len(self.order) < 3:
            raise ValueError("a directed cycle needs at least 3 vertices")
        if len(set(self.order)) != len(self.order):
            raise ValueError("cycle vertices must be distinct")
        self._pos = {v: i for i, v in enumerate(self.order)}
        if t is not None:
            for v, w in zip(self.order, self.order[1:] + self.order[:1]):
                if not t.beats(v, w):
                    raise ValueError(f"missing cycle arc {v} -> {w}")

    def __len__(self) -> int:
        return len(self.order)

    def successor(self, x: int) -> int:
        """x^+, the next vertex along the cycle."""
        return self.order[(self._pos[x] + 1) % len(self.order)]

    def predecessor(self, x: int) -> int:
        """x^-, the previous vertex along the cycle."""
        return self.order[self._pos[x] - 1]

    def segment(self, x: int, y: int) -> tuple[int, ...]:
        """Vertices of the directed subpath xCy, endpoints included."""
        i, j = self._pos[x], self._pos[y]
        n = len(self.order)
        return tuple(self.order[(i + k) % n] for k in range((j - i) % n + 1))

    def arc_colours(self, t: ColouredTournament) -> tuple[Colour, ...]:
        """Colour of each cycle arc v_i -> v_{i+1}, in cycle order."""
        return tuple(
            t.arc_colour(v, w)  # type: ignore[misc]
            for v, w in zip(self.order, self.order[1:] + self.order[:1])
        )


@dataclass(frozen=True)
class GenHamiltonResult:
    """Outcome of the qualifying-Hamilton-cycle search."""

    holds: bool
    cycle: tuple[int, ...] | None
    diagnosis: dict | None = None


def _non_dominated_masks(t: ColouredTournament, rel: DominationRelation) -> list[int]:
    full = (1 << t.n) - 1
    return [full & ~rel.any_rows[x] & ~(1 << x) for x in range(t.n)]


def genhamilton_check(
    t: ColouredTournament, rel: DominationRelation | None = None
) -> GenHamiltonResult:
    """Search for a Hamilton cycle on which every vertex dominates every
    vertex except its predecessor (and fails to dominate that predecessor).

    Such a cycle exists iff every vertex misses exactly one vertex, its
    forced predecessor, and the walk from vertex 0 along that map first
    returns to 0 after n steps; the cycle is then unique up to rotation and
    its arcs are forced (v not dominating u implies the arc u -> v).
    """
    n = t.n
    rel = rel or domination_relation(t)
    if n < 3:
        return GenHamiltonResult(False, None, {"reason": "no_directed_cycle_possible"})
    nd = _non_dominated_masks(t, rel)
    if all(m and not m & (m - 1) for m in nd):
        pred = [m.bit_length() - 1 for m in nd]
        walk = [0]
        while len(walk) < n and pred[walk[-1]] != 0:
            walk.append(pred[walk[-1]])
        if len(walk) == n and pred[walk[-1]] == 0:
            return GenHamiltonResult(True, (0, *reversed(walk[1:])))
    return GenHamiltonResult(False, None, _genhamilton_diagnosis(t, nd))


def _genhamilton_diagnosis(t: ColouredTournament, nd: list[int]) -> dict:
    """Engine-checkable reason why no qualifying cycle can exist."""
    for x in range(t.n):
        if nd[x] == 0:
            return {"reason": "dominating_vertex", "vertex": x}
    for x in range(t.n):
        if nd[x] & (nd[x] - 1):
            missed = [y for y in range(t.n) if nd[x] >> y & 1]
            return {"reason": "multiple_non_dominated", "vertex": x, "non_dominated": missed}
    # every nd set is a singleton: the forced predecessor map is not one n-cycle
    pred = [nd[x].bit_length() - 1 for x in range(t.n)]
    components, unseen = [], set(range(t.n))
    while unseen:
        v = min(unseen)
        comp = []
        while v in unseen:
            unseen.remove(v)
            comp.append(v)
            v = pred[v]
        components.append(comp)
    return {"reason": "predecessor_map_splits", "pred": pred, "components": components}


def is_qualifying_cycle(
    t: ColouredTournament, order: Sequence[int], rel: DominationRelation | None = None
) -> bool:
    """Does this Hamilton cycle satisfy the dominates-all-but-predecessor law?"""
    if len(order) != t.n or len(set(order)) != t.n:
        return False
    rel = rel or domination_relation(t)
    view = CycleView(order)
    for x in order:
        pred = view.predecessor(x)
        if rel.colours(x, pred):
            return False
        for y in range(t.n):
            if y not in (x, pred) and not rel.colours(x, y):
                return False
    return True


# -- colour-profile partitions around a two-colour pivot ---------------------


@dataclass(frozen=True)
class ColourProfilePartition:
    """Direction/colour classes around a pivot missing one colour.

    Colours are renamed so the missing colour is green and the cycle arc
    entering the pivot is red; colour_map sends original colours to renamed
    ones.  Vertex sets keep original labels:

      red_out:  pivot sends a red arc     red_in:  pivot receives a red arc
      blue_out: pivot sends a blue arc    blue_in: pivot receives a blue arc

    Four refinements carry the class's own colour as the domination colour:
    out-class members that dominate the pivot in it (red_out_red,
    blue_out_blue), and in-class members that the pivot dominates in it
    (red_in_red, blue_in_blue).
    """

    pivot: int
    colour_map: dict[Colour, Colour]
    red_out: frozenset[int]
    red_in: frozenset[int]
    blue_out: frozenset[int]
    blue_in: frozenset[int]
    red_out_red: frozenset[int]
    red_in_red: frozenset[int]
    blue_out_blue: frozenset[int]
    blue_in_blue: frozenset[int]

    def colour_map_chars(self) -> dict[str, str]:
        return {orig.char: new.char for orig, new in self.colour_map.items()}


def colour_profile_partition(
    t: ColouredTournament,
    x: int,
    cycle: CycleView,
    rel: DominationRelation | None = None,
) -> ColourProfilePartition:
    """Compute the four classes and their four refinements around pivot x on
    a qualifying cycle.

    The pivot must meet at most two colours; the supplied cycle must be a
    qualifying Hamilton cycle.  Renaming: missing colour -> green, colour of
    the cycle arc into x -> red, the remaining colour -> blue (realizing the
    x^--receives-red normalization deterministically).
    """
    rel = rel or domination_relation(t)
    present = vertex_colour_profile(t, x)
    if len(present) > 2:
        raise ValueError(f"vertex {x} is incident to all three colours")
    if len(cycle) != t.n or not is_qualifying_cycle(t, cycle.order, rel):
        raise ValueError("cycle is not a qualifying Hamilton cycle")
    return _pivot_partition(t, x, cycle, rel, present)


def _pivot_partition(
    t: ColouredTournament,
    x: int,
    cycle: CycleView,
    rel: DominationRelation,
    present: frozenset[Colour],
) -> ColourProfilePartition:
    """colour_profile_partition without its checks: `present` is the pivot's
    colour profile, of at most two colours, and the cycle qualifies."""
    pred = cycle.predecessor(x)
    in_colour = t.arc_colour(pred, x)
    assert in_colour is not None  # cycle arc pred -> x
    others = [c for c in COLOURS if c is not in_colour]
    # prefer the other *present* colour as blue; spare missing colours to green
    others.sort(key=lambda c: (c not in present, c))
    mapping = {in_colour: Colour.RED, others[0]: Colour.BLUE, others[1]: Colour.GREEN}

    out_sets = {Colour.RED: set(), Colour.BLUE: set()}
    in_sets = {Colour.RED: set(), Colour.BLUE: set()}
    for v in range(t.n):
        if v == x:
            continue
        arc = t.arc_colour(x, v)
        if arc is not None:
            out_sets[mapping[arc]].add(v)
        else:
            in_sets[mapping[t.arc_colour(v, x)]].add(v)  # type: ignore[index]

    # renamed red and blue are, through the inverse map, in_colour and others[0]
    red, blue = rel.rows[in_colour], rel.rows[others[0]]

    def refine_out(members: set[int], rows: tuple[int, ...]) -> frozenset[int]:
        return frozenset(v for v in members if rows[v] >> x & 1)

    def refine_in(members: set[int], rows: tuple[int, ...]) -> frozenset[int]:
        return frozenset(v for v in members if rows[x] >> v & 1)

    return ColourProfilePartition(
        pivot=x,
        colour_map=mapping,
        red_out=frozenset(out_sets[Colour.RED]),
        red_in=frozenset(in_sets[Colour.RED]),
        blue_out=frozenset(out_sets[Colour.BLUE]),
        blue_in=frozenset(in_sets[Colour.BLUE]),
        red_out_red=refine_out(out_sets[Colour.RED], red),
        red_in_red=refine_in(in_sets[Colour.RED], red),
        blue_out_blue=refine_out(out_sets[Colour.BLUE], blue),
        blue_in_blue=refine_in(in_sets[Colour.BLUE], blue),
    )


# -- nested-path descent ------------------------------------------------------


@dataclass(frozen=True)
class DescentRound:
    m: int
    n: int
    p: int | None
    t: int | None


@dataclass(frozen=True)
class DescentTrace:
    """Nested-path descent record; stalling is the expected outcome.

    A genuine minimal counterexample would admit the p/t step forever, which
    is impossible in a finite tournament; the round at which the step fails
    is recorded as the obstruction.
    """

    pivot: int
    rounds: tuple[DescentRound, ...]
    obstruction: str
    obstruction_detail: dict | None = None

    def to_witness(self) -> dict:
        return {
            "pivot": self.pivot,
            "rounds": [
                {"m": r.m, "n": r.n, "p": r.p, "t": r.t} for r in self.rounds
            ],
            "obstruction": self.obstruction,
            "detail": self.obstruction_detail,
        }


class DescentPreconditionError(ValueError):
    """The partition has no starting pair (m, n) for the descent."""


def _scan(
    segment: Sequence[int], want: frozenset[int], avoid: frozenset[int]
) -> tuple[int | None, dict | None]:
    """First vertex of segment in `want` with no earlier (or equal) vertex in
    `avoid`; returns (vertex, None) or (None, failure detail)."""
    for v in segment:
        if v in avoid:
            return None, {"blocked_by": v}
        if v in want:
            return v, None
    return None, {"exhausted": True}


def descent_check(
    t: ColouredTournament,
    x: int,
    cycle: CycleView,
    partition: ColourProfilePartition | None = None,
) -> DescentTrace:
    """Run the nested-subpath descent around pivot x until it stalls.

    Each round searches the current segment for p (in the out-class whose
    members dominate the pivot in the arc colour) reachable without touching
    the opposite in-class, and symmetrically for t from the far end; colour
    roles swap every round and segments must strictly shrink.  The returned
    trace records every round and the obstruction that stopped the descent.
    """
    part = partition or colour_profile_partition(t, x, cycle)

    ms = sorted(part.blue_out_blue)
    ns = sorted(part.red_in_red)
    # prefer an n whose successor leaves blue_out entirely: then any m works
    preferred = [v for v in ns if cycle.successor(v) not in part.blue_out]
    if ms and preferred:
        start_m, start_n = ms[0], preferred[0]
    else:
        pair = next(
            ((m, v) for m in ms for v in ns if cycle.successor(v) != m), None
        )
        if pair is None:
            raise DescentPreconditionError(
                "descent precondition unmet: need m in blue_out_blue and "
                "n in red_in_red with m != successor(n)"
            )
        start_m, start_n = pair

    roles = (
        (part.red_out_red, part.blue_in, part.blue_in_blue, part.red_out),
        (part.blue_out_blue, part.red_in, part.red_in_red, part.blue_out),
    )
    segment = list(cycle.segment(start_m, start_n))
    rounds: list[DescentRound] = []
    parity = 0
    while True:
        p_set, p_avoid, t_set, t_avoid = roles[parity]
        p, p_fail = _scan(segment, p_set, p_avoid)
        if p is None:
            detail = {"round": len(rounds), "missing": "p", **(p_fail or {})}
            return DescentTrace(x, tuple(rounds), "no_admissible_p", detail)
        tt, t_fail = _scan(list(reversed(segment)), t_set, t_avoid)
        if tt is None:
            detail = {"round": len(rounds), "missing": "t", **(t_fail or {})}
            return DescentTrace(x, tuple(rounds), "no_admissible_t", detail)
        pi, ti = segment.index(p), segment.index(tt)
        rounds.append(DescentRound(segment[0], segment[-1], p, tt))
        if pi >= ti:
            detail = {"round": len(rounds) - 1, "p": p, "t": tt}
            return DescentTrace(x, tuple(rounds), "p_not_before_t", detail)
        new_segment = segment[pi : ti + 1]
        if len(new_segment) >= len(segment):
            detail = {"round": len(rounds) - 1}
            return DescentTrace(x, tuple(rounds), "no_progress", detail)
        segment = new_segment
        parity ^= 1


# -- the audit ----------------------------------------------------------------


@dataclass
class CheckResult:
    """One necessary condition: holds means the condition is satisfied."""

    check: str
    holds: bool
    witness: object | None = None

    def to_dict(self) -> dict:
        return {"check": self.check, "holds": self.holds, "witness": self.witness}


@dataclass
class AuditReport:
    instance: ColouredTournament
    findings: list[CheckResult] = field(default_factory=list)

    @property
    def alarm(self) -> bool:
        return all(f.holds for f in self.findings)

    @property
    def verdict(self) -> str:
        return ALARM_VERDICT if self.alarm else SAFE_VERDICT

    def finding(self, name: str) -> CheckResult | None:
        return next((f for f in self.findings if f.check == name), None)

    def to_dict(self) -> dict:
        payload = report_dict(self.instance, [f.to_dict() for f in self.findings])
        payload["verdict"] = self.verdict
        return payload


def _check_prop_1in(t: ColouredTournament) -> CheckResult:
    violations = []
    for x in range(t.n):
        ins = {t.arc_colour(y, x) for y in t.in_neighbours(x)}
        outs = {t.arc_colour(x, y) for y in t.out_neighbours(x)}
        if len(ins) == 1:
            violations.append({"vertex": x, "direction": "in", "colour": ins.pop().char})
        if len(outs) == 1:
            violations.append({"vertex": x, "direction": "out", "colour": outs.pop().char})
    return CheckResult("prop_1in", not violations, violations or None)


def _check_lemma_xcy(
    t: ColouredTournament, cycle: CycleView, rel: DominationRelation
) -> CheckResult:
    violations = []
    for x in cycle.order:
        pred = cycle.predecessor(x)
        for y in range(t.n):
            if y in (x, pred):
                continue
            segment = cycle.segment(x, y)
            sub, labels = t.induced(segment)
            sub_rel = domination_relation(sub)
            sx, sy = labels.index(x), labels.index(y)
            inside = sub_rel.colours(sx, sy)
            outside = rel.colours(x, y)
            # two independent assertions: x dominates y somewhere within the
            # segment, and an only-colour domination is realized within it
            if not inside:
                violations.append(
                    {"x": x, "y": y, "segment": list(segment), "mode": "segment_domination"}
                )
            if len(outside) == 1 and not outside <= inside:
                violations.append(
                    {
                        "x": x,
                        "y": y,
                        "segment": list(segment),
                        "mode": "only_colour_refinement",
                        "colour": next(iter(outside)).char,
                    }
                )
    return CheckResult("lemma_xCy", not violations, violations or None)


def _check_obs_xxplus(
    t: ColouredTournament, cycle: CycleView, rel: DominationRelation
) -> CheckResult:
    violations = []
    for x in cycle.order:
        succ = cycle.successor(x)
        for y in range(t.n):
            if y in (x, succ):
                continue
            shared = rel.colours(y, x) & rel.colours(succ, y)
            if shared:
                violations.append(
                    {
                        "x": x,
                        "successor": succ,
                        "vertex": y,
                        "colours": sorted(c.char for c in shared),
                    }
                )
    return CheckResult("obs_xxplus", not violations, violations or None)


def _check_twocedges(
    t: ColouredTournament, cycle: CycleView, rel: DominationRelation
) -> CheckResult:
    violations = []
    for x in cycle.order:
        pred, succ = cycle.predecessor(x), cycle.successor(x)
        c_in = t.arc_colour(pred, x)
        c_out = t.arc_colour(x, succ)
        if c_in == c_out:
            continue
        third = next(c for c in COLOURS if c not in (c_in, c_out))
        if not t.beats(pred, succ):
            violations.append(
                {"x": x, "pred": pred, "succ": succ, "reason": "arc_reversed"}
            )
            continue
        colours = rel.colours(succ, pred)
        if colours != {third}:
            violations.append(
                {
                    "x": x,
                    "pred": pred,
                    "succ": succ,
                    "reason": "not_only_third_colour",
                    "expected": third.char,
                    "colours": sorted(c.char for c in colours),
                }
            )
    return CheckResult("lemma_twoCedges", not violations, violations or None)


def _check_alternation(t: ColouredTournament, cycle: CycleView) -> CheckResult:
    cs = cycle.arc_colours(t)
    n = len(cs)
    alternates = (
        n % 2 == 0
        and cs[0] != cs[1]
        and all(cs[i] == cs[i % 2] for i in range(n))
    )
    witness = {"pattern": [cs[0].char, cs[1].char]} if alternates else None
    return CheckResult("prop_alternate", not alternates, witness)


def _check_lemma_disjoint(
    t: ColouredTournament, pivots: list[int], rel: DominationRelation
) -> CheckResult:
    # a two-colour pivot can only be dominated (or dominate) in its two
    # incident colours, so "both red and blue" is simply two distinct colours
    violations = []
    for x in pivots:
        for v in range(t.n):
            if v == x:
                continue
            up = rel.colours(v, x)
            if len(up) >= 2:
                violations.append(
                    {
                        "pivot": x,
                        "vertex": v,
                        "direction": "dominates_pivot",
                        "colours": sorted(c.char for c in up),
                    }
                )
            down = rel.colours(x, v)
            if len(down) >= 2:
                violations.append(
                    {
                        "pivot": x,
                        "vertex": v,
                        "direction": "dominated_by_pivot",
                        "colours": sorted(c.char for c in down),
                    }
                )
    return CheckResult("lemma_disjoint", not violations, violations or None)


def audit(t: ColouredTournament) -> AuditReport:
    """Run every necessary-condition check and aggregate the findings.

    Order: rainbow-triangle presence, dominating-vertex presence, qualifying
    Hamilton cycle; then, when a qualifying cycle exists, the per-vertex and
    per-segment cycle conditions, and the pivot partition conditions for
    every vertex meeting at most two colours.
    """
    rel = domination_relation(t)
    report = AuditReport(t)

    tri = find_rainbow_triangle(t, require_cyclic=True)
    witness = None if tri is None else tri.to_dict()
    report.findings.append(CheckResult("t3", tri is None, witness))

    doms = dominating_vertices(t, rel)
    report.findings.append(
        CheckResult("dominating_vertex", not doms, {"vertices": doms} if doms else None)
    )

    gh = genhamilton_check(t, rel)
    gh_witness: dict | None
    if gh.holds:
        # the qualifying cycle is unique up to rotation
        gh_witness = {"cycle": list(gh.cycle or ()), "qualifying_count": 1}
    else:
        gh_witness = gh.diagnosis
    report.findings.append(CheckResult("genhamilton", gh.holds, gh_witness))
    if not gh.holds:
        return report

    cycle = CycleView(gh.cycle, t)  # type: ignore[arg-type]
    report.findings.append(_check_prop_1in(t))
    report.findings.append(_check_lemma_xcy(t, cycle, rel))
    report.findings.append(_check_obs_xxplus(t, cycle, rel))
    report.findings.append(_check_twocedges(t, cycle, rel))
    report.findings.append(_check_alternation(t, cycle))

    profiles = {x: vertex_colour_profile(t, x) for x in range(t.n)}
    pivots = [x for x, present in profiles.items() if len(present) <= 2]
    if not pivots:
        return report

    report.findings.append(_check_lemma_disjoint(t, pivots, rel))

    m_failures, n_failures, traces = [], [], []
    for x in pivots:
        # genhamilton_check has proved the cycle qualifying
        part = _pivot_partition(t, x, cycle, rel, profiles[x])
        renaming = part.colour_map_chars()
        for name, members in (
            ("blue_out_blue", part.blue_out_blue),
            ("blue_in_blue", part.blue_in_blue),
        ):
            if not members:
                m_failures.append({"pivot": x, "empty_set": name, "renaming": renaming})
        for name, members in (
            ("red_out_red", part.red_out_red),
            ("red_in_red", part.red_in_red),
        ):
            if not members:
                n_failures.append({"pivot": x, "empty_set": name, "renaming": renaming})
        if part.red_in_red and not any(
            cycle.successor(v) not in part.blue_out for v in part.red_in_red
        ):
            n_failures.append(
                {"pivot": x, "reason": "no_member_with_successor_outside_blue_out",
                 "renaming": renaming}
            )
        try:
            traces.append(descent_check(t, x, cycle, part))
        except DescentPreconditionError:
            pass  # preconditions failed; recorded via lemma_m / lemma_n above
    report.findings.append(CheckResult("lemma_m", not m_failures, m_failures or None))
    report.findings.append(CheckResult("lemma_n", not n_failures, n_failures or None))
    if traces:
        # a stalled descent violates the infinite-nesting consequence, which
        # is exactly what rules the candidate out
        report.findings.append(
            CheckResult("descent", False, [tr.to_witness() for tr in traces])
        )
    return report
