"""Acceptance gate: nine verification criteria at full stated scale.

Each test runs one criterion end to end and emits a single PASS/FAIL line
(visible with pytest -s or in captured output on failure).  Scales and time
budgets are fixed; seeds are fixed at 0 so every run sees the same samples.
"""

import random
import time

import monodom.cli as cli
from monodom.auditor import (
    CycleView,
    audit,
    colour_profile_partition,
    genhamilton_check,
)
from monodom.campaigns import (
    estimate_f,
    merge_results,
    screen_and_audit,
    search_pattern,
    verify_conjecture,
)
from monodom.core import (
    COLOURS,
    Colour,
    ColouredTournament,
    parse,
    serialize,
)
from monodom.domination import domination_relation, find_rainbow_triangle, min_cover
from monodom.enumeration import EnumerationSpec, sample_codes

SAMPLES = 10**6
RB = (Colour.RED, Colour.BLUE)


def report(label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{label}: {status} ({elapsed:.1f}s){suffix}")
    assert ok, f"{label} failed{suffix}"


def test_criterion_1_two_colour_domination():
    t0 = time.time()
    violations = 0
    for n in range(1, 6):
        r = verify_conjecture(EnumerationSpec(n=n, colours=2))
        violations += r.counts["violations"]
        assert r.counts["enumerated"] == 4 ** (n * (n - 1) // 2)
    elapsed = time.time() - t0
    report(
        "criterion 1 (2-colour dominating vertex, exhaustive n<=5)",
        violations == 0 and elapsed < 30.0,
        elapsed,
        f"violations={violations}",
    )


def test_criterion_2_conjecture_disjunction():
    t0 = time.time()
    status = cli.main(["verify", "--order", "4", "--format", "json"])
    t4 = time.time() - t0
    r5 = verify_conjecture(EnumerationSpec(n=5), progress=0)
    elapsed = time.time() - t0
    ok = (
        status == 0
        and t4 < 5.0
        and r5.counts == {
            "enumerated": 60466176, "examined": 60466176, "violations": 0
        }
        and elapsed < 900.0
    )
    report(
        "criterion 2 (T_3 or dominating vertex, exhaustive n=4 and n=5)",
        ok,
        elapsed,
        f"n=4 exit={status} in {t4:.1f}s; n=5 violations={r5.counts['violations']}",
    )


def test_criterion_3_two_colour_vertex_class():
    t0 = time.time()
    violations = 0
    examined = 0
    for n in range(1, 6):
        r = verify_conjecture(EnumerationSpec(n=n, filter="two-colour-vertices"))
        violations += r.counts["violations"]
        examined += r.counts["examined"]
    for n in (6, 7):
        r = verify_conjecture(
            EnumerationSpec(
                n=n, mode="sampled", samples=SAMPLES, seed=0,
                filter="two-colour-vertices",
            )
        )
        violations += r.counts["violations"]
        examined += r.counts["examined"]
        assert r.counts["enumerated"] == SAMPLES
    elapsed = time.time() - t0
    report(
        "criterion 3 (two-colour-vertex class, exhaustive n<=5 plus 10^6 "
        "samples at n=6,7)",
        violations == 0,
        elapsed,
        f"examined={examined}, violations={violations}",
    )


def test_criterion_4_cover_bound():
    t0 = time.time()
    max_order = 0
    uncovered = 0
    n3_max = None
    for n in range(1, 6):
        r = estimate_f(EnumerationSpec(n=n))
        uncovered += r.counts["uncovered"]
        max_order = max(max_order, r.max_cover_order)
        if n == 3:
            n3_max = r.max_cover_order
            witness = parse(r.extremal["min_cover"]["2"]["instance"])
    # the n=3 extremal witness is a cyclic rainbow triangle; brute force
    # every subset to confirm no single vertex covers it but a pair does
    assert find_rainbow_triangle(witness) is not None
    rel = domination_relation(witness)
    covered = [rel.any_rows[x] | 1 << x for x in range(3)]
    assert all(c != 0b111 for c in covered)
    assert covered[0] | covered[1] == 0b111
    assert min_cover(witness).order == 2
    elapsed = time.time() - t0
    report(
        "criterion 4 (cover order <= 3 exhaustive n<=5, n=3 max exactly 2)",
        max_order <= 3 and n3_max == 2 and uncovered == 0,
        elapsed,
        f"max_order={max_order}, n3_max={n3_max}",
    )


def test_criterion_5_alternating_pattern_search():
    t0 = time.time()
    r4 = search_pattern(4, RB)
    r6 = search_pattern(6, RB)
    elapsed = time.time() - t0
    ok = (
        r4.counts["enumerated"] == 36
        and r6.counts["enumerated"] == 10077696
        and r4.violations == 0
        and r6.violations == 0
        and elapsed < 120.0
    )
    report(
        "criterion 5 (red-blue alternating cycle search, orders 4 and 6)",
        ok,
        elapsed,
        f"survivors={r4.counts['violations'] + r6.counts['violations']}",
    )


def _reverify_witness(t, rel, finding):
    """Check a failed finding's witness against the domination engine."""
    check, w = finding.check, finding.witness
    if check == "t3":
        a, b, c = w["triangle"]
        seen = set()
        for x, y, ch in w["arcs"]:
            colour = Colour.from_char(ch)
            assert t.beats(x, y) and t.arc_colour(x, y) is colour
            seen.add(colour)
        assert seen == set(COLOURS)
        assert t.beats(a, b) and t.beats(b, c) and t.beats(c, a)
    elif check == "dominating_vertex":
        assert w["vertices"]
        for x in w["vertices"]:
            assert rel.dominates_all(x)
    elif check == "genhamilton":
        reason = w["reason"]
        if reason == "dominating_vertex":
            assert rel.dominates_all(w["vertex"])
        elif reason == "multiple_non_dominated":
            x = w["vertex"]
            assert len(w["non_dominated"]) >= 2
            for y in w["non_dominated"]:
                assert y != x and not rel.colours(x, y)
        elif reason == "predecessor_map_splits":
            pred = w["pred"]
            for x, p in enumerate(pred):
                assert not rel.colours(x, p)
                others = [y for y in range(t.n) if y not in (x, p)]
                assert all(rel.colours(x, y) for y in others)
            flat = sorted(v for comp in w["components"] for v in comp)
            assert flat == list(range(t.n))
            # the forced map must not be one n-cycle, or a qualifying
            # cycle would have been found
            walk, v = set(), 0
            for _ in range(t.n):
                v = pred[v]
                walk.add(v)
            assert not (len(walk) == t.n and v == 0)
        else:
            raise AssertionError(f"unexpected diagnosis {reason!r}")
    elif check == "prop_1in":
        for entry in w:
            x, colour = entry["vertex"], Colour.from_char(entry["colour"])
            if entry["direction"] == "in":
                arcs = [y for y in t.in_neighbours(x) if t.arc_colour(y, x) is colour]
                assert len({t.arc_colour(y, x) for y in t.in_neighbours(x)}) == 1
            else:
                arcs = [y for y in t.out_neighbours(x) if t.arc_colour(x, y) is colour]
                assert len({t.arc_colour(x, y) for y in t.out_neighbours(x)}) == 1
            assert arcs
    elif check == "lemma_twoCedges":
        for entry in w:
            pred, succ = entry["pred"], entry["succ"]
            if entry["reason"] == "arc_reversed":
                assert t.beats(succ, pred)
            else:
                got = {c.char for c in rel.colours(succ, pred)}
                assert got == set(entry["colours"]) and got != {entry["expected"]}
    elif check in ("lemma_m", "lemma_n"):
        cycle = CycleView(genhamilton_check(t, rel).cycle, t)
        for entry in w:
            part = colour_profile_partition(t, entry["pivot"], cycle, rel)
            assert part.colour_map_chars() == entry["renaming"]
            if "empty_set" in entry:
                assert getattr(part, entry["empty_set"]) == frozenset()
            else:
                assert entry["reason"] == "no_member_with_successor_outside_blue_out"
                assert part.red_in_red and all(
                    cycle.successor(v) in part.blue_out for v in part.red_in_red
                )
    else:
        raise AssertionError(f"no re-verifier for failed check {check!r}")


def test_criterion_6_auditor_soundness():
    t0 = time.time()
    alarms = 0
    candidates = 0
    # orders 1 and 2 cannot carry a cycle, so audit them outright
    alarms += audit(ColouredTournament.from_codes(1, [])).alarm
    for code in range(6):
        alarms += audit(ColouredTournament.from_codes(2, [code])).alarm
    # the search screen (qualifying cycle, no T_3, no dominating vertex)
    # passes only instances whose audit could reach the all-pass verdict,
    # and audits each of them
    specs = [EnumerationSpec(n=n) for n in range(3, 6)] + [
        EnumerationSpec(n=n, mode="sampled", samples=SAMPLES, seed=0)
        for n in (6, 7, 8, 9)
    ]
    for spec in specs:
        r = screen_and_audit(spec)
        candidates += r.counts["violations"]
        alarms += r.counts["alarms"]

    # witness re-verification over 1,000 sampled reports, plus the twelve
    # 3-vertex instances whose audits exercise the deep cycle checks
    instances = []
    for n in (4, 5, 6, 7, 8):
        spec = EnumerationSpec(n=n, mode="sampled", samples=200, seed=2024)
        instances += [
            ColouredTournament.from_codes(n, [int(c) for c in sample_codes(spec, i)])
            for i in range(200)
        ]
    for code in range(216):
        t = ColouredTournament.from_codes(3, [code % 6, code // 6 % 6, code // 36])
        if genhamilton_check(t).holds:
            instances.append(t)
    assert len(instances) == 1012
    reverified = 0
    for t in instances:
        rel = domination_relation(t)
        for finding in audit(t).findings:
            if not finding.holds:
                _reverify_witness(t, rel, finding)
                reverified += 1
    elapsed = time.time() - t0
    report(
        "criterion 6 (no all-conditions-pass audit, exhaustive n<=5 plus "
        "10^6 samples at n=6..9; witnesses re-verified)",
        alarms == 0 and reverified >= 1000,
        elapsed,
        f"alarm_candidates={candidates}, alarms={alarms}, "
        f"witnesses={reverified}",
    )


def test_criterion_7_closure_equals_bfs():
    t0 = time.time()
    rng = random.Random(0)
    checked = 0
    for _ in range(1000):
        n = rng.randrange(2, 9)
        codes = [rng.randrange(6) for _ in range(n * (n - 1) // 2)]
        t = ColouredTournament.from_codes(n, codes)
        rel = domination_relation(t)
        for c in COLOURS:
            for src in range(n):
                seen, frontier = set(), [src]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for y in t.out_neighbours(x):
                            if t.arc_colour(x, y) is c and y not in seen:
                                seen.add(y)
                                nxt.append(y)
                    frontier = nxt
                assert int(rel.rows[c][src]) == sum(1 << y for y in seen)
        checked += 1
    elapsed = time.time() - t0
    report(
        "criterion 7 (bit-row closure equals per-source BFS, 1000 instances)",
        checked == 1000,
        elapsed,
    )


def test_criterion_8_determinism_and_sharding():
    t0 = time.time()
    whole = verify_conjecture(EnumerationSpec(n=4))
    parts = [
        verify_conjecture(EnumerationSpec(n=4, shard=(k, 4))) for k in range(4)
    ]
    merged_ok = merge_results(parts).to_json() == whole.to_json()
    spec = EnumerationSpec(n=6, mode="sampled", samples=100000, seed=7)
    sampled_ok = verify_conjecture(spec).to_json() == verify_conjecture(spec).to_json()
    elapsed = time.time() - t0
    report(
        "criterion 8 (4-shard merge byte-equality; sampled repeatability)",
        merged_ok and sampled_ok,
        elapsed,
        f"merge={merged_ok}, sampled={sampled_ok}",
    )


def test_criterion_9_round_trip():
    t0 = time.time()
    rng = random.Random(1)
    ok = 0
    for _ in range(10000):
        n = rng.randrange(1, 9)
        codes = [rng.randrange(6) for _ in range(n * (n - 1) // 2)]
        t = ColouredTournament.from_codes(n, codes)
        if parse(serialize(t)) == t:
            ok += 1
    elapsed = time.time() - t0
    report(
        "criterion 9 (parse/serialize identity on 10000 instances)",
        ok == 10000,
        elapsed,
        f"{ok}/10000",
    )
