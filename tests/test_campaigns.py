"""Campaign counts, merge exactness, sampled determinism, parallel runs."""

import hashlib
import multiprocessing
import pickle
import sys
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from monodom import campaigns, enumeration, kernel
from monodom.auditor import AuditReport, CheckResult, audit
from monodom.campaigns import (
    BATCH_ROWS,
    CampaignResult,
    estimate_f,
    merge_results,
    run_parallel,
    screen_and_audit,
    search_pattern,
    verify_conjecture,
)
from monodom.core import Colour, parse
from monodom.domination import find_rainbow_triangle
from monodom.enumeration import (
    SAMPLE_BLOCK_ROWS,
    EnumerationSpec,
    enumerate_instances,
    shard_indices,
)

RB = (Colour.RED, Colour.BLUE)
RGB = (Colour.RED, Colour.GREEN, Colour.BLUE)


def test_conjecture_exhaustive_n3():
    r = verify_conjecture(EnumerationSpec(n=3))
    assert r.counts == {"enumerated": 216, "examined": 216, "violations": 0}
    assert r.violators == []
    assert r.violations == 0


def test_conjecture_exhaustive_n4():
    r = verify_conjecture(EnumerationSpec(n=4))
    assert r.counts == {"enumerated": 46656, "examined": 46656, "violations": 0}


def test_ssw2_exhaustive_small():
    for n in (1, 2, 3, 4):
        r = verify_conjecture(EnumerationSpec(n=n, colours=2))
        assert r.counts["violations"] == 0
        assert r.counts["enumerated"] == 4 ** (n * (n - 1) // 2)


def test_conjecture_violators_rest_on_the_dominating_mask(monkeypatch):
    """With a dominating mask that finds nothing, every T_3-free row is a
    violator.  At two colours that is every row: a T_3 mask decoding
    2-colour codes as 3-colour ones would excuse some of them."""
    monkeypatch.setattr(kernel, "dominating_vertex_mask",
                        lambda reach, n, ws=None: np.zeros(len(reach), dtype=bool))
    for spec in (EnumerationSpec(n=4, colours=2),
                 EnumerationSpec(n=6, colours=2, mode="sampled", samples=5000, seed=2)):
        r = verify_conjecture(spec)
        assert r.counts["violations"] == r.counts["enumerated"]
    # with three colours the violators are then the T_3-free rows: 216 less
    # the 12 cyclic rainbow triangles
    r = verify_conjecture(EnumerationSpec(n=3))
    assert r.counts["violations"] == 204
    assert not any(find_rainbow_triangle(parse(v["instance"])) for v in r.violators)


def test_filtered_campaign_counts():
    r = verify_conjecture(EnumerationSpec(n=4, filter="two-colour-vertices"))
    assert r.counts["enumerated"] == 46656
    assert r.counts["examined"] == 17856  # instances meeting the vertex filter
    assert r.counts["violations"] == 0


def test_merge_equals_unsharded_json():
    whole = verify_conjecture(EnumerationSpec(n=4))
    parts = [
        verify_conjecture(EnumerationSpec(n=4, shard=(k, 4))) for k in range(4)
    ]
    merged = merge_results(parts)
    assert merged.to_json() == whole.to_json()


def test_merge_estimate_f_keeps_least_witness():
    whole = estimate_f(EnumerationSpec(n=3))
    parts = [estimate_f(EnumerationSpec(n=3, shard=(k, 3))) for k in range(3)]
    merged = merge_results(parts)
    assert merged.to_json() == whole.to_json()


def test_merge_search_pattern():
    whole = search_pattern(4, RB)
    parts = [search_pattern(4, RB, shard=(k, 2)) for k in range(2)]
    merged = merge_results(parts)
    assert merged.to_json() == whole.to_json()


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        merge_results([])


def test_merge_rejects_results_of_different_specs():
    base = EnumerationSpec(n=4, mode="sampled", samples=10, seed=1, pattern=RB)
    halves = [CampaignResult(replace(base, shard=(k, 2)), {"enumerated": 5}) for k in range(2)]
    assert merge_results(halves).spec == base
    assert merge_results(halves[::-1], spec=base).counts == {"enumerated": 10}
    for other in (replace(base, seed=2), replace(base, samples=11), replace(base, n=6),
                  replace(base, pattern=RGB[:2]), replace(base, colours=2, pattern=None),
                  replace(base, filter="two-colour-vertices"),
                  replace(base, mode="exhaustive", samples=0, seed=0)):
        stray = CampaignResult(replace(other, shard=(1, 2)), {"enumerated": 5})
        with pytest.raises(ValueError, match="different specs"):
            merge_results([halves[0], stray])
        with pytest.raises(ValueError, match="different specs"):
            merge_results(halves, spec=other)


def test_merged_alarms_keep_the_lowest_indices(monkeypatch):
    """With every row an alarm, the unsharded search keeps the first
    VIOLATOR_CAP alarms; a merge of its shards must keep the same ones."""
    none = lambda rows, *a, **k: np.zeros(len(rows), dtype=bool)  # noqa: E731
    monkeypatch.setattr(campaigns, "VIOLATOR_CAP", 2)
    monkeypatch.setattr(kernel, "qualifying_cycle_mask",
                        lambda reach, n, ws=None: np.ones(len(reach), dtype=bool))
    monkeypatch.setattr(kernel, "rainbow_triangle_mask", none)
    monkeypatch.setattr(kernel, "dominating_vertex_mask", none)
    monkeypatch.setattr(campaigns, "audit", lambda t: AuditReport(t, [CheckResult("t3", True)]))
    whole = search_pattern(4, RB)
    assert whole.counts["alarms"] == whole.counts["enumerated"] == 36
    assert sorted(whole.extremal["alarms"]) == ["0", "1"]
    parts = [search_pattern(4, RB, shard=(k, 3)) for k in range(3)]
    assert all(len(p.extremal["alarms"]) == 2 for p in parts)
    assert merge_results(parts).to_json() == whole.to_json()


def test_search_histograms_failing_audit_findings(monkeypatch):
    """With every row a weak violator, check_failures holds exactly the
    failing findings of audit on each completion, and shards merge to it."""
    none = lambda rows, *a, **k: np.zeros(len(rows), dtype=bool)  # noqa: E731
    monkeypatch.setattr(kernel, "qualifying_cycle_mask",
                        lambda reach, n, ws=None: np.ones(len(reach), dtype=bool))
    monkeypatch.setattr(kernel, "rainbow_triangle_mask", none)
    monkeypatch.setattr(kernel, "dominating_vertex_mask", none)
    expected = {"t3": 0, "dominating_vertex": 0, "genhamilton": 0}
    alarms = 0
    for _, t in enumerate_instances(EnumerationSpec(n=4, pattern=RB)):
        report = audit(t)
        alarms += report.alarm
        for f in report.findings:
            if not f.holds:
                expected[f.check] = expected.get(f.check, 0) + 1
    whole = search_pattern(4, RB)
    assert whole.counts == {"alarms": alarms, "enumerated": 36, "examined": 36,
                            "violations": 36}
    assert whole.check_failures == expected
    assert sum(expected.values()) > 0
    parts = [search_pattern(4, RB, shard=(k, 3)) for k in range(3)]
    assert merge_results(parts).to_json() == whole.to_json()


def test_sampled_runs_byte_identical():
    spec = EnumerationSpec(n=6, mode="sampled", samples=20000, seed=42)
    a = verify_conjecture(spec)
    b = verify_conjecture(spec)
    assert a.to_json() == b.to_json()
    assert a.counts["enumerated"] == 20000
    assert a.to_dict()["seed"] == 42


def test_sampled_shards_merge_to_whole():
    whole = verify_conjecture(EnumerationSpec(n=6, mode="sampled", samples=9000, seed=3))
    parts = [
        verify_conjecture(
            EnumerationSpec(n=6, mode="sampled", samples=9000, seed=3, shard=(k, 3))
        )
        for k in range(3)
    ]
    assert merge_results(parts).to_json() == whole.to_json()


def test_estimate_f_n3_frozen():
    r = estimate_f(EnumerationSpec(n=3))
    assert r.counts == {
        "enumerated": 216, "examined": 216, "violations": 0, "uncovered": 0
    }
    assert r.max_cover_order == 2
    witnesses = r.extremal["min_cover"]
    assert witnesses["1"]["index"] == 0
    two = witnesses["2"]
    assert two["index"] == 26
    t = parse(two["instance"])
    from monodom.domination import min_cover

    assert min_cover(t).order == 2
    assert r.to_dict()["extremal"]["min_cover"]["max_order"] == 2


def test_estimate_f_n4_max_still_two():
    r = estimate_f(EnumerationSpec(n=4))
    assert r.counts["uncovered"] == 0
    assert r.max_cover_order == 2


def test_search_pattern_rb4_frozen():
    r = search_pattern(4, RB)
    assert r.counts == {
        "enumerated": 36, "examined": 36, "violations": 0, "alarms": 0
    }
    assert r.check_failures == {
        "t3": 20, "dominating_vertex": 28, "genhamilton": 36
    }


def test_search_pattern_rgb3_single_completion():
    r = search_pattern(3, RGB)
    assert r.counts == {
        "enumerated": 1, "examined": 1, "violations": 0, "alarms": 0
    }
    # the lone completion is the cyclic rainbow triangle itself: it carries
    # a qualifying cycle and no dominating vertex, but the triangle check
    # trips, so it is not a weak violator
    assert r.check_failures == {"t3": 1, "dominating_vertex": 0, "genhamilton": 0}


def test_search_pattern_takes_integer_colours():
    assert search_pattern(4, (0, 1)).to_json() == search_pattern(4, RB).to_json()


def test_search_pattern_sampled_deterministic():
    spec = EnumerationSpec(n=6, pattern=RB, mode="sampled", samples=5000, seed=8)
    a, b = screen_and_audit(spec), screen_and_audit(spec)
    assert a.to_json() == b.to_json()
    assert a.counts["violations"] == 0


def test_spec_layout_is_computed_once(monkeypatch):
    """A scan reads its spec's layout on every batch but builds it once;
    a replaced spec builds its own, and a pickled one (as run_parallel
    ships specs) keeps its fields and layout."""
    calls = []
    real = enumeration.pattern_pinned_codes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "pattern_pinned_codes", counting)
    monkeypatch.setattr(campaigns, "BATCH_ROWS", 64)
    result = search_pattern(6, RB, shard=(1, 500))
    assert result.counts["enumerated"] > 300 * 64  # over 300 batches
    assert len(calls) == 1
    spec = EnumerationSpec(n=6, pattern=RB, shard=(1, 500))
    resharded = replace(spec, shard=(2, 7))
    assert len(calls) == 3
    assert (resharded.pinned, resharded.free_slots) == (spec.pinned, spec.free_slots)
    assert resharded.space == spec.space and resharded.shard_size() != spec.shard_size()
    repatterned = replace(spec, pattern=RGB)
    assert repatterned.pinned != spec.pinned and len(calls) == 4
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec)
    assert (copy.pinned, copy.free_slots) == (spec.pinned, spec.free_slots)


def test_run_parallel_matches_direct():
    spec = EnumerationSpec(n=4)
    direct = verify_conjecture(spec)
    par = run_parallel(verify_conjecture, spec, workers=2)
    assert par.to_json() == direct.to_json()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    def __init__(self, sizes: list, max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_parallel_starts_no_more_workers_than_rows(monkeypatch):
    sizes = []
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(sizes, max_workers))
    spec = EnumerationSpec(n=3, shard=(1, 100))  # rows 1, 101 and 201
    par = run_parallel(verify_conjecture, spec, workers=100_000)
    assert sizes == [3]
    assert par.to_json() == verify_conjecture(spec).to_json()
    spec = EnumerationSpec(n=3, shard=(5, 250))  # row 5 only: no pool at all
    assert run_parallel(verify_conjecture, spec, workers=8).counts["enumerated"] == 1
    assert sizes == [3]


def _hundred_seconds(spec, positions=None):
    return replace(verify_conjecture(spec, positions=positions), elapsed=100.0)


def test_run_parallel_reports_wall_time(monkeypatch):
    """Workers run side by side, so the merged elapsed is the pool's wall
    time, not the sum of the parts' times that merge_results keeps."""
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool([], max_workers))
    spec = EnumerationSpec(n=3)
    par = run_parallel(_hundred_seconds, spec, workers=2)
    assert 0 < par.elapsed < 100
    assert par.to_json() == verify_conjecture(spec).to_json()
    parts = [_hundred_seconds(replace(spec, shard=(k, 2))) for k in range(2)]
    assert merge_results(parts).elapsed == 200


def test_run_parallel_ssw2_and_estimate_f():
    spec2 = EnumerationSpec(n=3, colours=2)
    assert (
        run_parallel(verify_conjecture, spec2, workers=2).to_json()
        == verify_conjecture(spec2).to_json()
    )
    spec3 = EnumerationSpec(n=3)
    assert (
        run_parallel(estimate_f, spec3, workers=2).to_json()
        == estimate_f(spec3).to_json()
    )


def test_result_dict_shape():
    d = verify_conjecture(EnumerationSpec(n=3)).to_dict()
    assert set(d) == {"spec", "counts", "violators", "extremal",
                      "check_failures", "seed"}
    assert d["seed"] is None  # exhaustive runs carry no seed
    assert d["spec"]["n"] == 3


def test_violations_property_counts_alarms():
    r = CampaignResult(EnumerationSpec(n=3), {"violations": 1, "alarms": 2})
    assert r.violations == 3


# each campaign over several batches: rows map to global indices across batch
# boundaries, also where the vertex filter drops rows
BATCHED_CAMPAIGNS = {
    "filtered n=4 2/5": lambda: verify_conjecture(
        EnumerationSpec(n=4, filter="two-colour-vertices", shard=(2, 5))),
    "estimate_f filtered n=4 2/5 k_max=1": lambda: estimate_f(
        EnumerationSpec(n=4, filter="two-colour-vertices", shard=(2, 5)), k_max=1),
    "estimate_f n=3 1/3": lambda: estimate_f(EnumerationSpec(n=3, shard=(1, 3))),
    "sampled n=5 1/3": lambda: verify_conjecture(
        EnumerationSpec(n=5, mode="sampled", samples=3000, seed=4, shard=(1, 3))),
    "search rb n=4 1/2": lambda: search_pattern(4, RB, shard=(1, 2)),
}


@pytest.mark.parametrize("name", sorted(BATCHED_CAMPAIGNS))
def test_reports_do_not_depend_on_batch_size(monkeypatch, name):
    run = BATCHED_CAMPAIGNS[name]
    whole = run().to_json()
    for batch_rows in (1, 7, 1000, 1 << 20):
        monkeypatch.setattr(campaigns, "BATCH_ROWS", batch_rows)
        assert run().to_json() == whole, batch_rows


DRAWN_SHARDS = {  # shard -> samples, none of them a multiple of a block
    (5, 997): 2 * SAMPLE_BLOCK_ROWS + 100,
    (2, 61): 2 * SAMPLE_BLOCK_ROWS + 100,
    (0, 1): 3 * SAMPLE_BLOCK_ROWS + 1234,
    (1, 3): 3 * SAMPLE_BLOCK_ROWS + 1234,
    (5, 150_000): 300_000,  # rows 5 and 150005: block 1 holds none
}

# shards whose moduli straddle one block, with k on both sides of a block edge
BLOCK_EDGE_SHARDS = [(0, 1), (0, 65535), (65534, 65535), (0, 65536), (65535, 65536),
                     (65535, 65537), (65536, 65537), (65535, 150_000), (65536, 150_000)]


@pytest.mark.parametrize("shard,samples", [
    *DRAWN_SHARDS.items(), *((shard, 3 * SAMPLE_BLOCK_ROWS + 1234) for shard in BLOCK_EDGE_SHARDS)])
def test_block_positions_match_brute_force(shard, samples):
    """block_positions(b) holds exactly the shard positions whose index
    lies in block b; over all blocks, the last partial one included, the
    ranges partition the shard's positions in order."""
    spec = EnumerationSpec(n=3, mode="sampled", samples=samples, seed=6, shard=shard)
    grouped: dict[int, list[int]] = {}
    for position, index in enumerate(shard_indices(spec)):
        grouped.setdefault(index // SAMPLE_BLOCK_ROWS, []).append(position)
    blocks = -(-samples // SAMPLE_BLOCK_ROWS) + 1  # one past the last, partial block
    ranges = [spec.block_positions(b) for b in range(blocks)]
    assert [list(r) for r in ranges] == [grouped.get(b, []) for b in range(blocks)]
    assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
    assert ranges[-2].stop == ranges[-1].stop == spec.shard_size()
    assert all(spec.index(p) == index for p, index in enumerate(shard_indices(spec)))


@pytest.mark.parametrize("shard", list(DRAWN_SHARDS))
def test_sampled_scan_draws_each_block_once(monkeypatch, shard):
    """A scan draws every sample block it touches once, through the last
    row the whole scan needs from it, whatever the batch size, and no
    other block: drawing one block ahead skips the blocks a large modulus
    steps over and stops at the last."""
    k, m = shard
    samples = DRAWN_SHARDS[shard]
    spec = EnumerationSpec(n=3, mode="sampled", samples=samples, seed=6, shard=shard)
    needed = {}  # block -> rows through the scan's last index in it
    for index in range(k, samples, m):
        block, row = divmod(index, SAMPLE_BLOCK_ROWS)
        needed[block] = row + 1
    draws = []
    real = enumeration.philox_digits

    def counting(seed, base, width, block, rows):
        draws.append((block, rows))
        return real(seed, base, width, block, rows)

    monkeypatch.setattr(enumeration, "philox_digits", counting)
    reports = set()
    small = spec.shard_size() < 10_000  # batches of 1 and 7 rows only where they are few
    for batch_rows in (1, 7, 1000, BATCH_ROWS) if small else (1000, BATCH_ROWS):
        draws.clear()
        monkeypatch.setattr(campaigns, "BATCH_ROWS", batch_rows)
        reports.add(verify_conjecture(spec).to_json())
        assert draws == sorted(needed.items()), batch_rows
    assert len(reports) == 1
    # a second scan of the same spec draws again
    draws.clear()
    verify_conjecture(spec)
    assert draws == sorted(needed.items())


SPANNING = EnumerationSpec(n=3, mode="sampled", samples=3 * SAMPLE_BLOCK_ROWS, seed=2)


def test_failed_draw_raises_from_the_scan(monkeypatch):
    real = kernel.sample_block

    def failing(spec, block, rows):
        if block == 1:
            raise RuntimeError("draw failed")
        return real(spec, block, rows)

    monkeypatch.setattr(kernel, "sample_block", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        verify_conjecture(SPANNING)


def test_failed_scan_leaves_the_draw_thread_reusable(monkeypatch):
    """An evaluator that raises while the next block is being drawn
    returns only when that draw is done and its thread joined, and the
    next sampled scan gives the same report."""
    whole = verify_conjecture(SPANNING).to_json()
    threads = threading.active_count()
    real_draw, drawing = kernel.sample_block, []

    def slow(spec, block, rows):
        drawing.append(block)
        time.sleep(0.2)  # still drawing block 1 when the second batch fails
        digits = real_draw(spec, block, rows)
        drawing.remove(block)
        return digits

    real_mask, calls = kernel.rainbow_triangle_mask, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("evaluator failed")
        return real_mask(*args, **kwargs)

    monkeypatch.setattr(kernel, "sample_block", slow)
    monkeypatch.setattr(kernel, "rainbow_triangle_mask", failing)
    with pytest.raises(RuntimeError, match="evaluator failed"):
        verify_conjecture(SPANNING)
    assert drawing == []  # no draw outlives its scan
    monkeypatch.undo()
    assert verify_conjecture(SPANNING).to_json() == whole
    assert threading.active_count() == threads


def test_no_thread_outlives_a_scan(monkeypatch):
    """A sampled scan joins its draw thread before it returns, also when its
    evaluator raises, and a direct batch_codes call draws in the caller, so
    run_parallel after a sampled scan forks with no helper thread alive."""
    threads = threading.active_count()
    verify_conjecture(SPANNING)
    assert threading.active_count() == threads

    def failing(*args, **kwargs):
        raise RuntimeError("evaluator failed")  # while block 1 is drawn ahead

    monkeypatch.setattr(kernel, "rainbow_triangle_mask", failing)
    with pytest.raises(RuntimeError, match="evaluator failed"):
        verify_conjecture(SPANNING)
    assert threading.active_count() == threads
    kernel.batch_codes(SPANNING, SAMPLE_BLOCK_ROWS + 5, 1)
    assert threading.active_count() == threads


def _send_report(conn, spec):
    conn.send(verify_conjecture(spec).to_json())


def test_forked_child_draws_on_its_own_thread():
    """A child forked after a sampled scan inherits no draw thread; its
    own sampled scan starts one and gives the parent's report."""
    whole = verify_conjecture(SPANNING).to_json()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_report, args=(send, SPANNING))
    child.start()
    try:
        assert receive.poll(60), "the child's sampled scan did not finish"
        assert receive.recv() == whole
    finally:
        child.kill()
        child.join()


STEADY_SCANS = {
    "exhaustive n=5 3/5000": (
        1000, lambda: verify_conjecture(EnumerationSpec(n=5, shard=(3, 5000)))),
    "sampled n=6 1/3": (
        1000, lambda: verify_conjecture(
            EnumerationSpec(n=6, mode="sampled", samples=20000, seed=1, shard=(1, 3)))),
    "search rb n=6 1/500": (2000, lambda: search_pattern(6, RB, shard=(1, 500))),
}


@pytest.mark.parametrize("name", sorted(STEADY_SCANS))
def test_scan_allocates_only_while_batches_grow(monkeypatch, name):
    """A multi-batch scan allocates workspace buffers only in a batch larger
    than every earlier one: here the first, since the rest are no larger."""
    batch_rows, run = STEADY_SCANS[name]
    sizes, allocations = [], []

    class CountingWorkspace(kernel.Workspace):
        def buffer(self, name, shape, dtype, most=None):
            before = self.buffers.get(name)
            view = super().buffer(name, shape, dtype, most)
            if self.buffers[name] is not before:
                allocations.append((len(sizes) - 1, name))
            return view

    real = kernel.batch_codes

    def counting_batch_codes(spec, start, size, ws=None):
        sizes.append(size)
        return real(spec, start, size, ws)

    monkeypatch.setattr(kernel, "Workspace", CountingWorkspace)
    monkeypatch.setattr(kernel, "batch_codes", counting_batch_codes)
    monkeypatch.setattr(campaigns, "BATCH_ROWS", batch_rows)
    whole = run().to_json()
    assert len(sizes) >= 3 and allocations
    for batch, buffer in allocations:
        assert sizes[batch] > max(sizes[:batch], default=0), (batch, buffer)
    monkeypatch.undo()
    assert run().to_json() == whole


def test_exhaustive_scans_leave_no_state_behind():
    """Scans of different shards give the same reports in either order: each
    builds its digit tile in its own workspace, and the digit tables are
    cached by (base, width) only, one entry for every n=5 run."""
    specs = [EnumerationSpec(n=5, shard=(3, 229)), EnumerationSpec(n=5, shard=(8, 7777))]
    kernel._digit_table.cache_clear()
    forward = [verify_conjecture(spec).to_json() for spec in specs]
    backward = [verify_conjecture(spec).to_json() for spec in reversed(specs)]
    assert forward == backward[::-1]
    assert kernel._digit_table.cache_info().currsize == 1  # (6, 5)


# SHA-256 of to_json() for reports the campaigns have always produced
GOLDEN_REPORTS = {
    "ssw2 n=4": (
        lambda: verify_conjecture(EnumerationSpec(n=4, colours=2)),
        "936c60a1e0e109bc94a23730b1252a9467bb90067fa102dee195636708dc6fe5"),
    "estimate_f filtered n=4 2/5 k_max=1": (
        lambda: estimate_f(
            EnumerationSpec(n=4, filter="two-colour-vertices", shard=(2, 5)), k_max=1),
        "63d88bf16ae62e1281660e5cf5217972f8aac7a72e01c1223cbdf58007ca9051"),
    "conjecture filtered n=4": (
        lambda: verify_conjecture(EnumerationSpec(n=4, filter="two-colour-vertices")),
        "3660f70f2d91fc0f6af65d1176083778a42c9c33a9338a7a8153db47e4ba5303"),
    "estimate_f n=3 k_max=1": (
        lambda: estimate_f(EnumerationSpec(n=3), k_max=1),
        "df7c269f43c55571a70c5b2be09cdd711a75dd0cd6b474675a929a31879bebdb"),
    "conjecture sampled n=6": (
        lambda: verify_conjecture(
            EnumerationSpec(n=6, mode="sampled", samples=100000, seed=7)),
        "884dde4a6d962dbfe2a6f7e0033fb13e87e6d8d04a10a35609587dbaaa22cf29"),
    "search rb sampled n=6": (
        lambda: screen_and_audit(
            EnumerationSpec(n=6, pattern=RB, mode="sampled", samples=50000, seed=3)),
        "aa1d7b27392d2cfa25b0c5be532532b36a980d4f8a6e0359543ae0231de358f3"),
    # check_failures["t3"] pins the T_3 counts: 99,087 of 100,000 rows at
    # n=9 and all 40,000 at n=12; the T_3 mask takes a full batch of either
    # order in one pass
    "screen sampled n=9": (
        lambda: screen_and_audit(EnumerationSpec(n=9, mode="sampled", samples=100000, seed=11)),
        "2a8a31d73d19e9ac365d805bcbb5557828ea725ebef34156aec49ce2f69e2fa6"),
    "screen sampled n=12": (
        lambda: screen_and_audit(EnumerationSpec(n=12, mode="sampled", samples=40000, seed=12)),
        "9e564f801c22953eed0e5d557c6799029160936af09cc6c9211534ed728a4c01"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_digests(name):
    run, digest = GOLDEN_REPORTS[name]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest


def _drawn_scan(shard):
    return verify_conjecture(EnumerationSpec(
        n=3, mode="sampled", samples=DRAWN_SHARDS[shard], seed=6, shard=shard))


SPLIT_RUNS = {  # among them specs with fewer blocks, or rows, than workers
    **{name: run for name, (run, _) in GOLDEN_REPORTS.items()},
    **{f"drawn {k}/{m}": partial(_drawn_scan, (k, m)) for k, m in DRAWN_SHARDS},
}


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(SPLIT_RUNS))
def test_run_parallel_ranges_draw_each_block_once(monkeypatch, name, workers):
    """run_parallel's contiguous ranges give the one-process report at any
    worker count, and all ranges together draw every sample block once,
    through the last row the shard needs from it, where a residue split
    of W workers draws each block W times."""
    run = SPLIT_RUNS[name]
    whole = run().to_json()
    if name in GOLDEN_REPORTS:
        assert hashlib.sha256(whole.encode()).hexdigest() == GOLDEN_REPORTS[name][1]
    specs, draws, sizes = [], [], []
    real = enumeration.philox_digits

    def counting(seed, base, width, block, rows):
        draws.append((block, rows))
        return real(seed, base, width, block, rows)

    monkeypatch.setattr(enumeration, "philox_digits", counting)
    monkeypatch.setattr(campaigns, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(sizes, max_workers))
    # the runs call this module's campaign names: route each through run_parallel
    for campaign in (verify_conjecture, estimate_f, screen_and_audit):
        def split(spec, campaign=campaign, **kwargs):
            specs.append(spec)
            return run_parallel(campaign, spec, workers, **kwargs)

        monkeypatch.setattr(sys.modules[__name__], campaign.__name__, split)
    assert run().to_json() == whole
    (spec,) = specs
    needed = {}  # block -> rows through the shard's last index in it
    for index in shard_indices(spec) if spec.mode == "sampled" else ():
        block, row = divmod(index, SAMPLE_BLOCK_ROWS)
        needed[block] = row + 1
    assert draws == sorted(needed.items())
    assert len(sizes) <= 1 and all(1 < size <= workers for size in sizes)
