"""Campaign counts, merge exactness, sampled determinism, parallel runs."""

import hashlib

import pytest

from monodom import campaigns, enumeration, kernel
from monodom.campaigns import (
    BATCH_ROWS,
    CampaignResult,
    estimate_f,
    merge_results,
    run_parallel,
    search_pattern,
    verify_conjecture,
    verify_ssw2,
)
from monodom.core import Colour, parse
from monodom.enumeration import SAMPLE_BLOCK_ROWS, EnumerationSpec

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


def test_conjecture_non_cyclic_variant():
    r = verify_conjecture(EnumerationSpec(n=3), require_cyclic=False)
    assert r.counts["violations"] == 0


def test_ssw2_exhaustive_small():
    for n in (1, 2, 3, 4):
        r = verify_ssw2(EnumerationSpec(n=n, colours=2))
        assert r.counts["violations"] == 0
        assert r.counts["enumerated"] == 4 ** (n * (n - 1) // 2)


def test_ssw2_rejects_three_colours():
    with pytest.raises(ValueError):
        verify_ssw2(EnumerationSpec(n=3))


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


def test_search_pattern_sampled_deterministic():
    a = search_pattern(6, RB, mode="sampled", samples=5000, seed=8)
    b = search_pattern(6, RB, mode="sampled", samples=5000, seed=8)
    assert a.to_json() == b.to_json()
    assert a.counts["violations"] == 0


def test_run_parallel_matches_direct():
    spec = EnumerationSpec(n=4)
    direct = verify_conjecture(spec)
    par = run_parallel(verify_conjecture, spec, workers=2)
    assert par.to_json() == direct.to_json()


def test_run_parallel_ssw2_and_estimate_f():
    spec2 = EnumerationSpec(n=3, colours=2)
    assert (
        run_parallel(verify_ssw2, spec2, workers=2).to_json()
        == verify_ssw2(spec2).to_json()
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


@pytest.mark.parametrize("shard", [(5, 997), (2, 61)])
def test_sampled_scan_draws_each_block_once(monkeypatch, shard):
    """A scan draws every sample block it touches once, through the last
    row the whole scan needs from it, whatever the batch size."""
    k, m = shard
    samples = 2 * SAMPLE_BLOCK_ROWS + 100
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
    for batch_rows in (1, 7, 1000, BATCH_ROWS):
        draws.clear()
        monkeypatch.setattr(campaigns, "BATCH_ROWS", batch_rows)
        reports.add(verify_conjecture(spec).to_json())
        assert draws == sorted(needed.items()), batch_rows
    assert len(reports) == 1
    # a second scan of the same spec draws again
    draws.clear()
    verify_conjecture(spec)
    assert draws == sorted(needed.items())


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
        def buffer(self, name, shape, dtype):
            before = self.buffers.get(name)
            view = super().buffer(name, shape, dtype)
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


# SHA-256 of to_json() for reports the campaigns have always produced
GOLDEN_REPORTS = {
    "ssw2 n=4": (
        lambda: verify_ssw2(EnumerationSpec(n=4, colours=2)),
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
        lambda: search_pattern(6, RB, mode="sampled", samples=50000, seed=3),
        "aa1d7b27392d2cfa25b0c5be532532b36a980d4f8a6e0359543ae0231de358f3"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_digests(name):
    run, digest = GOLDEN_REPORTS[name]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest
