"""Verification campaigns: batched scans with mergeable, deterministic results.

A campaign walks one EnumerationSpec shard, evaluates a property on every
instance, and produces a CampaignResult whose JSON form is byte-deterministic
for a fixed spec (seed and shard layout included).  Shard results merge into
exactly the result of the unsharded run: counts add, violator lists interleave
by global index, extremal witnesses keep the lowest-index representative.

Every campaign is a per-batch evaluator of kernel masks that one shared
scan (`_Scan`) runs in every mode; the only rows it drops before the
evaluator sees a batch are those the vertex filter rejects.  Counts come
from the masks alone (the pure engine in `domination` is only their
oracle), with one campaign per claim: `verify_conjecture` takes 2 or 3
colours.  Batches hold BATCH_ROWS = 2^15 rows, so a batch's codes, index
arithmetic and reach planes stay in a core's L2 cache.  The scan passes one
kernel.Workspace to every kernel call: batch-sized arrays allocated afresh
cost a page fault per page on every batch, while the workspace's buffers
fault in once, in the first batch.  A sampled scan draws each Philox block
it reads once, on a helper thread that the scan starts and joins: while
the scan evaluates the batches of one block, the helper draws the next
block the scan has a row in, so at most two blocks are alive.  A scan
covers a range of shard positions, the whole shard by default, and
run_parallel gives each worker one contiguous range.  Expected violator
counts are zero throughout, so violator storage is capped (the count is
exact).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .auditor import audit
from .core import ColouredTournament, canonical_json, serialize
from .enumeration import SAMPLE_BLOCK_ROWS, EnumerationSpec
from . import kernel

BATCH_ROWS = 1 << 15
VIOLATOR_CAP = 100


@dataclass
class CampaignResult:
    """Outcome of one campaign shard (or a merge of shards)."""

    spec: EnumerationSpec
    counts: dict[str, int]
    violators: list[dict] = field(default_factory=list)
    extremal: dict = field(default_factory=dict)
    check_failures: dict[str, int] = field(default_factory=dict)
    # telemetry, excluded from serialized form: a scan's run time in seconds,
    # on time.perf_counter, which a wall-clock step cannot move or make
    # negative; merge_results sums its parts' times, run_parallel sets its
    # wall time
    elapsed: float = 0.0

    @property
    def violations(self) -> int:
        return self.counts.get("violations", 0) + self.counts.get("alarms", 0)

    @property
    def rate(self) -> float:
        done = self.counts.get("enumerated", 0)
        return done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def max_cover_order(self) -> int:
        orders = [int(k) for k in self.extremal.get("min_cover", {}) if k.isdigit()]
        return max(orders, default=0)

    def to_dict(self) -> dict:
        extremal = {}
        for stat, witnesses in self.extremal.items():
            entry: dict = {"witnesses": witnesses}
            if stat == "min_cover":
                entry["max_order"] = self.max_cover_order
            extremal[stat] = entry
        return {
            "spec": self.spec.to_dict(),
            "counts": dict(sorted(self.counts.items())),
            "violators": self.violators,
            "extremal": extremal,
            "check_failures": dict(sorted(self.check_failures.items())),
            "seed": self.spec.seed if self.spec.mode == "sampled" else None,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def merge_results(
    results: list[CampaignResult], spec: EnumerationSpec | None = None
) -> CampaignResult:
    """Combine shard results into the result of the covering run.

    Results must share the target spec apart from the shard.  Counts add;
    violators and alarms keep the VIOLATOR_CAP lowest indices, as that run does.
    """
    if not results:
        raise ValueError("nothing to merge")
    spec = spec or results[0].spec.unsharded()
    if any(r.spec.unsharded() != spec.unsharded() for r in results):
        raise ValueError("cannot merge results of different specs")
    counts: dict[str, int] = {}
    failures: dict[str, int] = {}
    violators: list[dict] = []
    extremal: dict = {}
    for r in results:
        for key, v in r.counts.items():
            counts[key] = counts.get(key, 0) + v
        for key, v in r.check_failures.items():
            failures[key] = failures.get(key, 0) + v
        violators.extend(r.violators)
        for stat, per_value in r.extremal.items():
            slot = extremal.setdefault(stat, {})
            for value, witness in per_value.items():
                if value not in slot or witness["index"] < slot[value]["index"]:
                    slot[value] = witness
    violators.sort(key=lambda v: v["index"])
    if "alarms" in extremal:
        kept = sorted(extremal["alarms"].items(), key=lambda kv: kv[1]["index"])
        extremal["alarms"] = dict(kept[:VIOLATOR_CAP])
    return CampaignResult(
        spec=spec,
        counts=counts,
        violators=violators[:VIOLATOR_CAP],
        extremal=extremal,
        check_failures=failures,
        elapsed=sum(r.elapsed for r in results),
    )


# -- the shared scan --------------------------------------------------------------


class _Scan:
    """One walk over a spec's shard positions `positions` (by default all),
    feeding each batch to a campaign's per-batch evaluator.

    The scan owns everything campaigns share: batch codes, the vertex
    filter, the enumerated/examined counts, mapping rows to global indices,
    capped violator recording, lowest-index witnesses, progress and timing,
    and the kernel workspace (`ws`, made per run) whose buffers every
    kernel call of the scan reuses, so that batches after the first take
    no fresh pages; in a sampled scan it also holds the block the scan is
    in and draws the next one on the scan's helper thread.
    An evaluator sees only the examined rows of a batch and names them by
    row number within that array, and passes `ws` to its kernel calls.
    """

    def __init__(self, spec: EnumerationSpec, progress: int, positions: range | None):
        self.spec = spec
        self.progress = progress
        self.positions = positions
        self.counts = {"enumerated": 0, "examined": 0, "violations": 0}
        self.violators: list[dict] = []
        self.extremal: dict = {}
        self.check_failures: dict[str, int] = {}
        # the current batch: its first shard position, the batch positions
        # of its examined rows (None when all are examined) and their codes
        self._start = 0
        self._rows: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self.ws: kernel.Workspace | None = None

    def run(self, evaluate) -> CampaignResult:
        """Call evaluate(scan, codes) on the examined rows of every batch."""
        spec = self.spec
        t0 = time.perf_counter()
        k, m = spec.shard
        lo, hi = (0, spec.shard_size()) if self.positions is None else (
            self.positions.start, self.positions.stop)
        label = f"shard {k}/{m}" if self.positions is None else f"shard {k}/{m} [{lo}, {hi})"
        next_mark = self.progress
        with ThreadPoolExecutor(1) as pool:  # leaving waits for any draw ahead, joins the thread
            self.ws = ws = kernel.Workspace(hi, pool)
            for start in range(lo, hi, BATCH_ROWS):
                size = min(BATCH_ROWS, hi - start)
                codes = kernel.batch_codes(spec, start, size, ws)
                self.counts["enumerated"] += size
                rows = None
                if spec.filter == "two-colour-vertices":
                    rows = np.flatnonzero(
                        kernel.two_colour_vertices_mask(codes, spec.n, spec.colours, ws))
                    codes = kernel.take_rows(codes, rows, ws)
                self.counts["examined"] += len(codes)
                self._start, self._rows, self._codes = start, rows, codes
                evaluate(self, codes)
                done = start + size - lo
                if self.progress and done >= next_mark:
                    print(f"{label}: {done} of {hi - lo}", file=sys.stderr)
                    next_mark = (done // self.progress + 1) * self.progress
        return CampaignResult(
            spec, self.counts, self.violators, self.extremal, self.check_failures,
            elapsed=time.perf_counter() - t0,
        )

    def index(self, row: int) -> int:
        """Global index of an examined row of the current batch."""
        position = self._start + int(row if self._rows is None else self._rows[row])
        return self.spec.index(position)

    def instance(self, row: int) -> ColouredTournament:
        return ColouredTournament.from_codes(
            self.spec.n, self._codes[row].tolist(), colours=self.spec.colours
        )

    def _entry(self, row: int) -> dict:
        return {"index": self.index(row), "instance": serialize(self.instance(row))}

    def record(self, rows: np.ndarray) -> None:
        """Count the rows as violations; store them up to VIOLATOR_CAP."""
        self.counts["violations"] += len(rows)
        for row in rows[: VIOLATOR_CAP - len(self.violators)]:
            self.violators.append(self._entry(row))

    def witness(self, stat: str, value: str, row: int) -> None:
        """Keep the row as the witness of `value` unless one exists: rows
        arrive in increasing index order, so the first is the lowest."""
        slot = self.extremal.setdefault(stat, {})
        if value not in slot:
            slot[value] = self._entry(row)


# -- campaigns ---------------------------------------------------------------------


def verify_conjecture(spec: EnumerationSpec, progress: int = 0,
                      positions: range | None = None) -> CampaignResult:
    """Check every instance for a T_3 (a cyclic rainbow triangle) or a
    dominating vertex; instances with neither are collected as violators.
    With two colours no triangle is rainbow: this is the Sands-Sauer-Woodrow
    claim."""

    def evaluate(scan: _Scan, codes: np.ndarray) -> None:
        ws = scan.ws
        t3 = kernel.rainbow_triangle_mask(codes, spec.n, spec.colours, ws)
        bad = None  # the T_3-free rows, None for all (every batch at two colours)
        if t3.any():
            bad = np.flatnonzero(~t3)
            codes = kernel.take_rows(codes, bad, ws)
        if len(codes):
            reach = kernel.any_reach(codes, spec.n, spec.colours, ws)
            miss = np.flatnonzero(~kernel.dominating_vertex_mask(reach, spec.n, ws))
            scan.record(miss if bad is None else bad[miss])

    return _Scan(spec, progress, positions).run(evaluate)


def estimate_f(
    spec: EnumerationSpec, k_max: int = 4, progress: int = 0, positions: range | None = None
) -> CampaignResult:
    """Maximum minimum-cover order over the enumerated instances.

    Keeps one lowest-index witness per achieved order.  Instances that no set
    of order <= k_max covers are counted as uncovered and witnessed too.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    def evaluate(scan: _Scan, codes: np.ndarray) -> None:
        reach = kernel.any_reach(codes, spec.n, spec.colours, scan.ws)
        tiers = kernel.cover_order_tiers(reach, spec.n, k_max, scan.ws)
        for order in range(1, min(k_max, spec.n) + 1):
            rows = np.flatnonzero(tiers == order)
            if len(rows):
                scan.witness("min_cover", str(order), rows[0])
        uncovered = np.flatnonzero(tiers == 0)
        scan.counts["uncovered"] += len(uncovered)
        if len(uncovered):
            scan.witness("min_cover", "uncovered", uncovered[0])

    scan = _Scan(spec, progress, positions)
    scan.counts["uncovered"] = 0
    scan.extremal["min_cover"] = {}
    return scan.run(evaluate)


def search_pattern(order: int, pattern: tuple, shard: tuple[int, int] = (0, 1)) -> CampaignResult:
    """Scan all completions of a colour-patterned Hamilton cycle.

    The cycle 0 -> 1 -> ... -> order-1 -> 0 is pinned with the repeating
    pattern; the remaining pairs are enumerated.  Reports instances passing
    the weak test (qualifying cycle, no cyclic rainbow triangle, no
    dominating vertex) as violators, and runs the full audit on each of
    them; audits reaching the all-conditions-pass verdict are counted as
    alarms.  check_failures histograms the failed checks seen.
    """
    return screen_and_audit(EnumerationSpec(n=order, pattern=pattern, shard=shard))


def screen_and_audit(spec: EnumerationSpec, progress: int = 0,
                     positions: range | None = None) -> CampaignResult:
    """The search screen over any spec: rows with a qualifying cycle, no
    cyclic rainbow triangle and no dominating vertex are weak violators,
    and each gets the full audit; all-conditions-pass audits are alarms."""

    def evaluate(scan: _Scan, codes: np.ndarray) -> None:
        ws = scan.ws
        reach = kernel.any_reach(codes, spec.n, spec.colours, ws)
        qual = kernel.qualifying_cycle_mask(reach, spec.n, ws)
        t3 = kernel.rainbow_triangle_mask(codes, spec.n, spec.colours, ws=ws)
        dom = kernel.dominating_vertex_mask(reach, spec.n, ws)
        failures = scan.check_failures
        failures["t3"] += int(np.count_nonzero(t3))
        failures["dominating_vertex"] += int(np.count_nonzero(dom))
        failures["genhamilton"] += len(qual) - int(np.count_nonzero(qual))
        weak = np.flatnonzero(qual & ~t3 & ~dom)
        scan.record(weak)
        for row in weak:
            report = audit(scan.instance(row))
            for f in report.findings:
                if not f.holds:
                    failures[f.check] = failures.get(f.check, 0) + 1
            if report.alarm:
                scan.counts["alarms"] += 1
                alarms = scan.extremal.setdefault("alarms", {})
                if len(alarms) < VIOLATOR_CAP:
                    index = scan.index(row)
                    alarms[str(index)] = {"index": index, "report": report.to_dict()}

    scan = _Scan(spec, progress, positions)
    scan.counts["alarms"] = 0
    scan.check_failures.update(t3=0, dominating_vertex=0, genhamilton=0)
    return scan.run(evaluate)


# -- parallel driver -----------------------------------------------------------------


def _run_range(campaign, spec, kwargs, positions):
    return campaign(spec, positions=positions, **kwargs)


def run_parallel(
    campaign: Callable[..., CampaignResult],
    spec: EnumerationSpec,
    workers: int = 1,
    **kwargs,
) -> CampaignResult:
    """Run campaign(spec, positions=..., **kwargs) on up to `workers`
    contiguous ranges of shard positions, one process each, and merge.
    The campaign must be a module-level function, so that it pickles.

    The cuts split the shard evenly; a sampled cut moves up to the end of
    its previous position's sample block, so each block is drawn once in
    all.  Empty ranges are dropped.  The ranges cover the shard, so the
    merge equals the one-process run.  Its elapsed is the pool's wall time.
    """
    total = spec.shard_size()
    workers = max(1, min(workers, total))
    cuts = [total * j // workers for j in range(workers + 1)]
    if spec.mode == "sampled":
        cuts[1:-1] = [spec.block_positions(spec.index(cut - 1) // SAMPLE_BLOCK_ROWS).stop
                      for cut in cuts[1:-1]]
    ranges = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    if len(ranges) <= 1:
        return campaign(spec, **kwargs)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(partial(_run_range, campaign, spec, kwargs), ranges))
    return replace(merge_results(parts, spec=spec), elapsed=time.perf_counter() - t0)
