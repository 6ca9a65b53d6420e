"""In-memory span tracing of monodom's public functions, from outside the package.

Each traced function is replaced, in every monodom module that holds it, by a
wrapper that records one span per call: name, start, end, parent span and run
id, plus the rows passed in and an optional tally of the result (for example
how many rows a mask settled).  Because the wrappers sit at the module
attributes callers look up at call time, a campaign's own call tree shows:
`campaigns.verify_conjecture` calls `kernel.any_reach`, which calls
`kernel.decode_rows` and `kernel.closure_rows` as module globals.

Spans stay in memory while the workload runs and are written out afterwards.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

MROW = 1 << 20  # the "Mrow" of every ms_per_mrow metric is 2^20 rows


def _mask_hits(result) -> int:
    return int(np.count_nonzero(result))


def _deep_audit(report) -> int:
    gh = report.finding("genhamilton")
    return int(gh is not None and gh.holds)


# (module, function, tally of the result); the span is named module.function
TARGETS = (
    ("campaigns", "verify_conjecture", None),
    ("campaigns", "search_pattern", None),
    ("enumeration", "sample_block", None),
    ("kernel", "batch_codes", None),
    ("kernel", "rainbow_triangle_mask", _mask_hits),
    ("kernel", "any_reach", None),
    ("kernel", "decode_rows", None),
    ("kernel", "closure_rows", None),
    ("kernel", "dominating_vertex_mask", _mask_hits),
    ("kernel", "qualifying_cycle_mask", _mask_hits),
    ("core", "parse", None),
    ("core", "canonical_json", None),
    ("auditor", "audit", _deep_audit),
    ("auditor", "genhamilton_check", None),
    ("domination", "domination_relation", None),
    ("domination", "find_rainbow_triangle", None),
    ("domination", "min_cover", None),
)
CAMPAIGN_SPANS = ("campaigns.verify_conjecture", "campaigns.search_pattern")

# span fields, in list order
NAME, START, END, PARENT, RUN, ROWS, HITS = range(7)


def _rows(args, result) -> int:
    """Rows a kernel call works on: its first array argument, else its result."""
    for value in (args[0] if args else None, result):
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            return int(value.shape[0])
    return 0


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0  # run id stamped on new spans; one per benchmark operation
        self._stack: list[int] = []

    def _wrap(self, fn, tally):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            span[ROWS] = _rows(args, result)
            if tally is not None:
                span[HITS] = tally(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every monodom module attribute bound to a target, then undo."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "monodom" or k.startswith("monodom.")]
        patches = []
        for mod_name, fn_name, tally in TARGETS:
            fn = getattr(sys.modules[f"monodom.{mod_name}"], fn_name)
            wrapper = self._wrap(fn, tally)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        """One JSON object per span and line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "run": s[RUN], "rows": s[ROWS], "hits": s[HITS],
                }) + "\n")

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, rows, hits, inclusive and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "hits": 0, "ns": 0, "self_ns": 0})
        for s, kids in zip(self.spans, child_ns):
            agg = out[s[NAME]]
            agg["calls"] += 1
            agg["rows"] += s[ROWS]
            agg["hits"] += s[HITS]
            agg["ns"] += s[END] - s[START]
            agg["self_ns"] += s[END] - s[START] - kids
        return out

    def per_layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json except trace.overhead_share.

        A metric whose layer did not run in this workload reads 0.
        """
        L = self.layers()
        zero = {"calls": 0, "rows": 0, "hits": 0, "ns": 0, "self_ns": 0}

        def get(name):
            return L.get(name, zero)

        def ms_per_mrow(name):
            a = get(name)
            return a["ns"] / 1e6 / (a["rows"] / MROW) if a["rows"] else 0.0

        def us_per_call(name, key="ns"):
            a = get(name)
            return a[key] / 1e3 / a["calls"] if a["calls"] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        camp_ns = sum(get(n)["ns"] for n in CAMPAIGN_SPANS)
        camp_self = sum(get(n)["self_ns"] for n in CAMPAIGN_SPANS)
        camp_calls = sum(get(n)["calls"] for n in CAMPAIGN_SPANS)
        t3 = get("kernel.rainbow_triangle_mask")
        audit = get("auditor.audit")
        m = {
            "kernel.batch_codes.ms_per_mrow": ms_per_mrow("kernel.batch_codes"),
            "enumeration.sample_block.ms_per_mrow": ms_per_mrow("enumeration.sample_block"),
            "kernel.rainbow_triangle_mask.ms_per_mrow": ms_per_mrow("kernel.rainbow_triangle_mask"),
            "kernel.rainbow_triangle_mask.settled_share": ratio(t3["hits"], t3["rows"]),
            "kernel.any_reach.rows_share": ratio(get("kernel.any_reach")["rows"],
                                                 get("kernel.batch_codes")["rows"]),
            "kernel.any_reach.ms_per_mrow": ms_per_mrow("kernel.any_reach"),
            "kernel.decode_rows.ms_per_mrow": ms_per_mrow("kernel.decode_rows"),
            "kernel.closure_rows.ms_per_mrow": ms_per_mrow("kernel.closure_rows"),
            # per campaign call, so the figure does not depend on run length
            "kernel.closure_rows.calls": ratio(get("kernel.closure_rows")["calls"], camp_calls),
            "kernel.decode_closure.campaign_share": ratio(
                get("kernel.decode_rows")["self_ns"] + get("kernel.closure_rows")["self_ns"],
                camp_ns),
            "kernel.qualifying_cycle_mask.ms_per_mrow": ms_per_mrow("kernel.qualifying_cycle_mask"),
            "kernel.dominating_vertex_mask.ms_per_mrow": ms_per_mrow("kernel.dominating_vertex_mask"),
            "campaigns.self_share": ratio(camp_self, camp_ns),
            "core.parse.us_per_call": us_per_call("core.parse"),
            "core.canonical_json.us_per_call": us_per_call("core.canonical_json"),
            "auditor.audit.us_per_call": us_per_call("auditor.audit"),
            "auditor.audit.self_us": us_per_call("auditor.audit", "self_ns"),
            "auditor.audit.deep_share": ratio(audit["hits"], audit["calls"]),
            "auditor.genhamilton_check.us_per_call": us_per_call("auditor.genhamilton_check"),
            "domination.domination_relation.us_per_call": us_per_call("domination.domination_relation"),
            "domination.find_rainbow_triangle.us_per_call": us_per_call("domination.find_rainbow_triangle"),
            "domination.min_cover.us_per_call": us_per_call("domination.min_cover"),
        }
        m.update(self.funnel())
        return m

    def funnel(self) -> dict[str, int]:
        """Survivors of each campaign screen in the first traced campaign call.

        The first traced call is always on item 0 of the workload's pool, so
        these are exact counts that repeat for a seed.  Rows counted at the screens as the campaign ran them:
        t3_free = rows the T_3 mask did not settle, no_dominating = rows the
        dominating-vertex mask saw without a dominating vertex.
        """
        first = next((s[RUN] for s in self.spans if s[NAME] in CAMPAIGN_SPANS), None)
        counts = {"enumerated": 0, "t3_free": 0, "no_dominating": 0, "audited": 0}
        for s in self.spans:
            if first is None or s[RUN] != first:
                continue
            if s[NAME] == "kernel.batch_codes":
                counts["enumerated"] += s[ROWS]
            elif s[NAME] == "kernel.rainbow_triangle_mask":
                counts["t3_free"] += s[ROWS] - s[HITS]
            elif s[NAME] == "kernel.dominating_vertex_mask":
                counts["no_dominating"] += s[ROWS] - s[HITS]
            elif s[NAME] == "auditor.audit":
                counts["audited"] += 1
        return {f"campaigns.funnel.{k}": v for k, v in counts.items()}
