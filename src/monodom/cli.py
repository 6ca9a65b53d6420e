"""Command-line interface.

Subcommands: check, audit, cover (single-instance, reading the matrix file
format), verify, search (campaigns), gen (seeded instance generation).
Exit status: 0 completed with no violators or alarms, 1 violator or alarm
found, 2 usage or input error, or an internal error (with its traceback on
stderr).  verify and search import campaigns (and with it numpy and the
batch kernel) when they run, so check, audit and cover load neither.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .auditor import audit
from .core import (
    Colour,
    ColouredTournament,
    TournamentFormatError,
    canonical_json,
    parse,
    report_dict,
    serialize,
)
from .domination import (
    dominated_by_all,
    dominating_vertices,
    find_rainbow_triangle,
    min_cover,
)
from .enumeration import DEFAULT_BUDGET, FILTERS, EnumerationSpec, philox_digits

PROGRESS_THRESHOLD = 10**7
PROGRESS_EVERY = 10**6


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        k, m = text.split("/")
        return int(k), int(m)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shard must look like K/M, got {text!r}")


def _parse_workers(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"workers must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_pattern(text: str) -> tuple[Colour, ...]:
    try:
        return tuple(Colour.from_char(ch) for ch in text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="monodom",
        description="Monochromatic domination in 3-coloured tournaments: "
        "verification, audits, and search campaigns.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    def add_input(sp):
        sp.add_argument("--input", required=True,
                        help="instance file, '-' for standard input, or the "
                        "instance text itself")

    def add_space(sp):
        sp.add_argument("--order", type=int, required=True)
        sp.add_argument("--samples", type=int, default=0, help="N >= 1: sample N instances")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--shard", type=_parse_shard, default=(0, 1), metavar="K/M")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("check", help="report domination facts for one instance")
    sp.set_defaults(handler=cmd_check)
    add_input(sp)
    sp.add_argument("--cyclic", choices=("on", "off"), default="on",
                    help="require the rainbow triangle to be cyclic")
    add_format(sp)

    sp = sub.add_parser("audit", help="run every necessary-condition check")
    sp.set_defaults(handler=cmd_audit)
    add_input(sp)
    add_format(sp)

    sp = sub.add_parser("cover", help="smallest monochromatically covering set")
    sp.set_defaults(handler=cmd_cover)
    add_input(sp)
    sp.add_argument("--kmax", type=int, default=4, dest="k_max")
    add_format(sp)

    sp = sub.add_parser("verify", help="run a verification campaign")
    sp.set_defaults(handler=cmd_verify)
    add_space(sp)
    sp.add_argument("--colours", type=int, choices=(2, 3), default=3)
    sp.add_argument("--filter", choices=FILTERS, default="none")
    sp.add_argument("--workers", type=_parse_workers, default=0,
                    help="0 (or more than the machine's CPU count) picks the CPU count")
    add_format(sp)

    sp = sub.add_parser("search", help="scan completions of a patterned cycle")
    sp.set_defaults(handler=cmd_search)
    add_space(sp)
    sp.add_argument("--pattern", type=_parse_pattern, required=True,
                    help="cycle colour pattern, e.g. rb or rgb")
    add_format(sp)

    sp = sub.add_parser("gen", help="emit one seeded random instance")
    sp.set_defaults(handler=cmd_gen)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--colours", type=int, choices=(2, 3), default=3)
    sp.add_argument("--seed", type=int, default=0)

    return p


def _read_instance(source: str) -> ColouredTournament:
    if "\n" in source:
        return parse(source)
    if source == "-":
        return parse(sys.stdin.read())
    with open(source) as fh:
        return parse(fh.read())


def _triangle_line(tri, cyclic: bool) -> str:
    label = "T_3" if cyclic else "rainbow triangle"
    if tri is None:
        return f"{label}: none"
    arcs = ", ".join(f"{a}->{b} {c.char}" for a, b, c in tri.arcs)
    return f"{label} at {tri.vertices}: {arcs}"


def cmd_check(args: argparse.Namespace) -> int:
    t = _read_instance(args.input)
    cyclic = args.cyclic == "on"
    doms = dominating_vertices(t)
    dby = dominated_by_all(t)
    tri = find_rainbow_triangle(t, require_cyclic=cyclic)
    if args.format == "json":
        findings = [
            {"check": "dominating_vertices", "vertices": doms},
            {"check": "dominated_by_all", "vertices": dby},
            {
                "check": "t3" if cyclic else "rainbow_triangle",
                "found": tri is not None,
                "witness": None if tri is None else tri.to_dict(),
            },
        ]
        print(canonical_json(report_dict(t, findings)))
    else:
        print(f"n={t.n}")
        print("dominating vertices:", " ".join(map(str, doms)) if doms else "none")
        print("dominated by all:", " ".join(map(str, dby)) if dby else "none")
        print(_triangle_line(tri, cyclic))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    t = _read_instance(args.input)
    report = audit(t)
    if args.format == "json":
        print(canonical_json(report.to_dict()))
    else:
        print(f"n={t.n}")
        for f in report.findings:
            status = "holds" if f.holds else f"FAILS  witness={f.witness!r}"
            print(f"  {f.check}: {status}")
        print(f"verdict: {report.verdict}")
    return 1 if report.alarm else 0


def cmd_cover(args: argparse.Namespace) -> int:
    t = _read_instance(args.input)
    cover = min_cover(t, k_max=args.k_max)
    if args.format == "json":
        payload = report_dict(
            t,
            [{
                "check": "min_cover",
                "k_max": args.k_max,
                "order": None if cover is None else cover.order,
                "members": None if cover is None else list(cover.members),
            }],
        )
        print(canonical_json(payload))
    elif cover is None:
        print(f"no covering set of order <= {args.k_max}")
    else:
        print(f"order {cover.order}, members {{{', '.join(map(str, cover.members))}}}")
    return 0


def _campaign_text(result, label: str) -> None:
    print(f"campaign: {label}")
    print("spec:", canonical_json(result.spec.to_dict()))
    print("counts:", " ".join(f"{k}={v}" for k, v in sorted(result.counts.items())))
    if result.check_failures:
        print("check failures:",
              " ".join(f"{k}={v}" for k, v in sorted(result.check_failures.items())))
    if result.elapsed:
        print(f"elapsed: {result.elapsed:.2f}s ({result.rate:.0f} instances/s)")
    for v in result.violators:
        print(f"violator at index {v['index']}:")
        print(v["instance"], end="")


def _campaign(args: argparse.Namespace, name: str, label: str, workers: int = 1,
              **fields) -> int:
    """Run campaigns.<name> over the spec of add_space's options plus the
    subcommand's own fields, and print its report; --samples N selects sampled mode."""
    from . import campaigns

    spec = EnumerationSpec(
        n=args.order, mode="sampled" if args.samples else "exhaustive",
        shard=args.shard, samples=args.samples, seed=args.seed, budget=args.budget,
        **fields,
    )
    progress = PROGRESS_EVERY if spec.shard_size() >= PROGRESS_THRESHOLD else 0
    result = campaigns.run_parallel(getattr(campaigns, name), spec, workers=workers,
                                    progress=progress)
    if args.format == "json":
        print(result.to_json())
    else:
        _campaign_text(result, label)
    return 1 if result.violations else 0


def cmd_verify(args: argparse.Namespace) -> int:
    label = ("2-coloured dominating vertex" if args.colours == 2
             else "cyclic T_3 or dominating vertex")
    cpus = os.cpu_count() or 1
    return _campaign(args, "verify_conjecture", label, workers=min(args.workers or cpus, cpus),
                     colours=args.colours, filter=args.filter)


def cmd_search(args: argparse.Namespace) -> int:
    pattern = "".join(c.char for c in args.pattern)
    return _campaign(args, "screen_and_audit", f"pattern {pattern} cycle completions",
                     pattern=args.pattern)


def cmd_gen(args: argparse.Namespace) -> int:
    """Row 0 of the sampled stream, built without an EnumerationSpec so that
    orders beyond the campaigns' colours * order limit stay available."""
    if args.order < 1:
        raise ValueError("order must be >= 1")
    pairs = args.order * (args.order - 1) // 2
    codes = philox_digits(args.seed, 2 * args.colours, pairs, 0, rows=1)[0].tolist()
    print(serialize(ColouredTournament.from_codes(args.order, codes, args.colours)),
          end="")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        kind = "malformed instance: " if isinstance(e, TournamentFormatError) else ""
        print(f"error: {kind}{e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug, not a verdict: never exit 1 for it
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
