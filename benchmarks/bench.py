#!/usr/bin/env python3
"""monodom benchmark: campaign throughput and single-instance audit latency.

Run from the repository root:

    python3 benchmarks/bench.py --workload verify-n5 --seed 1 --seconds 28 --trace 0

Workloads are `verify-n5`, `search-rb-n6`, `sampled-n9` and `audit-single`
(see workloads.py); `--workload all` runs each in its own process.  One run
sets the workload up from `--seed`, runs one untimed warm-up operation, then
cycles through the workload's pool for `--seconds` and checks every result.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it splits the
time between an untraced and a traced phase and reports the per-layer metrics
from the traced one.  `--smoke` runs the same pipeline at a tiny size.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A full record (machine, input
provenance, metrics, gate findings) goes to `<out>/result-*.json` and, when
traced, the spans to `<out>/spans-*.jsonl.gz`.  The exit status is 1 when the
correctness gate fails and 2 when monodom cannot be imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import monodom
except ImportError as exc:
    print(f"bench: cannot import monodom from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(monodom.__file__).resolve().parent.parent != SRC.resolve():
    print(f"bench: monodom was imported from {monodom.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HOLDOUT_SEED = 9973  # no optimisation is tuned on this seed; confirm claims on it
SETUP_PROBES = (3, 4)  # fresh processes timed before and after the timed phase


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in `section`."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# -- measurement ------------------------------------------------------------------


RAISED = -1  # key of an operation that raised


class Phase:
    """Operations of one timed phase: per-op key, seconds and latency.

    Plain arrays, not lists of Python objects: a run makes up to ~60k
    operations, and peak_rss_mb should not move with how many fit in it.
    """

    def __init__(self):
        self.keys = array("q")
        self.op_s = array("d")
        self.latency_s = array("d")
        self.seconds = 0.0


class Gate:
    """Operations attempted and failed, with the reasons.

    keys[i] is what operation i worked on, an int (see the workloads' key
    method), so a mismatch found after the timed phases fails exactly the
    operations that produced the mismatching output.
    """

    def __init__(self):
        self.keys = array("q")
        self.failed: set[int] = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.keys)

    def fail(self, problems: list[str]) -> None:
        self.failed.add(self.attempted - 1)
        self.problems += problems

    def fail_keys(self, bad: set, problems: list[str]) -> None:
        self.failed.update(i for i, key in enumerate(self.keys) if key in bad)
        self.problems += problems


def run_phase(work, seconds: float, gate: Gate, min_ops: int, phase: Phase,
              tracer: Tracer | None = None) -> bool:
    """Add operations to `phase` until this call has run `seconds` of
    operation time and at least `min_ops` operations; each result is checked
    outside the timed region.  False when an operation raised."""
    work.restart()
    spent, done = 0.0, 0
    while spent < seconds or done < min_ops:
        if tracer is not None:
            tracer.run = gate.attempted
        try:
            op_s, latency_s, result = work.op()
        except Exception as exc:  # an operation that raises fails; stop the run
            gate.keys.append(RAISED)
            gate.fail([f"{work.name}: operation raised {exc!r}"])
            return False
        gate.keys.append(work.key(result))
        problems = work.check(result)
        if problems:
            gate.fail(problems)
        phase.keys.append(gate.keys[-1])
        phase.op_s.append(op_s)
        phase.latency_s.append(latency_s)
        phase.seconds += op_s
        spent += op_s
        done += 1
    return True


def run_traced(work, seconds: float, gate: Gate, tracer: Tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced rounds of the same operations, so both
    see the same spells of load from other processes on the machine."""
    plain, traced = Phase(), Phase()
    while plain.seconds + traced.seconds < seconds or len(traced.op_s) < work.min_ops:
        if not run_phase(work, 0.0, gate, work.round_ops, plain):
            break
        with tracer.installed():
            if not run_phase(work, 0.0, gate, work.round_ops, traced, tracer):
                break
    return plain, traced


def overhead_share(plain: Phase, traced: Phase) -> float:
    """Traced over untraced time of the paired operations, minus one."""
    k = min(len(plain.op_s), len(traced.op_s))
    return sum(traced.op_s[:k]) / sum(plain.op_s[:k]) - 1


def setup_seconds(args, probes: int) -> list[float]:
    """Start-to-first-timed-call times of fresh processes of this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(1 if args.smoke else probes):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


# -- records ----------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    """nproc, CPU model and caches (read-only from /proc and /sys), versions, commit.

    Memory bandwidth and a roofline are not measured.
    """
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        kind = _read(str(index / "type"))
        level = _read(str(index / "level"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(str(index / "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "monodom": monodom.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    head = _read(str(git / "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(str(git / ref))
    if sha:
        return sha
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# -- one workload ------------------------------------------------------------------


def run_workload(args) -> int:
    make = WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, args.smoke)
        print(time.monotonic())
        return 0
    # probes on both sides of the timed phase see more than one spell of
    # load from other processes on the machine
    setup = None if args.trace else setup_seconds(args, SETUP_PROBES[0])
    work = make(args.seed, args.smoke)
    gate = Gate()
    seconds = 0.0 if args.smoke else args.seconds
    run_phase(work, 0.0, gate, 1, Phase())  # warm-up: page faults, lazy imports
    tracer = None
    if args.trace:
        tracer = Tracer()
        plain, traced = run_traced(work, seconds, gate, tracer)
        metrics = tracer.per_layer_metrics()
        metrics["trace.overhead_share"] = (
            overhead_share(plain, traced) if plain.op_s and traced.op_s else 0.0)
        units = metric_units("per_layer")
    else:
        phase = Phase()
        run_phase(work, seconds, gate, work.min_ops, phase)
        rate, p50, p99 = work.summary(phase) if phase.op_s else (0.0, 0.0, 0.0)
        setup += setup_seconds(args, SETUP_PROBES[1])
        metrics = {
            "instances_per_s": rate,
            "setup_s": float(np.median(setup)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latency_p50_us": float(p50) * 1e6,
            "latency_p99_us": float(p99) * 1e6,
        }
        units = metric_units("end_to_end")
    try:
        gate.fail_keys(*work.spot_check())
    except Exception as exc:  # a check that cannot run fails every operation
        gate.fail_keys(set(gate.keys), [f"{work.name}: spot check raised {exc!r}"])
    error_rate = len(gate.failed) / gate.attempted
    correct = not gate.failed and not gate.problems

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(args.out / f"spans-{stem}.jsonl.gz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "machine": machine_record(),
        "inputs": work.provenance(),
        "setup_s_samples": setup,
        "operations": gate.attempted,
        "error_rate": error_rate,
        "problems": gate.problems[:100],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(args.out / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    for problem in gate.problems[:20]:
        print(f"GATE {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {gate.attempted} operations, "
          f"error_rate {error_rate:.6g}, inputs {json.dumps(record['inputs'])}")
    for k, m in record["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": len(gate.failed),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own; the last line sums them."""
    status, attempted, failed, metrics, correct = 0, 0, 0, {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        status = status or proc.returncode
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=HOLDOUT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same pipeline")
    ap.add_argument("--out", type=Path, default=Path(".bench_out"),
                    help="directory for result and span files")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
