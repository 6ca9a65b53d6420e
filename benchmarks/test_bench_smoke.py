"""Smoke test of the benchmark: every workload at a tiny size through the full
pipeline (correctness gate, traced run, spans file, JSON result line), and the
two ways it must fail: a wrong answer and a missing package."""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_smoke_every_workload_end_to_end_and_traced(tmp_path):
    workloads = [w["name"] for w in SPEC["workloads"]]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench(ROOT, "--workload", "all", "--smoke", "--seed", "3",
                      "--trace", trace, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= len(workloads)
        for w in workloads:
            for metric in SPEC[section]:
                got = last["metrics"][f"{w}.{metric['name']}"]
                assert got["unit"] == metric["unit"]
    for w in workloads:
        with gzip.open(tmp_path / f"spans-{w}-seed3-trace1.jsonl.gz", "rt") as fh:
            spans = fh.read().splitlines()
        assert spans and {"name", "start_ns", "end_ns", "parent", "run"} <= json.loads(spans[0]).keys()
        record = json.loads((tmp_path / f"result-{w}-seed3-trace0.json").read_text())
        assert record["inputs"]["seed"] == 3 and record["error_rate"] == 0


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "benchmarks", dest / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_answer_fails_the_gate(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    kernel = tmp_path / "src" / "monodom" / "kernel.py"
    kernel.write_text(kernel.read_text() + (
        "\n\ndef dominating_vertex_mask(reach, n):\n"
        "    return np.zeros(reach.shape[0], dtype=bool)\n"))
    proc = _bench(tmp_path, "--workload", "verify-n5", "--smoke", "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_without_the_package_exits_nonzero(tmp_path):
    _copy_bench(tmp_path)
    proc = _bench(tmp_path, "--workload", "verify-n5", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
