"""Command-line surface: flags, formats, exit statuses."""

import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import monodom
import monodom.campaigns as campaigns
import monodom.cli as cli
from monodom.campaigns import CampaignResult
from monodom.core import ColouredTournament, canonical_json, parse, serialize
from monodom.enumeration import DEFAULT_BUDGET, EnumerationSpec

T3_TEXT = "3\n.r.\n..b\ng..\n"


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.txt"
    path.write_text(T3_TEXT)
    return str(path)


def test_engine_loads_without_numpy():
    """The pure engine and the single-instance commands import neither
    numpy nor the batch code it is the oracle of."""
    src = str(Path(monodom.__file__).resolve().parent.parent)
    probe = (
        "import sys\n"
        "import monodom.core, monodom.domination, monodom.auditor, monodom.cli\n"
        "print(sorted({'numpy', 'monodom.kernel', 'monodom.campaigns'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_engine_commands_run_without_numpy(capsys, tmp_path):
    """check, audit and cover print the same with numpy unimportable as they
    do in this process, on an order-3 T_3 and an order-17 instance."""
    rng = random.Random(17)
    n17 = ColouredTournament.from_codes(17, [rng.randrange(6) for _ in range(136)])
    files = [tmp_path / "t3.txt", tmp_path / "n17.txt"]
    files[0].write_text(T3_TEXT)
    files[1].write_text(serialize(n17))
    argvs = [[command, "--input", str(path), "--format", fmt]
             for command in ("check", "audit", "cover") for path in files
             for fmt in ("text", "json")]
    want = [list(run_cli(capsys, *argv)) for argv in argvs]
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import monodom.cli\n"
        "got = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = monodom.cli.main(argv)\n"
        "    got.append([status, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(got))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(monodom.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == want
    assert [status for status, _, _ in want] == [0] * 10 + [2, 2]  # cover stops at order 16


def test_check_text(capsys, t3_file):
    status, out, _ = run_cli(capsys, "check", "--input", t3_file)
    assert status == 0
    assert "dominating vertices: none" in out
    assert "T_3 at (0, 1, 2)" in out


def test_check_json(capsys, t3_file):
    status, out, _ = run_cli(capsys, "check", "--input", t3_file, "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["instance"] == T3_TEXT
    t3_finding = next(f for f in payload["findings"] if f["check"] == "t3")
    assert t3_finding["found"] and t3_finding["witness"]["triangle"] == [0, 1, 2]


def test_check_inline_and_stdin(capsys, monkeypatch):
    status, out, _ = run_cli(capsys, "check", "--input", T3_TEXT)
    assert status == 0 and "T_3" in out
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(T3_TEXT))
    status, out, _ = run_cli(capsys, "check", "--input", "-")
    assert status == 0 and "T_3" in out


def test_check_cyclic_off(capsys):
    # rainbow but transitive triangle: only visible with the cyclic gate off
    text = "3\n.rg\n..b\n...\n"
    status, out, _ = run_cli(capsys, "check", "--input", text)
    assert "T_3: none" in out
    status, out, _ = run_cli(capsys, "check", "--input", text, "--cyclic", "off")
    assert "rainbow triangle at" in out


# check --cyclic off on a transitive rainbow triangle, byte for byte
RAINBOW_TEXT = "3\n.rg\n..b\n...\n"
RAINBOW_CHECK = {
    "text": "n=3\ndominating vertices: 0\ndominated by all: 2\n"
            "rainbow triangle at (0, 1, 2): 0->1 r, 0->2 g, 1->2 b\n",
    "json": '{"findings":[{"check":"dominating_vertices","vertices":[0]},'
            '{"check":"dominated_by_all","vertices":[2]},'
            '{"check":"rainbow_triangle","found":true,"witness":'
            '{"arcs":[[0,1,"r"],[0,2,"g"],[1,2,"b"]],"triangle":[0,1,2]}}],'
            '"instance":"3\\n.rg\\n..b\\n...\\n","n":3}\n',
}


def test_check_cyclic_off_output_is_pinned(capsys):
    for fmt, want in RAINBOW_CHECK.items():
        status, out, _ = run_cli(capsys, "check", "--input", RAINBOW_TEXT,
                                 "--cyclic", "off", "--format", fmt)
        assert status == 0 and out == want, fmt


def test_verify_has_no_cyclic_option(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--order", "3", "--cyclic", "off"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monodom") and "unrecognized arguments: --cyclic off" in err


def test_search_picks_progress_as_verify_does(capsys, monkeypatch):
    """Progress goes to stderr only for shards of PROGRESS_THRESHOLD rows
    or more; search --order 4 --pattern rb has 36."""
    monkeypatch.setattr(cli, "PROGRESS_EVERY", 10)
    for threshold, lines in ((37, 0), (36, 1)):
        monkeypatch.setattr(cli, "PROGRESS_THRESHOLD", threshold)
        status, _, err = run_cli(capsys, "search", "--order", "4", "--pattern", "rb")
        assert status == 0 and err.count("shard 0/1: 36 of 36") == lines, threshold


def test_audit_text_and_json(capsys, t3_file):
    status, out, _ = run_cli(capsys, "audit", "--input", t3_file)
    assert status == 0
    assert "verdict: cannot be a minimal counterexample" in out
    status, out, _ = run_cli(capsys, "audit", "--input", t3_file, "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["verdict"] == "cannot be a minimal counterexample"
    checks = [f["check"] for f in payload["findings"]]
    assert checks[:3] == ["t3", "dominating_vertex", "genhamilton"]


def test_cover_text_and_json(capsys, t3_file):
    status, out, _ = run_cli(capsys, "cover", "--input", t3_file)
    assert status == 0
    assert out.strip() == "order 2, members {0, 1}"
    status, out, _ = run_cli(capsys, "cover", "--input", t3_file,
                             "--format", "json")
    finding = json.loads(out)["findings"][0]
    assert finding["order"] == 2 and finding["members"] == [0, 1]


def test_cover_kmax_missed(capsys, t3_file):
    status, out, _ = run_cli(capsys, "cover", "--input", t3_file, "--kmax", "1")
    assert status == 0
    assert "no covering set of order <= 1" in out


def test_verify_two_colours(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--colours", "2", "--order", "4"
    )
    assert status == 0
    assert "violations=0" in out
    assert "enumerated=4096" in out


def test_verify_json_matches_library(capsys):
    from monodom.campaigns import verify_conjecture

    status, out, _ = run_cli(capsys, "verify", "--order", "3", "--format", "json")
    assert status == 0
    expected = verify_conjecture(EnumerationSpec(n=3)).to_json()
    assert out.strip() == expected


def test_verify_shard_and_filter(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--order", "4", "--shard", "1/3",
        "--filter", "two-colour-vertices", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["spec"]["shard"] == [1, 3]
    assert payload["spec"]["filter"] == "two-colour-vertices"
    assert payload["counts"]["violations"] == 0


def test_verify_sampled_deterministic(capsys):
    args = ("verify", "--order", "6", "--samples", "2000", "--seed", "9", "--format", "json")
    status, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert status == status2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 9


def test_text_spec_line_is_the_json_spec(capsys):
    argv = ("verify", "--order", "5", "--samples", "300", "--seed", "4", "--shard", "1/3")
    status, text, _ = run_cli(capsys, *argv)
    assert status == 0
    status, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert status == 0
    spec = canonical_json(json.loads(out)["spec"])
    assert f"\nspec: {spec}\n" in text


def test_seed_needs_sampled_mode(capsys):
    """An exhaustive report omits the seed, so a seed would change only
    which shards merge."""
    with pytest.raises(ValueError, match="seed only meaningful in sampled mode"):
        EnumerationSpec(n=4, seed=3)
    for argv, message in (
        (("--seed", "3"), "seed only meaningful in sampled mode"),
        (("--samples", "-3"), "sampled mode needs samples >= 1"),
    ):
        status, out, err = run_cli(capsys, "verify", "--order", "4", *argv)
        assert status == 2 and out == ""
        assert err == f"error: {message}\n"


def test_search_rb4(capsys):
    status, out, _ = run_cli(
        capsys, "search", "--order", "4", "--pattern", "rb", "--format", "json"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["counts"] == {
        "alarms": 0, "enumerated": 36, "examined": 36, "violations": 0
    }
    assert payload["spec"]["pattern"] == "rb"


def test_gen_round_trip_and_determinism(capsys):
    status, out1, _ = run_cli(capsys, "gen", "--order", "5", "--seed", "4")
    status2, out2, _ = run_cli(capsys, "gen", "--order", "5", "--seed", "4")
    assert status == status2 == 0
    assert out1 == out2
    t = parse(out1)
    assert t.n == 5
    _, out3, _ = run_cli(capsys, "gen", "--order", "5", "--seed", "5")
    assert out3 != out1
    # the README example pins the seed -> instance stream
    _, out4, _ = run_cli(capsys, "gen", "--order", "4", "--seed", "1")
    assert out4 == "4\n...g\ng.gg\nr...\n..r.\n"


def test_gen_matches_sampled_stream_head(capsys):
    from monodom.enumeration import sample_codes

    _, out, _ = run_cli(capsys, "gen", "--order", "4", "--seed", "7")
    spec = EnumerationSpec(n=4, mode="sampled", samples=1, seed=7)
    assert parse(out).to_codes() == list(sample_codes(spec, 0))


def test_exit_2_on_malformed_instance(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n.r.\n..b\nq..\n")
    status, _, err = run_cli(capsys, "check", "--input", str(bad))
    assert status == 2
    assert "line 4" in err


def test_exit_2_on_missing_file(capsys):
    status, _, err = run_cli(capsys, "check", "--input", "no-such-file.txt")
    assert status == 2
    assert "error" in err


def test_exit_2_on_budget(capsys):
    status, _, err = run_cli(capsys, "verify", "--order", "12")
    assert status == 2
    assert "use sampled mode (--samples N) or raise --budget" in err


def test_exit_2_past_index_limit(capsys):
    big = "1000000000000000000000000000000"
    for shard in ("5/100000000000000000000",
                  "9223372036854775809/18446744073709551616"):
        status, out, err = run_cli(capsys, "verify", "--order", "8", "--budget", big,
                                   "--shard", shard)
        assert status == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "index limit 2**63" in err and "Traceback" not in err
    status, _, err = run_cli(capsys, "search", "--order", "9", "--pattern", "rgb",
                             "--budget", big)
    assert status == 2 and "index limit 2**63" in err


def test_exit_2_past_kernel_word(capsys):
    for argv in (
        ("verify", "--order", "22", "--samples", "10"),
        ("verify", "--order", "33", "--colours", "2", "--samples", "10"),
        ("search", "--order", "22", "--pattern", "rb", "--samples", "10"),
    ):
        status, _, err = run_cli(capsys, *argv)
        assert status == 2
        assert "colours * order <= 64" in err


def test_engine_commands_stay_unlimited(capsys):
    status, text, _ = run_cli(capsys, "gen", "--order", "22", "--seed", "3")
    assert status == 0 and parse(text).n == 22
    for command in ("check", "audit"):
        status, out, _ = run_cli(capsys, command, "--input", text)
        assert status == 0 and out.startswith("n=22\n")
    status, _, err = run_cli(capsys, "gen", "--order", "4", "--seed", "-1")
    assert status == 2 and "seed must be in" in err


def test_exit_2_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--order", "3", "--shard", "x"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["search", "--order", "3", "--pattern", "rq"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["nonsense"])
    assert e.value.code == 2
    capsys.readouterr()
    for argv, message in (
        (["verify", "--order", "3", "--mode", "sampled"], "unrecognized arguments"),
        (["verify", "--order", "3", "--workers", "-1"], "non-negative integer"),
    ):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert message in capsys.readouterr().err


def test_exit_2_on_degenerate_pattern(capsys):
    for order, pattern, message in (
        ("6", "", "at least one colour"),
        ("1", "r", "order >= 3"),
        ("2", "rb", "order >= 3"),
    ):
        status, out, err = run_cli(capsys, "search", "--order", order,
                                   "--pattern", pattern)
        assert status == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_exit_1_on_violator(capsys, monkeypatch):
    spec = EnumerationSpec(n=3)
    doctored = CampaignResult(
        spec,
        {"enumerated": 216, "examined": 216, "violations": 1},
        violators=[{"index": 7, "instance": T3_TEXT}],
    )
    monkeypatch.setattr(campaigns, "run_parallel", lambda *a, **k: doctored)
    status, out, _ = run_cli(capsys, "verify", "--order", "3")
    assert status == 1
    assert "violator at index 7" in out


def test_exit_1_on_alarm(capsys, monkeypatch):
    spec = EnumerationSpec(n=3)
    doctored = CampaignResult(
        spec, {"enumerated": 1, "examined": 1, "violations": 0, "alarms": 1}
    )
    monkeypatch.setattr(campaigns, "screen_and_audit", lambda *a, **k: doctored)
    status, _, _ = run_cli(capsys, "search", "--order", "3", "--pattern", "rgb")
    assert status == 1


def test_internal_error_exits_2_not_1(capsys, monkeypatch):
    def broken(*a, **k):
        raise RuntimeError("kernel fell over")

    monkeypatch.setattr(campaigns, "run_parallel", broken)
    status, out, err = run_cli(capsys, "verify", "--order", "3")
    assert status == 2
    assert out == ""
    assert "error: internal error: RuntimeError: kernel fell over" in err
    assert "Traceback" in err


def test_verify_workers_capped_at_cpu_count(capsys, monkeypatch):
    asked = []

    def in_process(campaign, spec, workers=1, **kwargs):
        asked.append(workers)  # start no process: run the campaign here
        return campaign(spec, **kwargs)

    monkeypatch.setattr(campaigns, "run_parallel", in_process)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in ("100000", "0", "1"):
        status, out, _ = run_cli(capsys, "verify", "--order", "3", "--workers", workers)
        assert status == 0 and "enumerated=216" in out
    assert asked == [2, 2, 1]


def test_readme_commands_parse(capsys):
    """Every `$ ... monodom ...` line of README.md is accepted by the parser."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = [line.split("monodom", 1)[1].split("#", 1)[0]
                for line in readme.read_text().splitlines()
                if line.startswith("$ ") and "monodom " in line]
    assert len(commands) >= 10
    rejected = []
    for command in commands:
        try:
            cli.build_parser().parse_args(shlex.split(command))
        except SystemExit:
            rejected.append(command)
    capsys.readouterr()
    assert rejected == []


def test_config_from_args_defaults():
    args = cli.build_parser().parse_args(["verify", "--order", "5"])
    assert args.subcommand == "verify"
    assert args.order == 5
    assert args.colours == 3
    assert not hasattr(args, "mode")
    assert args.shard == (0, 1)
    assert args.budget == DEFAULT_BUDGET
    assert not hasattr(args, "cyclic")
