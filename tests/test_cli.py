import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpbandits
from dpbandits.cli import (
    COMMAND_KEYS,
    CliConfig,
    PAPER_BEST_B,
    PRESETS,
    UsageError,
    config_items,
    expand_policies,
    main,
    parse_config,
)
from dpbandits.policies import DpTsUcbConfig, MTsGaussianConfig, TsGaussianConfig, Ucb1Config
from dpbandits.privacy import match_c
from dpbandits.verify import BATTERY_CHECKS, McReport


def test_defaults_resolve_without_any_flags():
    cfg = parse_config(["run"])
    assert cfg.command == "run"
    assert cfg.means == (0.95, 0.75, 0.55, 0.35, 0.15)
    assert cfg.horizon == 100000
    assert cfg.alphas == (0.0,)
    assert cfg.policies == ("dp-ts-ucb",)
    assert (cfg.b, cfg.c) == (0, "match")
    assert (cfg.runs, cfg.seed, cfg.out) == (20, 0, "results")
    assert cfg.eps_grid == (0.0, 0.5, 1.0, 2.0)
    assert cfg.workers is None
    assert cfg.trials == 100000
    assert cfg.checks == BATTERY_CHECKS


def test_preset_fig3_with_explicit_runs():
    cfg = parse_config(["run", "--preset", "paper-fig3", "--runs", "20"])
    assert cfg.horizon == 10**6
    assert cfg.alphas == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert cfg.policies == ("dp-ts-ucb",)
    assert cfg.runs == 20


def test_preset_fig5_expands_to_the_matched_baseline():
    cfg = parse_config(["run", "--preset", "paper-fig5", "--alpha", "1"])
    assert (cfg.b, cfg.c) == ("paper", "match")
    policies = expand_policies(cfg)
    assert [p.variant for p in policies[:1]] == [DpTsUcbConfig(1.0)]
    mts = policies[1].variant
    assert isinstance(mts, MTsGaussianConfig)
    assert mts.b == 2000
    assert mts.c == pytest.approx(60.46244990483342, rel=1e-15)


def test_preset_fig4_uses_the_regret_recipe():
    cfg = parse_config(["run", "--preset", "paper-fig4", "--alpha", "0,1"])
    policies = expand_policies(cfg)
    variants = [p.variant for p in policies]
    assert variants[:2] == [DpTsUcbConfig(0.0), DpTsUcbConfig(1.0)]
    assert variants[2] == MTsGaussianConfig(0, 5.0)  # 5 ln^0 T is exactly 5
    assert variants[3] == MTsGaussianConfig(0, 5.0 * math.log(10**6))


def test_all_presets_resolve_for_every_command(capsys):
    for preset in PRESETS:
        for command in ("run", "privacy"):
            cfg = parse_config([command, "--preset", preset])
            assert cfg.command == command
            if preset != "paper-fig5":  # fig5 needs b='paper' per-alpha lookup
                assert expand_policies(cfg)
        assert main(["verify", "--preset", preset]) == 2  # verify reads no experiment keys
    capsys.readouterr()


def test_out_of_range_alpha_is_a_usage_error():
    with pytest.raises(UsageError):
        parse_config(["run", "--alpha", "1.5"])
    with pytest.raises(UsageError):
        parse_config(["run", "--alpha", "-0.2"])


@pytest.mark.parametrize(
    "flags",
    [
        ["run", "--policies", "bogus"],
        ["run", "--policies", ""],
        ["run", "--b", "-1"],
        ["run", "--b", "two"],
        ["run", "--c", "nope"],
        ["run", "--c", "-3"],
        ["run", "--c", "0"],
        ["run", "--eps-grid", "0,-1"],
        ["run", "--workers", "0"],
        ["verify", "--trials", "100"],
        ["verify", "--checks", "boost,bogus"],
        ["run", "--runs", "0"],
        ["run", "--T", "0"],
        ["run", "--preset", "bogus"],
        ["run", "--means", ""],
        ["run", "--means", "0.5,abc"],
        ["run", "--seed", "-1"],
        ["verify", "--trials", "1000000000001"],  # beyond the cap
        ["verify", "--checks", ","],
        ["verify", "--checks", ""],
    ],
)
def test_bad_values_raise_usage_errors(flags):
    with pytest.raises(UsageError):
        parse_config(flags)


#: a valid value for every flag some command does not take
_VALUES = {"--trials": "20000", "--checks": "boost", "--preset": "paper-fig3",
           "--means": "0.9,0.1", "--T": "1000", "--alpha": "1", "--policies": "ucb1",
           "--b": "1", "--c": "2", "--runs": "1", "--out": "elsewhere", "--eps-grid": "1",
           "--workers": "2"}

#: the (command, flag) pairs outside each command's settings
_FOREIGN_FLAGS = [
    *((command, flag) for command in ("run", "privacy") for flag in ("--trials", "--checks")),
    *(("verify", flag) for flag in ("--preset", "--means", "--T", "--alpha", "--policies",
                                    "--b", "--c", "--runs", "--out", "--eps-grid",
                                    "--workers")),
]


def test_each_command_takes_only_the_settings_it_reads():
    experiment = ("preset", "means", "T", "alpha", "policies", "b", "c", "runs", "seed",
                  "out", "eps-grid", "workers")
    assert COMMAND_KEYS == {"run": experiment, "privacy": experiment,
                            "verify": ("seed", "trials", "checks")}
    assert len(_FOREIGN_FLAGS) == 15


@pytest.mark.parametrize("command,flag", _FOREIGN_FLAGS)
def test_a_flag_the_command_does_not_read_exits_two_and_writes_nothing(
        command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default --out is relative
    assert main([command, flag, _VALUES[flag], "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"usage: dpbandits {command} " in err  # the command's own flag list
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["privacy", "--work", "2", "--pol", "ucb1"], ["verify", "--tri", "20000"]]
)
def test_an_abbreviated_flag_exits_two_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert main(argv) == 2
    assert f"usage: dpbandits {argv[0]} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,line",
    [("run", "trials = 20000"), ("privacy", "checks = boost"), ("verify", "T = 1000"),
     ("verify", "preset = paper-fig3"), ("verify", "out = elsewhere"), ("verify", "workers = 2")],
)
def test_a_config_key_the_command_does_not_read_exits_two(
        command, line, tmp_path, monkeypatch, capsys):
    path = tmp_path / "settings.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(UsageError, match=f"{command} reads no key"):
        parse_config([command, "--config", str(path)])
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_config_file_sits_between_preset_and_flags(tmp_path):
    path = tmp_path / "settings.cfg"
    path.write_text(
        "# comment line\n"
        "preset = paper-fig3\n"
        "T = 50000  # trailing comment\n"
        "runs = 7\n"
    )
    cfg = parse_config(["run", "--config", str(path), "--runs", "9"])
    assert cfg.alphas == (0.0, 0.25, 0.5, 0.75, 1.0)  # from the preset
    assert cfg.horizon == 50000  # file overrides the preset
    assert cfg.runs == 9  # flag overrides the file


def test_preset_flag_beats_preset_in_the_file(tmp_path):
    path = tmp_path / "settings.cfg"
    path.write_text("preset = paper-fig3\n")
    cfg = parse_config(["run", "--config", str(path), "--preset", "paper-fig5"])
    assert cfg.alphas == (0.0, 1.0)
    assert cfg.b == "paper"


def test_config_file_rejects_unknown_keys_and_bad_lines(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("horizon = 100\n")  # the key is called T
    with pytest.raises(UsageError):
        parse_config(["run", "--config", str(bad_key)])
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(UsageError):
        parse_config(["run", "--config", str(bad_line)])


def test_config_items_roundtrip_is_exact(tmp_path):
    sources = [
        ["run"],
        ["run", "--preset", "paper-fig5"],
        ["verify", "--trials", "12345", "--checks", "boost,hoeffding", "--seed", "3"],
        ["privacy", "--alpha", "0.25,0.75", "--b", "17", "--c", "2.6457513110645907",
         "--means", "0.9,0.1", "--workers", "4", "--eps-grid", "0.1,0.30000000000000004"],
    ]
    for i, argv in enumerate(sources):
        cfg = parse_config(argv)
        path = tmp_path / f"roundtrip_{i}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config_items(cfg).items()))
        again = parse_config([argv[0], "--config", str(path)])
        assert again == cfg


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "paper-fig4", "--runs", "3", "--workers", "2", "--out", "r"],
        ["verify", "--trials", "20000", "--checks", "hoeffding"],
        ["privacy", "--preset", "paper-fig5", "--seed", "4", "--eps-grid", "0.25"],
    ],
)
def test_config_items_hold_exactly_the_command_settings(argv, tmp_path):
    cfg = parse_config(argv)
    items = config_items(cfg)
    assert tuple(items) == tuple(k for k in COMMAND_KEYS[argv[0]] if k != "preset")
    path = tmp_path / "items.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    assert parse_config([argv[0], "--config", str(path)]) == cfg


def test_preset_expansion_is_idempotent(tmp_path):
    # resolving a preset and feeding the result back must change nothing
    cfg = parse_config(["run", "--preset", "paper-fig4"])
    path = tmp_path / "expanded.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config_items(cfg).items()))
    assert parse_config(["run", "--config", str(path)]) == cfg


def test_expand_policies_orders_and_per_alpha_expansion():
    cfg = parse_config(
        ["run", "--policies", "ucb1,dp-ts-ucb,ts-gaussian", "--alpha", "0,0.5", "--T", "1000"]
    )
    variants = [p.variant for p in expand_policies(cfg)]
    assert variants == [
        Ucb1Config(),
        DpTsUcbConfig(0.0),
        DpTsUcbConfig(0.5),
        TsGaussianConfig(),
    ]


def test_expand_policies_fixed_numeric_baseline_ignores_alpha():
    cfg = parse_config(
        ["run", "--policies", "m-ts-gaussian", "--b", "3", "--c", "1.5", "--alpha", "0,1"]
    )
    policies = expand_policies(cfg)
    assert [p.variant for p in policies] == [MTsGaussianConfig(3, 1.5)]


def test_expand_policies_matched_c_per_alpha():
    cfg = parse_config(
        ["run", "--policies", "m-ts-gaussian", "--b", "2", "--c", "match", "--alpha", "0,1",
         "--T", "100000"]
    )
    variants = [p.variant for p in expand_policies(cfg)]
    assert variants == [
        MTsGaussianConfig(2, match_c(0.0, 10**5, 2)),
        MTsGaussianConfig(2, match_c(1.0, 10**5, 2)),
    ]


def test_paper_b_outside_the_grid_is_a_usage_error():
    cfg = parse_config(
        ["run", "--policies", "m-ts-gaussian", "--b", "paper", "--alpha", "0.5"]
    )
    with pytest.raises(UsageError, match="alpha=0.5"):
        expand_policies(cfg)
    assert PAPER_BEST_B == {0.0: 1, 1.0: 2000}


# ---------------------------------------------------------------------------
# end-to-end command behavior and exit codes


def test_run_command_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["run", "--T", "200", "--policies", "dp-ts-ucb,ucb1", "--alpha", "1",
         "--runs", "2", "--out", str(out)]
    )
    assert code == 0
    for name in ("per_run.csv", "aggregate.csv", "privacy.csv", "summary.txt"):
        assert (out / name).exists()
    printed = capsys.readouterr().out
    assert (out / "summary.txt").read_text() == printed
    assert "dp-ts-ucb(alpha=1)" in printed
    with (out / "per_run.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["policy", "seed", "checkpoint", "regret"]
    assert len(rows) > 1


def test_run_command_ucb1_regret_is_far_from_the_worst_case(tmp_path):
    out = tmp_path / "ucb"
    T = 200
    assert main(["run", "--T", str(T), "--policies", "ucb1", "--runs", "3",
                 "--out", str(out)]) == 0
    with (out / "aggregate.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    final_mean = float(rows[-1][2])
    assert final_mean < 2.0 + 0.8 * (T - 5)


def test_verify_command_reports_all_checks(tmp_path, capsys):
    code = main(["verify", "--checks", "gaussian-facts,log-inequality"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "13/13 checks passed" in printed
    assert "gauss-tail-lower(z=0.1)" in printed
    assert "PASS" in printed and "FAIL" not in printed


def test_verify_closed_form_checks_ignore_the_seed(capsys):
    main(["verify", "--checks", "gaussian-facts", "--seed", "0"])
    first = capsys.readouterr().out
    main(["verify", "--checks", "gaussian-facts", "--seed", "99"])
    assert capsys.readouterr().out == first


def test_verify_takes_trials_up_to_the_cap(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("dpbandits.cli.default_battery", lambda *a: calls.append(a) or [])
    assert main(["verify", "--trials", "1000000000000", "--checks", "boost"]) == 0
    assert calls == [(10**12, 0, ("boost",))]


def test_verify_failure_exits_one(monkeypatch, capsys):
    failing = McReport("stub", 1.0, 10**4, 0.0, 0.5, "le", False)
    monkeypatch.setattr("dpbandits.cli.default_battery", lambda *a, **k: [failing])
    assert main(["verify"]) == 1
    assert "0/1 checks passed" in capsys.readouterr().out


def test_privacy_command_prints_and_writes_the_table(tmp_path, capsys):
    out = tmp_path / "ptab"
    code = main(
        ["privacy", "--policies", "dp-ts-ucb,ts-gaussian,ucb1", "--alpha", "1",
         "--T", "100000", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].split() == ["policy", "alpha", "T", "eta", "epsilon", "delta"]
    assert "ucb1" not in printed  # no guarantee, no rows
    with (out / "privacy.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 2 * 4  # two guaranteed policies x default eps grid


def test_privacy_on_a_run_command_line_writes_the_run_privacy_table(tmp_path, capsys):
    # the benchmark checks a run by calling privacy with the run's own flags
    flags = ["--preset", "paper-fig5", "--policies", "dp-ts-ucb,m-ts-gaussian,ts-gaussian,ucb1",
             "--T", "12000", "--runs", "1", "--workers", "1", "--seed", "5"]
    assert main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
    assert main(["privacy", *flags, "--out", str(tmp_path / "privacy")]) == 0
    capsys.readouterr()
    table = (tmp_path / "run" / "privacy.csv").read_bytes()
    assert (tmp_path / "privacy" / "privacy.csv").read_bytes() == table
    assert table.count(b"\n") == 1 + 5 * 4  # five guaranteed configurations x four epsilons


@pytest.mark.parametrize("command", ["run", "privacy"])
def test_a_huge_epsilon_gives_a_zero_delta_not_a_traceback(command, tmp_path, capsys):
    # at eps=1e300 both terms of delta underflow; at 1e100 delta came out -0.0
    argv = [command, "--policies", "dp-ts-ucb", "--alpha", "1", "--T", "1000", "--runs", "1",
            "--workers", "1", "--eps-grid", "1e100,1e300", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    with (tmp_path / "privacy.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [(row[4], row[5]) for row in rows] == [
        ("1e+100", "0"), ("1.0000000000000001e+300", "0")
    ]


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["run", "--alpha", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--trials", "100"]) == 2
    assert main(["verify", "--trials", "1000000000001"]) == 2
    assert "trials must be <= 1000000000000" in capsys.readouterr().err
    assert main(["run", "--preset", "bogus"]) == 2
    assert main(["run", "--policies", "m-ts-gaussian", "--b", "paper",
                 "--alpha", "0.5"]) == 2
    capsys.readouterr()
    # two policies with one label: their rows could not be told apart
    for argv in (["run", "--policies", "ucb1,ucb1"],
                 ["privacy", "--policies", "dp-ts-ucb", "--alpha", "0,0"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "share the label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_argparse_level_errors_exit_two(capsys):
    assert main([]) == 2  # a subcommand is required
    assert main(["run", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_io_errors_exit_three(tmp_path, capsys):
    missing = tmp_path / "no_such.cfg"
    assert main(["run", "--config", str(missing)]) == 3
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    assert main(["run", "--T", "100", "--runs", "1", "--out", str(blocker)]) == 3
    capsys.readouterr()


def test_library_domain_errors_exit_two(capsys):
    # T below the budgeted policy's minimum horizon surfaces as usage, not a crash
    assert main(["run", "--T", "5", "--runs", "1"]) == 2
    assert main(["privacy", "--T", "5"]) == 2
    assert main(["run", "--means", "0.5,1.5", "--T", "100", "--runs", "1"]) == 2
    # fig5's b=2000 round-robin needs T >= 2001 * 5 rounds
    assert main(["run", "--preset", "paper-fig5", "--T", "10000", "--runs", "1"]) == 2
    assert "initialization rounds" in capsys.readouterr().err
    assert main(["privacy", "--preset", "paper-fig5", "--T", "10000"]) == 2
    assert "initialization rounds" in capsys.readouterr().err


#: settings both run and privacy reject; after --T 100 --runs 1, so that a run
#: which wrongly starts stays small
_REJECTED_BY_BOTH = [
    ["--means", "2,0.5"],
    ["--means", "nan,0.5"],
    ["--eps-grid", "nan"],
    ["--eps-grid", "inf"],
    ["--eps-grid", "0,-inf"],
    ["--policies", "bogus"],
    ["--T", "5"],  # below dp-ts-ucb's minimum horizon
    ["--policies", "ucb1", "--T", "3"],  # fewer rounds than arms
]


@pytest.mark.parametrize("flags", _REJECTED_BY_BOTH, ids=" ".join)
@pytest.mark.parametrize("command", ["run", "privacy"])
def test_run_and_privacy_reject_the_same_settings_with_two_and_write_nothing(
        command, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--T", "100", "--runs", "1", "--workers", "1", *flags, "--out", "out"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "privacy"])
def test_an_unusable_out_exits_three_before_any_work(command, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr("dpbandits.cli.run_experiment", no_work)
    monkeypatch.setattr("dpbandits.cli.write_privacy_csv", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    assert main([command, "--T", "100", "--runs", "1", "--out", str(blocker)]) == 3
    assert "error:" in capsys.readouterr().err
    assert blocker.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize(
    "argv, module, loaded",
    [
        (["run", "--T", "100", "--runs", "2", "--workers", "1"], "process", False),
        (["run", "--T", "100", "--runs", "2", "--workers", "2"], "process", True),
        (["verify", "--trials", "10000"], "thread", False),
    ],
)
def test_only_a_started_pool_imports_its_executor_module(argv, module, loaded, tmp_path):
    # a fresh interpreter, so that no other test can have imported the module
    # first; run writes to the default --out under tmp_path
    script = (
        "import sys\n"
        "from dpbandits.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, 'concurrent.futures.{module}' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dpbandits.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"0 {loaded}"


def test_value_errors_from_inside_the_library_propagate(monkeypatch):
    def broken(spec, workers=None):
        raise ValueError("internal fault")

    monkeypatch.setattr("dpbandits.cli.run_experiment", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["run", "--T", "100", "--runs", "1"])


def test_cli_config_is_frozen():
    cfg = parse_config(["run"])
    assert isinstance(cfg, CliConfig)
    with pytest.raises(AttributeError):
        cfg.horizon = 5
