import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dpbandits
from dpbandits import cli, env, harness, policies, privacy, verify

#: the package root's exports before it re-exported each module's __all__
EARLIER_EXPORTS = {
    "AggregateResult", "ArmState", "BUDGET_SCALE", "BanditInstance", "DpPoint", "DpTsUcbConfig",
    "DpTsUcbPolicy", "ExperimentResult", "ExperimentSpec", "GaussianThompsonPolicy", "GdpParam",
    "MTsGaussianConfig", "McReport", "PolicyConfig", "Purpose", "RngStream", "RunResult",
    "TsGaussianConfig", "Ucb1Config", "Ucb1Policy", "check_gaussian_tail_facts", "compose",
    "default_battery", "default_checkpoints", "eta_dp_ts_ucb", "eta_m_ts_gaussian",
    "eta_ts_gaussian", "gaps", "gdp_to_dp", "inverse_prob_threshold", "make_policy", "match_c",
    "mc_hoeffding", "mc_inverse_prob", "mc_max_boost", "phi_budget", "policy_gdp",
    "run_experiment", "run_single", "sample_reward", "std_normal_cdf", "std_normal_logcdf",
    "std_normal_quantile", "tradeoff_G", "write_csv", "__version__",
}

MODULES = (env, harness, policies, privacy, verify)


def test_the_root_keeps_every_earlier_export():
    assert len(EARLIER_EXPORTS) == 46
    assert EARLIER_EXPORTS <= set(dpbandits.__all__)


def test_the_root_exports_each_name_once_and_nothing_else():
    assert len(dpbandits.__all__) == len(set(dpbandits.__all__))
    declared = [name for module in MODULES for name in module.__all__]
    assert dpbandits.__all__ == [*declared, "__version__"]


def test_each_export_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dpbandits, name) is getattr(module, name)
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def _modules_loaded_by(statement):
    # a fresh interpreter, so that no other test can have imported anything first
    script = f"import sys\n{statement}\nprint(' '.join(sys.modules))\n"
    src = str(Path(dpbandits.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_package_leaves_the_cli_unloaded():
    assert "dpbandits.cli" not in _modules_loaded_by("import dpbandits")


def test_neither_the_package_nor_the_cli_loads_scipy():
    for statement in ("import dpbandits", "import dpbandits.cli"):
        loaded = _modules_loaded_by(statement)
        assert {"dpbandits", "numpy"} <= loaded
        assert not [name for name in loaded if name.split(".")[0] == "scipy"], statement


ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_readme_commands_resolve():
    blocks = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("dpbandits ")]
    assert len(commands) >= 4
    for argv in commands:
        try:
            cli.parse_config(argv)
        except (cli.UsageError, SystemExit) as exc:  # argparse exits on a bad flag
            pytest.fail(f"dpbandits {shlex.join(argv)}: {exc!r}")


def test_the_readme_names_only_files_that_exist():
    bench = re.findall(r"BENCH_\d+\.json", README)
    paths = re.findall(r"`((?:src|tests|benchmarks)/[^`\s]*)`", README)
    assert bench and paths
    assert [name for name in (*bench, *paths) if not (ROOT / name).exists()] == []
