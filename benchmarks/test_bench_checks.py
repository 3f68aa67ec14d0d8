"""Tests for the benchmark's own checks: each passes on real program output
at tiny sizes and fails on a deliberately corrupted copy.

    PYTHONPATH=src python -m pytest benchmarks
"""
import copy
import dataclasses
import math

import pytest

from dpbandits import cli, policies, verify

import checks
import layers

MEANS = (0.95, 0.75, 0.55, 0.35, 0.15)
T = 300
ARGV = ["run", "--means", ",".join(map(repr, MEANS)), "--alpha", "0,1",
        "--policies", "dp-ts-ucb,m-ts-gaussian,ts-gaussian,ucb1", "--b", "1",
        "--T", str(T), "--runs", "3", "--workers", "1", "--seed", "7"]


@pytest.fixture(scope="module")
def real_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert cli.main([*ARGV, "--out", str(out / "a")]) == 0
    assert cli.main(["privacy", *ARGV[1:], "--T", str(2 * T), "--out", str(out / "b")]) == 0
    return {
        "per_run": checks.read_csv(out / "a" / "per_run.csv"),
        "aggregate": checks.read_csv(out / "a" / "aggregate.csv"),
        "privacy": checks.read_csv(out / "a" / "privacy.csv"),
        "privacy_other_horizon": checks.read_csv(out / "b" / "privacy.csv"),
    }


@pytest.fixture
def outputs(real_outputs):
    return copy.deepcopy(real_outputs)


def failures(outputs):
    return checks.run_failures(outputs["per_run"], outputs["aggregate"], outputs["privacy"],
                               outputs["privacy_other_horizon"], MEANS, T)


def messages(outputs):
    return [m for msgs in failures(outputs).values() for m in msgs]


def _rows(rows, **match):
    return [r for r in rows if all(r[k] == v for k, v in match.items())]


def test_real_run_outputs_pass(outputs):
    found = failures(outputs)
    assert len(found) == 6 * 3
    assert all(msgs == [] for msgs in found.values())


@pytest.mark.parametrize("label, checkpoint", [("ucb1", "5"), ("m-ts-gaussian(b=1;c=", "10")])
def test_perturbed_round_robin_regret_fails(outputs, label, checkpoint):
    row = next(r for r in outputs["per_run"]
               if r["policy"].startswith(label) and r["checkpoint"] == checkpoint)
    row["regret"] = repr(math.nextafter(float(row["regret"]), math.inf))
    found = failures(outputs)
    bad = [op for op, msgs in found.items() if any("round-robin" in m for m in msgs)]
    assert bad == [(row["policy"], int(row["seed"]))]


def test_decreasing_regret_fails(outputs):
    rows = _rows(outputs["per_run"], policy="ts-gaussian", seed="0")
    rows[-2]["regret"] = repr(float(rows[-1]["regret"]) + 1.0)
    assert any("decreases" in m for m in messages(outputs))


def test_regret_step_beyond_max_gap_fails(outputs):
    rows = _rows(outputs["per_run"], policy="ts-gaussian", seed="1")
    steps = int(rows[-1]["checkpoint"]) - int(rows[-2]["checkpoint"])
    rows[-1]["regret"] = repr(float(rows[-2]["regret"]) + steps * 0.8 + 0.01)
    assert any("grows by" in m for m in messages(outputs))


def test_final_regret_at_uniform_play_fails(outputs):
    row = _rows(outputs["per_run"], policy="ucb1", seed="2")[-1]
    row["regret"] = repr(T * math.fsum(checks.gaps(MEANS)) / len(MEANS))
    assert any("uniform play" in m for m in messages(outputs))


@pytest.mark.parametrize("column", ["mean_regret", "std_regret"])
def test_perturbed_aggregate_fails(outputs, column):
    row = _rows(outputs["aggregate"], policy="ucb1", checkpoint=str(T))[0]
    row[column] = repr(float(row[column]) * (1.0 + 1e-9))
    found = failures(outputs)
    assert [op for op, msgs in found.items() if msgs] == [("ucb1", s) for s in range(3)]


def test_wrong_delta_fails(outputs):
    row = outputs["privacy"][5]
    row["delta"] = repr(float(row["delta"]) * (1.0 + 1e-6))
    assert any(f"at eps={float(row['epsilon']):g}, want" in m for m in messages(outputs))


def test_delta_outside_unit_interval_fails(outputs):
    outputs["privacy"][0]["delta"] = "1.5"
    assert any("outside [0, 1]" in m for m in messages(outputs))


def test_delta_increasing_in_epsilon_fails(outputs):
    rows = _rows(outputs["privacy"], policy="dp-ts-ucb(alpha=1)")
    rows[0]["delta"], rows[-1]["delta"] = rows[-1]["delta"], rows[0]["delta"]
    assert any("increases with epsilon" in m for m in messages(outputs))


def test_eta_at_alpha_one_changing_with_horizon_fails(outputs):
    for row in _rows(outputs["privacy_other_horizon"], policy="dp-ts-ucb(alpha=1)"):
        row["eta"] = repr(float(row["eta"]) * 1.01)
    assert any("changes with T" in m for m in messages(outputs))


# ---------------------------------------------------------------------------
# traced replays


@pytest.fixture(scope="module")
def spec():
    return layers.experiment_spec(ARGV)


def test_replays_reproduce_run_single(spec):
    traced = layers.trace_rounds(spec, range(len(spec.policies)), layers.clock_overhead_ns(101))
    assert traced.failed == 0
    assert len(traced.runs) == 6 * 3
    assert traced.select_ns > 0 and traced.update_ns > 0 and traced.reward_ns > 0


def test_replay_checks_fail_on_corrupted_results(spec):
    result = layers.harness.run_single(spec, 0, 0)
    rep = layers.replay(spec, 0, 0, 0.0)
    gap = checks.gaps(MEANS)
    assert checks.replay_failures(result.regret, result.pulls, rep.trace, rep.pulls, gap, T) == []
    trace = list(rep.trace)
    trace[-1] += 0.2
    assert checks.replay_failures(result.regret, result.pulls, trace, rep.pulls, gap, T)
    pulls = list(result.pulls)
    pulls[0] += 1
    msgs = checks.replay_failures(result.regret, pulls, rep.trace, pulls, gap, T)
    assert any("pulls sum" in m for m in msgs)
    pulls[0], pulls[1] = pulls[0] - 2, pulls[1] + 1
    msgs = checks.replay_failures(result.regret, pulls, rep.trace, pulls, gap, T)
    assert [m for m in msgs if "pulls x gaps" in m]


@pytest.mark.parametrize("position", [0, 1])
def test_budget_audit_passes_on_the_program(spec, position):
    assert spec.policies[position].variant.name == "dp-ts-ucb"
    assert layers.audit_budget(spec, position, 0) == []


def test_budget_audit_catches_an_overspent_budget(spec, monkeypatch):
    real = policies.phi_budget
    monkeypatch.setattr(policies, "phi_budget", lambda alpha, horizon: real(alpha, horizon) + 1)
    msgs = layers.audit_budget(spec, 1, 0)
    assert any("without budget" in m for m in msgs)


def test_budget_failures_on_corrupted_epochs():
    assert checks.budget_failures(10, 0, [(0, 1, 2, 2), (0, 2, 4, 4)]) == []
    assert checks.budget_failures(10, 0, [(0, 2, 3, 2)])
    assert checks.budget_failures(10, 0, [(0, 4, 16, 11)])
    assert checks.budget_failures(10, 1, [(0, 1, 2, 2)])
    assert checks.budget_failures(10, 0, [])


# ---------------------------------------------------------------------------
# verification reports


@pytest.fixture(scope="module")
def reports():
    return verify.default_battery(verify.MIN_TRIALS, 3)


def test_real_reports_pass(reports):
    assert len(reports) == checks.BATTERY_SIZE
    assert [checks.report_failures(r) for r in reports] == [[]] * len(reports)


def _shifted(report, by):
    return dataclasses.replace(report, estimate=report.estimate + by)


@pytest.mark.parametrize("family", ["boost(alpha=1,T=1000,s=1)", "hoeffding(n=100,a=0.1)",
                                    "hoeffding(n=100,a=0.2)"])
def test_shifted_frequency_fails(reports, family):
    report = next(r for r in reports if r.name == family)
    p = max(report.estimate, 1.0 / report.trials)
    shift = 6.0 * math.sqrt(p * (1.0 - p) / report.trials) + 5.0 / report.trials
    assert checks.report_failures(report) == []
    assert checks.report_failures(_shifted(report, shift))


@pytest.mark.parametrize("index", [0, 3])
def test_shifted_inverse_prob_fails(reports, index):
    report = [r for r in reports if r.name.startswith("inverse-prob")][index]
    m = checks._INVERSE.fullmatch(report.name)
    exact, _ = checks.exact_inverse_prob(float(m[1]), int(m[2]), int(m[3]), m[4] == "shifted")
    assert checks.report_failures(report) == []
    for sign in (1.0, -1.0):
        shifted = dataclasses.replace(report, estimate=exact + sign * 6.0 * report.mc_std_err)
        assert checks.report_failures(shifted)


def test_tail_value_off_erfc_fails(reports):
    report = next(r for r in reports if r.name.startswith("gauss-tail"))
    assert checks.report_failures(dataclasses.replace(report, estimate=report.estimate * (1 + 1e-13)))


def test_log_margin_off_fails(reports):
    report = next(r for r in reports if r.name == "log-inequality")
    assert checks.report_failures(_shifted(report, 1e-9))


def test_failed_verdict_fails(reports):
    assert checks.report_failures(dataclasses.replace(reports[-1], passed=False))


def test_frequency_agreement_thresholds():
    # normal regime: sd = sqrt(25000) = 158
    assert checks.frequency_agrees(50_000 + 700, 100_000, 0.5)
    assert not checks.frequency_agrees(50_000 - 900, 100_000, 0.5)
    # exact regime: a mean of 0.1 expected successes
    assert checks.frequency_agrees(3, 10**6, 1e-7)
    assert not checks.frequency_agrees(6, 10**6, 1e-7)
    assert checks.frequency_agrees(0, 10**6, 0.0)
    assert not checks.frequency_agrees(1, 10**6, 0.0)


def test_missing_and_failing_reports_count_as_failed(reports):
    assert checks.battery_failures(reports) == (checks.BATTERY_SIZE, 0)
    assert checks.battery_failures(reports[1:]) == (checks.BATTERY_SIZE, 1)
    broken = [dataclasses.replace(reports[0], passed=False), *reports[1:]]
    assert checks.battery_failures(broken) == (checks.BATTERY_SIZE, 1)
