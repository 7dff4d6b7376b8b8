import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stableem
from stableem.cf_oracle import _SERIES_CUTOFF, _chain_weights
from stableem.cli import main
from stableem.config import load_config
from stableem.sampling import noise_constants

ROOT = Path(__file__).resolve().parents[1]


def _python(*args):
    """Run the suite's interpreter on args, with the stableem this suite imports first on its path."""
    src = str(Path(stableem.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_schedule_subcommand_smoke(tmp_path, capsys):
    out = str(tmp_path / "sched")
    code = main([
        "schedule", "--alpha", "1.5", "--schedule", "c-over-rho-n:2,0.5", "--out", out,
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    summary = json.load(open(out + ".json"))
    assert summary["verdict"] is True
    assert summary["seed"] == 0
    assert "omega" in summary and "rho_toy" in summary
    assert os.path.exists(out + ".csv")


def test_schedule_csv_matches_benchmark_reference(tmp_path):
    # The config of the benchmark's schedule-diag workload; its reference CSV
    # was written before the windowed sum became lazy.
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "experiment = schedule\nalpha = 1.5\nschedule = c-over-rho-n:2,0.5\n"
        "rho_toy = 0.5\nn_max = 100000\nseed = 42\n"
    )
    out = str(tmp_path / "sched")
    assert main(["schedule", "--config", str(cfg), "--out", out]) == 0
    reference = (ROOT / "perfbench" / "reference" / "schedule-diag.csv").read_bytes()
    assert Path(out + ".csv").read_bytes() == reference


@pytest.mark.parametrize("schedule", ["poly:0.5,0.7", "poly:0.1,0.5"])
def test_schedule_passes_on_sub_harmonic_poly(tmp_path, schedule):
    # omega = 0 for a < 1, while the tail ratio at k = 10 n_max is about its
    # leading term theta a k^{a-1} / gamma_1 > 0: that term is what it is checked against.
    out = str(tmp_path / "sched")
    argv = ["--schedule", schedule, "--n_max", "100000", "--rho_toy", "4", "--out", out]
    assert main(["schedule", *argv]) == 0
    summary = json.load(open(out + ".json"))
    assert summary["omega_closed_form"] == 0.0 and summary["omega_numeric_tail"] > 0.0


def test_schedule_fails_when_the_closed_form_omega_is_wrong(tmp_path, monkeypatch):
    import stableem.schedule as schedule

    omega_of = schedule.omega_of
    monkeypatch.setattr(schedule, "omega_of", lambda s: 1.1 * omega_of(s))
    out = str(tmp_path / "sched")
    assert main(["schedule", "--schedule", "c-over-rho-n:2,0.5", "--out", out]) == 2
    summary = json.load(open(out + ".json"))
    # the recurrence and decay checks hold, so the omega cross-check is what fails
    assert summary["omega_closed_form"] == pytest.approx(1.1 / 6)
    assert summary["v_ratio_final"] <= summary["recurrence_bound"]
    assert summary["exp_decay_ratio_final"] < 1e-3


def test_schedule_fails_when_the_closed_form_omega_of_sub_harmonic_poly_is_wrong(tmp_path, monkeypatch):
    # At a < 1 the tail ratio is checked against omega plus its leading term,
    # so a wrong omega there fails the cross-check too.
    import stableem.schedule as schedule

    omega_of = schedule.omega_of
    monkeypatch.setattr(
        schedule, "omega_of", lambda s: 0.1 if s.a is not None and s.a < 1.0 else omega_of(s)
    )
    out = str(tmp_path / "sched")
    argv = ["--schedule", "poly:0.5,0.7", "--n_max", "100000", "--rho_toy", "4", "--out", out]
    assert main(["schedule", *argv]) == 2
    summary = json.load(open(out + ".json"))
    assert summary["omega_closed_form"] == 0.1
    assert summary["v_ratio_final"] <= summary["recurrence_bound"]
    assert summary["exp_decay_ratio_final"] < 1e-3


def test_certify_drift_refuses_too_few_pairs_at_its_flag(tmp_path, capsys):
    out = str(tmp_path / "cert")
    assert main(["certify-drift", "--pairs", "999", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --pairs: bad value for 'pairs': '999'")
    assert not os.path.exists(out + ".json")


@pytest.mark.parametrize("experiment", ["rate", "ergodicity", "cf-check", "schedule"])
def test_explicit_schedule_is_refused_at_its_key(tmp_path, capsys, experiment):
    # Every schedule is a closed formula; a step list is an unknown family.
    out = str(tmp_path / "x")
    steps = "explicit:0.5,0.4,0.3"
    assert main([experiment, "--alpha", "1.5", "--schedule", steps, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --schedule: bad value for 'schedule'")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"experiment = {experiment}\nalpha = 1.5\nschedule = {steps}\n")
    assert main([experiment, "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: bad value for 'schedule'")
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


def test_rho_toy_at_or_below_omega_is_refused_at_its_key(tmp_path, capsys):
    # c-over-n:0.5 at theta = 1/alpha = 2/3 has omega = 4/3, above the default
    # rho_toy = 0.5: located at rho_toy where it is given, else at schedule.
    out = str(tmp_path / "sched")
    assert main(["schedule", "--schedule", "c-over-n:0.5", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --schedule: bad value for 'schedule': 'c-over-n:0.5'")
    assert "rho_toy = 0.5 <= omega = 1.3333333333333333" in err
    assert main(["schedule", "--schedule", "c-over-n:0.5", "--rho_toy", "1", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --rho_toy: bad value for 'rho_toy': 1.0")
    cfg = tmp_path / "cfg"
    # rho_toy = omega exactly
    cfg.write_text("experiment = schedule\nschedule = c-over-n:0.5\nrho_toy = 4/3\n")
    assert main(["schedule", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: bad value for 'rho_toy'")
    cfg.write_text("experiment = schedule\nrho_toy = 0.1\nschedule = c-over-n:0.5\n")
    assert main(["schedule", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: bad value for 'rho_toy'")
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


@pytest.mark.parametrize("experiment, args", [
    ("cf-check", []),
    ("rate", ["--reference", "oracle", "--scheme", "pareto-em"]),
    ("rate", ["--reference", "oracle", "--scheme", "stable-em"]),
], ids=["cf-check", "rate-oracle-pareto-em", "rate-oracle-stable-em"])
def test_chain_law_oracle_refuses_a_unit_first_step_before_running(
    tmp_path, capsys, monkeypatch, experiment, args
):
    import stableem.experiments as experiments

    def run_ensemble(run, workers=1):
        raise AssertionError("no ensemble may run")

    monkeypatch.setattr(experiments, "run_ensemble", run_ensemble)
    out = str(tmp_path / "x")
    code = main([experiment, "--alpha", "1.5", *args, "--schedule", "c-over-n:1", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --schedule: bad value for 'schedule': 'c-over-n:1'")
    assert "gamma_1 = 1.0" in err
    cfg = tmp_path / "cfg"
    cfg.write_text(f"experiment = {experiment}\nalpha = 1.5\nschedule = c-over-rho-n:3,2\n")
    assert main([experiment, "--config", str(cfg), *args, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: bad value for 'schedule'")
    assert not os.path.exists(out + ".json") and not os.path.exists(out + ".csv")


@pytest.mark.parametrize("c, spans", [("0.5", True), ("0.9", False)])
def test_oracle_rate_rows_carry_signed_error_and_local_slope(tmp_path, c, spans):
    # Stable-EM at alpha = 1.5: on c-over-n:0.5 s_n^{1/alpha} - alpha^{-1/alpha}
    # changes sign between n = 2048 and 4096, on c-over-n:0.9 it does not.
    out = str(tmp_path / "rate")
    main([
        "rate", "--scheme", "stable-em", "--reference", "oracle", "--alpha", "1.5",
        "--schedule", f"c-over-n:{c}", "--out", out,
    ])
    summary = json.load(open(out + ".json"))
    assert summary["fit_spans_sign_change"] is spans
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["local_slope"] == ""
    for prev, row in zip(rows, rows[1:]):
        slope = math.log(float(row["w1"]) / float(prev["w1"])) / math.log(
            float(row["gamma_n"]) / float(prev["gamma_n"])
        )
        assert float(row["local_slope"]) == pytest.approx(slope, rel=1e-12)
    for row in rows:
        assert abs(float(row["signed_error"])) == float(row["w1"])
        assert float(row["oracle_err"]) == 0.0
    signs = {float(r["signed_error"]) > 0 for r in rows}
    assert (len(signs) > 1) is spans


def test_local_slope_is_empty_where_w1_is_zero(tmp_path):
    # gamma_n = 4/n: t_n passes 25 early, so the exact OU law rounds onto
    # the invariant one and W1 is exactly 0.0 at the deep checkpoints
    out = str(tmp_path / "rate")
    code = main([
        "rate", "--scheme", "exact-ou", "--reference", "oracle", "--alpha", "1.5",
        "--schedule", "c-over-rho-n:2,0.5", "--checkpoints", "4..8192 geometric", "--out", out,
    ])
    assert code == 0
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["w1"]) == 0.0 and rows[-1]["local_slope"] == ""
    assert rows[1]["local_slope"] != ""
    # negative signed errors, then zeros: no sign change
    assert json.load(open(out + ".json"))["fit_spans_sign_change"] is False


def test_pareto_oracle_rows_carry_quadrature_error(tmp_path):
    out = str(tmp_path / "rate")
    main([
        "rate", "--scheme", "pareto-em", "--reference", "oracle", "--alpha", "1.5",
        "--checkpoints", "128..1024 geometric", "--out", out,
    ])
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        w1 = float(row["w1"])
        assert float(row["signed_error"]) == -w1  # E|Y_n| < E|X_inf| on this chain
        assert 0.0 <= float(row["oracle_err"]) < 1e-6 * w1
    assert json.load(open(out + ".json"))["fit_spans_sign_change"] is False


@pytest.mark.parametrize("c, inside, verdict", [("0.5", False, None), ("0.9", True, True)])
def test_stable_em_gate_runs_only_inside_step_size_hypothesis(tmp_path, capsys, c, inside, verdict):
    # At alpha = 1.2 and theta = 1/alpha, c-over-n:c has omega = 1/(alpha c):
    # 1.67 at c = 0.5, above rho = theta1 = 1 of b(x) = -x, and 0.93 at c = 0.9.
    out = str(tmp_path / "rate")
    code = main([
        "rate", "--scheme", "stable-em", "--reference", "oracle", "--alpha", "1.2",
        "--schedule", f"c-over-n:{c}", "--out", out,
    ])
    assert code == 0
    summary = json.load(open(out + ".json"))
    assert summary["rho_drift"] == 1.0
    assert summary["step_size_hypothesis"] is inside
    assert summary["verdict"] is verdict
    assert ("informational" in capsys.readouterr().out) is (verdict is None)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert stableem.__version__ == tomllib.load(fh)["project"]["version"]


@pytest.mark.parametrize("experiment, keys", [
    ("rate", "alpha = 1.5\nreference = oracle\ncheckpoints = 8..64 geometric\n"),
    ("rate", "alpha = 1.5\nscheme = exact-ou\nm = 400\ncheckpoints = 8..32 geometric\n"),
    ("weak-error", "alpha = 1.5\nmc = 4000\n"),
    ("ergodicity", "alpha = 1.5\nm = 64\n"),
    ("cf-check", "alpha = 1.5\nm = 100\nn = 16\n"),
    ("schedule", ""),
    ("sample", "alpha = 1.5\ncount = 10\n"),
    ("certify-drift", "pairs = 1000\n"),
], ids=["rate-oracle", "rate-ensemble", "weak-error", "ergodicity", "cf-check", "schedule",
        "sample", "certify-drift"])
def test_every_summary_records_the_rng_contract(tmp_path, experiment, keys):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"experiment = {experiment}\n{keys}")
    out = str(tmp_path / "run")
    assert main([experiment, "--config", str(cfg), "--out", out]) in (0, 2)
    summary = json.load(open(out + ".json"))
    assert summary["rng_contract"] == 4
    assert summary["generator"] == stableem.GENERATOR_NAME


def test_config_file_drives_run(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    out = str(tmp_path / "erg")
    cfg.write_text(
        "experiment = ergodicity\nalpha = 1.5\nm = 64\n"
        "checkpoints = 8..64 geometric\nschedule = poly:0.1,0.5\n"
    )
    code = main(["ergodicity", "--config", str(cfg), "--out", out])
    assert code == 0
    summary = json.load(open(out + ".json"))
    assert 0.95 <= summary["decay_rate"] <= 1.05


def test_experiment_mismatch_is_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for text in (
        "experiment = rate\nalpha = 1.5\n",
        # a bad value, or a key rate does not read, is not what is wrong here
        "experiment = rate\nalpha = 1.5\ncheckpoints = 8,16,x\n",
        "experiment = rate\nalpha = 1.5\nn_max = 100\n",
    ):
        cfg.write_text(text)
        assert main(["schedule", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config file is for 'rate', subcommand is 'schedule'\n"


def test_missing_alpha_exits_one(tmp_path, capsys):
    assert main(["rate", "--out", str(tmp_path / "x")]) == 1
    assert "alpha" in capsys.readouterr().err


def test_quantitative_fail_exits_two(tmp_path):
    # starving the weak-error run of samples leaves no usable points
    out = str(tmp_path / "we")
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = weak-error\nalpha = 1.5\nmc = 4000\n")
    code = main(["weak-error", "--config", str(cfg), "--out", out])
    assert code == 2
    assert json.load(open(out + ".json"))["verdict"] is False


def test_rerun_is_byte_identical(tmp_path, block_spy):
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = cf-check\nalpha = 1.5\nm = 20000\nn = 64\n")
    outs = []
    for tag, workers in (("a", "1"), ("b", "3")):
        out = str(tmp_path / tag)
        block_spy.blocks.clear()
        os.environ["STABLEEM_WORKERS"] = workers
        try:
            code = main(["cf-check", "--config", str(cfg), "--out", out])
        finally:
            del os.environ["STABLEEM_WORKERS"]
        assert code in (0, 2)
        outs.append(open(out + ".csv", "rb").read())
    assert outs[0] == outs[1]
    # the 3-worker run really shards: several blocks, on several threads
    assert len(block_spy.blocks) > 1
    assert len({thread for _, thread in block_spy.blocks}) > 1


@pytest.mark.parametrize("value", ["abc", "-2"])
def test_bad_workers_env_exits_one_naming_it(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("STABLEEM_WORKERS", value)
    assert main(["cf-check", "--alpha", "1.5", "--m", "100", "--out", str(tmp_path / "cf")]) == 1
    assert f"STABLEEM_WORKERS: bad value for 'workers': '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["ensemble-cf", "ensemble-rate", "ensemble-rate-stable", "ergodicity"]
)
def test_ensemble_rate_csv_is_byte_identical_across_workers(tmp_path, monkeypatch, name):
    # Blocks of 16 chains, so that every ensemble pin's config shards into
    # 4 to 313 blocks over three workers.  The block size is part of the draw
    # order, so the runs are compared with each other, not with the pin.  The
    # W1 error draws no random numbers, so every column, stderr included, is
    # independent of the worker count.
    import stableem.em as em

    monkeypatch.setattr(em, "_BLOCK_CHAINS", 16)
    cfg = ROOT / "tests" / "data" / f"{name}.cfg"
    experiment = load_config(str(cfg)).experiment
    outs = []
    for workers in ("1", "3"):
        out = str(tmp_path / f"w{workers}")
        argv = [experiment, "--config", str(cfg), "--workers", workers, "--out", out]
        assert main(argv) in (0, 2)
        outs.append(Path(out + ".csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("x0, code", [("0", 0), ("50", 2)])
def test_exact_ou_floor_test_fails_a_biased_start(tmp_path, x0, code):
    # The exact flow from x0 = 50 is still 50 e^{-t} ~ 1.2 off nu at n = 1024;
    # from 0 it is exact, and its gap to the floor is noise.
    out = str(tmp_path / "rate")
    assert main([
        "rate", "--alpha", "1.5", "--scheme", "exact-ou", "--reference", "ensemble",
        "--m", "20000", "--checkpoints", "16..1024 geometric", "--x0", x0, "--seed", "42",
        "--out", out,
    ]) == code
    summary = json.load(open(out + ".json"))
    assert summary["floor_stderr"] > 0.0


def test_ensemble_too_small_to_slice_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "rate")
    code = main([
        "rate", "--alpha", "1.5", "--scheme", "exact-ou", "--reference", "ensemble", "--m", "1",
        "--checkpoints", "16..64 geometric", "--out", out,
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --m: bad value for 'm': 1")
    assert not os.path.exists(out + ".json")


def _with_aborts(monkeypatch):
    """Make the engine return three non-finite chains at the last checkpoint, one earlier."""
    import stableem.experiments as experiments

    real = experiments.run_ensemble

    def run_ensemble(run, workers=1):
        result = real(run, workers=workers)
        result.samples[-1, :3] = np.nan
        result.samples[0, 0] = np.nan
        result.abort_count = 3
        return result

    monkeypatch.setattr(experiments, "run_ensemble", run_ensemble)


@pytest.mark.parametrize("experiment, keys", [
    ("rate", "scheme = exact-ou\nreference = ensemble\ncheckpoints = 8..32 geometric\n"),
    ("cf-check", "n = 16\n"),
])
def test_ensemble_summary_reports_aborted_chains(tmp_path, monkeypatch, experiment, keys):
    _with_aborts(monkeypatch)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"experiment = {experiment}\nalpha = 1.5\nm = 400\n{keys}")
    out = str(tmp_path / "run")
    assert main([experiment, "--config", str(cfg), "--out", out]) in (0, 2)
    summary = json.load(open(out + ".json"))
    assert summary["abort_count"] == 3
    assert summary["m_used"] == 397
    with open(out + ".csv") as fh:
        header = next(csv.reader(fh))
    assert "abort_count" not in header and "m_used" not in header


def test_cf_check_passes_the_engine_row_itself_when_no_chain_aborts(tmp_path, monkeypatch):
    # With every chain finite there is nothing to filter: the ECF reads the
    # engine's positions row, not a copy of it.
    import stableem.experiments as experiments

    seen = {}
    real_run, real_ecf = experiments.run_ensemble, experiments.ecf

    def run_ensemble(run, workers=1):
        seen["result"] = real_run(run, workers=workers)
        return seen["result"]

    def ecf(xs, lam):
        seen["xs"] = xs
        return real_ecf(xs, lam)

    monkeypatch.setattr(experiments, "run_ensemble", run_ensemble)
    monkeypatch.setattr(experiments, "ecf", ecf)
    argv = ["--alpha", "1.5", "--m", "400", "--n", "16", "--out", str(tmp_path / "cf")]
    assert main(["cf-check", *argv]) in (0, 2)
    assert seen["result"].abort_count == 0
    assert np.shares_memory(seen["xs"], seen["result"].samples[0])


def test_aborts_that_leave_too_few_chains_to_slice_are_an_error(tmp_path, monkeypatch, capsys):
    _with_aborts(monkeypatch)
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "experiment = rate\nalpha = 1.5\nm = 41\nscheme = exact-ou\n"
        "checkpoints = 8..32 geometric\n"
    )
    out = str(tmp_path / "run")
    assert main(["rate", "--config", str(cfg), "--out", out]) == 1
    assert "only 38 of 41 chains are finite at n = 32" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_too_few_usable_checkpoints_names_the_key_to_raise(tmp_path, capsys):
    # 400 chains over 8 steps: no checkpoint's W1 rises above 5x the floor.
    out = str(tmp_path / "rate")
    assert main([
        "rate", "--alpha", "1.5", "--scheme", "pareto-em", "--reference", "ensemble",
        "--m", "400", "--checkpoints", "1..8 geometric", "--out", out,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: only 0 checkpoints rise above 5x the statistical floor")
    assert "raise m or use reference=oracle" in err
    assert not os.path.exists(out + ".json")


def test_pareto_oracle_out_of_series_range_names_the_checkpoint(tmp_path, capsys):
    # gamma_1 = 0.9 < 1, but at n = 1 the one coefficient times the largest
    # quadrature node passes the series cutoff; from n = 2 on it does not.
    out = str(tmp_path / "rate")
    argv = ["rate", "--alpha", "1.5", "--reference", "oracle", "--schedule", "c-over-n:0.9"]
    assert main([*argv, "--checkpoints", "1..64 geometric", "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: at n = 1 the largest innovation coefficient times the largest CF node is "
        "12.78, past the CF series cutoff 10: the checkpoints must start deeper\n"
    )
    assert not os.path.exists(out + ".json")
    assert main([*argv, "--checkpoints", "2..64 geometric", "--out", out]) in (0, 2)


def test_oracle_rate_summary_has_no_abort_count(tmp_path):
    out = str(tmp_path / "run")
    main(["rate", "--alpha", "1.5", "--reference", "oracle", "--checkpoints", "8..64 geometric",
          "--out", out])
    assert "abort_count" not in json.load(open(out + ".json"))


@pytest.mark.parametrize("argv", [
    ["schedule", "--experiment", "rate"],  # the experiment is the subcommand, not a flag
    ["schedule", "--m", "5", "--schedule", "c-over-rho-n:2,0.5"],  # a key schedule does not read
    ["rate", "--alpha"],
    ["bogus"],
    [],
])
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cf_check_rejects_a_scheme_it_does_not_run(tmp_path, capsys):
    out = str(tmp_path / "cf")
    assert main(["cf-check", "--alpha", "1.5", "--scheme", "stable-em", "--out", out]) == 1
    assert "--scheme: bad value for 'scheme'" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_weak_error_runs_at_an_explicit_zero_x0(tmp_path):
    summaries, tables = [], []
    for tag, line in (("zero", "x0 = 0\n"), ("default", "")):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(f"experiment = weak-error\nalpha = 1.5\nmc = 4000\n{line}")
        out = str(tmp_path / tag)
        assert main(["weak-error", "--config", str(cfg), "--out", out]) in (0, 2)
        summaries.append(json.load(open(out + ".json")))
        tables.append(open(out + ".csv").read())
    assert [s["x0"] for s in summaries] == [0.0, 0.5]
    assert [s["config"]["x0"] for s in summaries] == [0.0, 0.5]
    assert tables[0] != tables[1]


def test_schedule_with_every_key_at_its_default_passes(tmp_path):
    out = str(tmp_path / "sched")
    assert main(["schedule", "--out", out]) == 0
    summary = json.load(open(out + ".json"))
    assert summary["config"]["schedule"] == "c-over-rho-n:2,0.5"
    assert summary["omega"] < summary["rho_toy"]


@pytest.mark.parametrize("argv, message", [
    (["--checkpoints", "1024,512,256,128"], "--checkpoints: bad value for 'checkpoints'"),
    (["--checkpoints", "0,-4,128,256,512,1024"], "--checkpoints: bad value for 'checkpoints'"),
    (["--dim", "2"], "unrecognized arguments: --dim"),  # rate runs the 1-D OU drift only
    (["--drift", "perturbed-ou:0.3"], "unrecognized arguments: --drift"),
    (["--x0", "1"], "--x0: oracle reference needs x0 = 0"),
    (["--checkpoints", "1..8 linear"], "--checkpoints: bad value for 'checkpoints'"),
])
def test_rate_input_it_cannot_run_is_named(tmp_path, capsys, argv, message):
    out = str(tmp_path / "rate")
    code = main(["rate", "--alpha", "1.5", "--reference", "oracle", *argv, "--out", out])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not os.path.exists(out + ".json")


# Every tests/data/<name>.cfg, with the experiment its file names.
_PINS = [
    (cfg.stem, load_config(str(cfg)).experiment)
    for cfg in sorted((ROOT / "tests" / "data").glob("*.cfg"))
]


@pytest.mark.parametrize("name, experiment", _PINS)
def test_ensemble_output_matches_reference(tmp_path, name, experiment):
    # tests/data/<name>.csv was written by an earlier version from the config
    # beside it (tiny sizes, seed 42); a refactor that keeps the RNG contract
    # must reproduce it byte for byte.
    cfg = ROOT / "tests" / "data" / f"{name}.cfg"
    out = str(tmp_path / name)
    assert main([experiment, "--config", str(cfg), "--out", out]) in (0, 2)
    reference = (ROOT / "tests" / "data" / f"{name}.csv").read_bytes()
    assert Path(out + ".csv").read_bytes() == reference


def test_ergodicity_from_one_start_is_rejected_before_running(tmp_path, capsys, monkeypatch):
    import stableem.experiments as experiments

    def run_ensemble(run, workers=1):
        raise AssertionError("no ensemble may run")

    monkeypatch.setattr(experiments, "run_ensemble", run_ensemble)
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = ergodicity\nalpha = 1.5\nx = 2\ny = 2.0\n")
    out = str(tmp_path / "erg")
    assert main(["ergodicity", "--config", str(cfg), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:4: x and y must differ")
    assert not os.path.exists(out + ".json")


def test_stable_1d_sampler_is_stable_vec(tmp_path):
    # stable-1d is another name for stable-vec, at any dim.
    out = {}
    for sampler in ("stable-1d", "stable-vec"):
        out[sampler] = str(tmp_path / sampler)
        argv = ["--alpha", "1.5", "--sampler", sampler, "--dim", "3", "--count", "50"]
        assert main(["sample", *argv, "--out", out[sampler]]) == 0
    csvs = [Path(path + ".csv").read_bytes() for path in out.values()]
    assert csvs[0] == csvs[1]


def test_weak_error_needs_two_antithetic_pairs(tmp_path, capsys):
    # mc = 2 is one pair, whose standard error is undefined: a config error, not a FAIL.
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = weak-error\nalpha = 1.5\nmc = 2\n")
    out = str(tmp_path / "weak")
    assert main(["weak-error", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: bad value for 'mc': '2'")
    assert not os.path.exists(out + ".json")


def test_every_key_an_experiment_reads_is_a_flag(tmp_path):
    out = str(tmp_path / "sample")
    argv = ["--alpha", "1.5", "--sampler", "stable-vec", "--dim", "3", "--count", "5"]
    assert main(["sample", *argv, "--out", out]) == 0
    with open(out + ".csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "x0", "x1", "x2"] and len(rows) == 6
    out = str(tmp_path / "weak")
    assert main(["weak-error", "--alpha", "1.5", "--mc", "4", "--gammas", "2^-3", "--out", out]) \
        in (0, 2)
    assert json.load(open(out + ".json"))["config"]["mc"] == 4


@pytest.mark.parametrize("seed", ["-7", "18446744073709551616"])
def test_seed_outside_64_bits_is_named(tmp_path, capsys, seed):
    # Masked, -7 and 2^64 - 7 would write the same draws.
    out = str(tmp_path / "sample")
    assert main(["sample", "--alpha", "1.5", "--seed", seed, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: --seed: bad value for 'seed': '{seed}'")
    assert not os.path.exists(out + ".json")


def test_schedule_theta_is_one_over_its_default_alpha(tmp_path):
    out = str(tmp_path / "sched")
    assert main(["schedule", "--schedule", "c-over-rho-n:2,0.5", "--out", out]) == 0
    summary = json.load(open(out + ".json"))
    alpha = summary["config"]["alpha"]
    assert alpha == 1.5
    theta = float(summary["schedule"].rpartition("theta=")[2])
    assert theta == pytest.approx(1.0 / alpha)
    assert summary["omega"] == pytest.approx(1.0 / 6.0)


def test_summary_has_schedule_keys_only_where_a_schedule_is_built(tmp_path):
    rate, drift = str(tmp_path / "rate"), str(tmp_path / "drift")
    main(["rate", "--alpha", "1.5", "--reference", "oracle", "--checkpoints", "8..64 geometric",
          "--out", rate])
    main(["certify-drift", "--out", drift])
    rate, drift = json.load(open(rate + ".json")), json.load(open(drift + ".json"))
    assert "schedule" in rate and "omega" in rate and "rho_toy" not in rate
    assert not {"schedule", "omega", "rho_toy"} & set(drift)


def test_start_up_imports_no_scipy_integrate_or_optimize(monkeypatch):
    # Start-up imports NumPy and no scipy module at all, and neither does the
    # Pareto CF past the series cutoff.  OPENBLAS_NUM_THREADS defaults to 1
    # before NumPy is imported, and a value already set is kept.
    code = (
        "import os, sys, stableem.cli\n"
        "stableem.load_config('tests/data/ensemble-cf.cfg')\n"
        "stableem.pareto_cf(1.5, 20.0)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    for preset in (None, "3"):
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        run = _python("-c", code)
        assert run.returncode == 0, run.stderr
        loaded, threads = run.stdout.split()
        assert loaded == "[]"
        assert threads == (preset or "1")


def test_runtime_runs_with_every_scipy_import_blocked(tmp_path):
    # The runtime needs NumPy only: with a finder that refuses every scipy
    # module, the Pareto oracle rate run writes its pinned CSV, and cf-check
    # and pareto_cf run past the series cutoff (c_j lambda reaches about 70).
    cfg = load_config("tests/data/ensemble-cf.cfg")
    coef = _chain_weights(cfg.alpha, cfg.build_schedule(), cfg.n)[0]
    assert coef.max() / noise_constants(cfg.alpha, 1).beta * 1000.0 > _SERIES_CUTOFF
    rate, cf = str(tmp_path / "rate"), str(tmp_path / "cf")
    runs = [
        ["rate", "--config", "tests/data/rate-oracle-pareto.cfg", "--out", rate],
        ["cf-check", "--config", "tests/data/ensemble-cf.cfg", "--lambdas", "0.5,1000",
         "--out", cf],
    ]
    code = (
        "import json, sys\n"
        "class NoSciPy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoSciPy())\n"
        "import stableem.cli\n"
        f"codes = [stableem.cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, stableem.pareto_cf(1.5, 20.0)]))\n"
    )
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    codes, phi = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert phi == stableem.pareto_cf(1.5, 20.0)
    reference = (ROOT / "tests" / "data" / "rate-oracle-pareto.csv").read_bytes()
    assert Path(rate + ".csv").read_bytes() == reference


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    argv = ["schedule", "--schedule", "c-over-n:0.5", "--n_max", "1000", "--rho_toy", "4", "--out"]
    run = _python("-m", "stableem", *argv, str(tmp_path / "m"))
    code = main([*argv, str(tmp_path / "main")])
    assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
