import re
from pathlib import Path

import pytest

from stableem.config import (
    EXPERIMENT_KEYS,
    REQUIRED,
    ConfigError,
    ExperimentConfig,
    doubling,
    flag_values,
    key_spec,
    load_config,
    parse_checkpoints,
    parse_gamma_grid,
    parse_schedule,
)
from stableem.experiments import _base_summary

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, text):
    p = tmp_path / "cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_minimal_rate_config(tmp_path):
    path = _write(
        tmp_path,
        """
        experiment = rate
        scheme = pareto          # alias for pareto-em
        alpha = 1.5
        schedule = c-over-n:0.5
        m = 200000
        checkpoints = 128..8192 geometric
        seed = 42
        """,
    )
    cfg = load_config(path)
    assert cfg.scheme == "pareto-em"
    assert cfg.seed == 42
    assert cfg.checkpoint_list() == (128, 256, 512, 1024, 2048, 4096, 8192)
    assert cfg.build_schedule().gamma_at(2) == 0.25


def test_unknown_key_reports_line(tmp_path):
    path = _write(tmp_path, "experiment = rate\nalpha = 1.5\nbogus = 3\n")
    with pytest.raises(ConfigError, match=r":3.*bogus"):
        load_config(path)


def test_line_without_equals_sign_reports_line(tmp_path):
    path = _write(tmp_path, "experiment = rate\nalpha 1.5\n")
    with pytest.raises(ConfigError, match=r"cfg:2: expected 'key = value', got 'alpha 1.5'"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, "experiment = rate\nalpha = 1.5\nalpha = 1.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_missing_alpha_named(tmp_path):
    path = _write(tmp_path, "experiment = rate\n")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)


def test_missing_experiment(tmp_path):
    path = _write(tmp_path, "alpha = 1.5\n")
    with pytest.raises(ConfigError, match="experiment"):
        load_config(path)


def test_bad_value_reports_key(tmp_path):
    path = _write(tmp_path, "experiment = rate\nalpha = banana\n")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)


def test_alpha_range_checked():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="rate", alpha=2.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bogus", alpha=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="rate", alpha=1.5, scheme="midpoint")


def test_number_syntax(tmp_path):
    path = _write(tmp_path, "experiment = rate\nalpha = 3/2\nx0 = 2^-1\n")
    cfg = load_config(path)
    assert cfg.alpha == 1.5
    assert cfg.x0 == 0.5


def test_slope_tol_is_not_a_key(tmp_path):
    # the Pareto-EM gate's tolerance and criterion 7's moment exponent are
    # constants of the rate experiment
    for key, value in (("slope_tol", "5"), ("kappa", "0.5")):
        path = _write(tmp_path, f"experiment = rate\nalpha = 1.5\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"cfg:3: unknown key '{key}'"):
            load_config(path)


def test_parse_schedule_families():
    assert parse_schedule("c-over-n:0.5").gamma_at(1) == 0.5
    s = parse_schedule("c-over-rho-n:2,0.5")
    assert s.gamma_at(1) == pytest.approx(4.0)
    assert parse_schedule("poly:0.1,0.5").gamma_at(4) == pytest.approx(0.05)
    for unknown in ("fibonacci:1", "explicit:0.5,0.25"):
        with pytest.raises(ConfigError, match="unknown schedule family"):
            parse_schedule(unknown)
    with pytest.raises(ConfigError):
        parse_schedule("poly:0.1")


def test_parse_checkpoints():
    assert parse_checkpoints("16..64 geometric") == (16, 32, 64)
    # One doubling grid: the checkpoint range and the schedule experiment's rows.
    for lo, hi in ((1, 1), (1, 100_000), (3, 97), (5, 9), (8192, 1 << 20)):
        want, c = [], lo
        while c <= hi:
            want.append(c)
            c *= 2
        assert doubling(lo, hi) == tuple(want) == parse_checkpoints(f"{lo}..{hi} geometric")
    assert parse_checkpoints("1,5,9") == (1, 5, 9)
    with pytest.raises(ConfigError):
        parse_checkpoints("64..16 geometric")
    for bad in ("0,-4,128,256", "1024,512,256", "8,16,16,32", "-8"):
        with pytest.raises(ConfigError, match="positive and strictly increasing"):
            parse_checkpoints(bad)


def test_parse_gamma_grid():
    grid = parse_gamma_grid("2^-3..2^-9")
    assert len(grid) == 7
    assert grid[0] == 0.125 and grid[-1] == 2.0**-9
    assert parse_gamma_grid("0.1,0.05") == (0.1, 0.05)
    with pytest.raises(ConfigError):
        parse_gamma_grid("2^-9..2^-3")


def test_effective_theta_defaults_to_inverse_alpha():
    cfg = ExperimentConfig(experiment="schedule", alpha=1.6)
    assert cfg.effective_theta == pytest.approx(1.0 / 1.6)
    cfg2 = ExperimentConfig(experiment="schedule", alpha=1.6, theta=0.5)
    assert cfg2.effective_theta == 0.5
    # the experiments that do not read theta compute omega at 1/alpha:
    # 1/(alpha c) on their default c-over-n:0.5
    for experiment in ("rate", "ergodicity", "cf-check"):
        cfg3 = ExperimentConfig(experiment=experiment, alpha=1.6)
        summary = _base_summary(cfg3, cfg3.build_schedule())
        assert summary["theta"] == pytest.approx(1.0 / 1.6)
        assert summary["omega"] == pytest.approx(1.0 / (1.6 * 0.5))


def test_workers_env_override(monkeypatch):
    cfg = ExperimentConfig(experiment="rate", alpha=1.5)
    assert cfg.effective_workers == 1
    monkeypatch.setenv("STABLEEM_WORKERS", "6")
    assert cfg.effective_workers == 6
    cfg.workers = 2
    assert cfg.effective_workers == 2


def _minimal(experiment):
    return {} if experiment in ("schedule", "certify-drift") else {"alpha": 1.5}


def test_each_experiment_echoes_exactly_its_keys():
    assert sum(len(keys) for keys in EXPERIMENT_KEYS.values()) == 55
    for experiment, keys in EXPERIMENT_KEYS.items():
        assert {"seed", "out"} <= set(keys)
        cfg = ExperimentConfig(experiment=experiment, **_minimal(experiment))
        assert list(cfg.echo()) == list(keys)


@pytest.mark.parametrize("experiment, key, value", [
    ("rate", "n", "64"),
    ("rate", "theta", "1"),
    ("ergodicity", "theta", "0.5"),
    ("cf-check", "theta", "0.5"),
    ("weak-error", "schedule", "c-over-n:0.5"),
    ("ergodicity", "x0", "1.0"),
    ("cf-check", "checkpoints", "8..64 geometric"),
    ("schedule", "m", "1000"),
    ("sample", "schedule", "c-over-n:0.5"),
    ("certify-drift", "alpha", "1.5"),
    ("rate", "dim", "2"),  # rate runs the 1-D OU drift only
    ("rate", "drift", "perturbed-ou:0.3"),
    ("rate", "drift", "foo"),
])
def test_key_that_does_not_apply_names_key_and_line(tmp_path, experiment, key, value):
    lines = [f"experiment = {experiment}", "seed = 3", f"{key} = {value}"]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"cfg:3: key '{key}' does not apply to experiment"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"'{key}' does not apply"):
        ExperimentConfig(experiment=experiment, **{key: value})


@pytest.mark.parametrize("experiment, key, value", [
    ("rate", "checkpoints", "8,16,x"),
    ("rate", "checkpoints", "0,-4,128,256"),
    ("rate", "checkpoints", "1..8 linear"),  # the one qualifier is 'geometric'
    ("ergodicity", "checkpoints", "1024,512,256,128"),
    ("cf-check", "lambdas", "0.5,abc"),
    ("certify-drift", "drift", "perturbed-ou:x"),
    ("weak-error", "gammas", "2^-3..abc"),
    ("weak-error", "gammas", "0.1,-0.05,0,0.02"),
    ("weak-error", "gammas", "0.1,inf"),
    ("rate", "m", "39"),  # an ensemble reference needs 2 chains in each of 20 batches
    ("ergodicity", "schedule", "poly:0.1"),
    ("rate", "schedule", "explicit:0.5,0.4,0.3"),  # every schedule is a closed formula
    ("rate", "schedule", "c-over-rho-n:-1,-2"),  # c / rho > 0, but c and rho must be positive
    ("rate", "schedule", "c-over-rho-n:1,0"),
    ("rate", "schedule", "poly:0.5,1.5"),  # a in (0, 1]
    ("rate", "checkpoints", "16..64 geometric"),  # the pareto-em rate fit needs 4
    ("cf-check", "lambdas", "0.5,inf"),
    ("cf-check", "lambdas", "0.5,nan"),
    ("certify-drift", "box", "0"),  # every pair would be x = y = 0, so nothing is tested
    ("certify-drift", "box", "nan"),
    ("certify-drift", "box", "inf"),
    ("certify-drift", "pairs", "999"),  # too few pairs for a meaningful certificate
    ("rate", "x0", "10^400"),
    ("rate", "x0", "1/0"),
    ("schedule", "rho_toy", "nan"),
    ("weak-error", "x0", "nan"),
    ("weak-error", "mc", "3"),  # one antithetic pair has no standard error
    ("sample", "seed", "-7"),  # streams take seeds in [0, 2^64), unmasked
    ("sample", "seed", "18446744073709551616"),
])
def test_bad_structured_value_names_key_and_line(tmp_path, experiment, key, value):
    lines = [f"experiment = {experiment}"]
    lines += [f"{k} = {v}" for k, v in _minimal(experiment).items()] + [f"{key} = {value}"]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"cfg:{len(lines)}: bad value for '{key}'"):
        load_config(path)


def test_seed_takes_every_64_bit_word():
    for seed in (0, (1 << 64) - 1):
        assert ExperimentConfig(experiment="sample", alpha=1.5, seed=str(seed)).seed == seed


def test_only_an_ensemble_reference_needs_m_to_fill_the_batches():
    assert ExperimentConfig(experiment="rate", alpha=1.5, m=40).m == 40
    assert ExperimentConfig(experiment="rate", alpha=1.5, reference="oracle", m=1).m == 1
    with pytest.raises(ConfigError, match="bad value for 'm': 39"):
        ExperimentConfig(experiment="rate", alpha=1.5, m=39)


def test_only_the_chain_law_oracles_need_steps_below_one():
    # gamma_1 = 1: exact-ou and the ensemble reference take it, the chain-law oracles do not.
    for scheme in ("pareto-em", "stable-em", "exact-ou"):
        ExperimentConfig(experiment="rate", alpha=1.5, scheme=scheme, schedule="c-over-n:1")
    ExperimentConfig(
        experiment="rate", alpha=1.5, scheme="exact-ou", reference="oracle", schedule="c-over-n:1"
    )
    ExperimentConfig(experiment="ergodicity", alpha=1.5, schedule="c-over-n:1")
    for scheme in ("pareto-em", "stable-em"):
        with pytest.raises(ConfigError, match="bad value for 'schedule'"):
            ExperimentConfig(
                experiment="rate", alpha=1.5, scheme=scheme, reference="oracle",
                schedule="c-over-n:1",
            )
    assert ExperimentConfig(experiment="cf-check", alpha=1.5, schedule="poly:0.99,0.5").schedule
    with pytest.raises(ConfigError, match="gamma_1 = 1.0"):
        ExperimentConfig(experiment="cf-check", alpha=1.5, schedule="poly:1,0.5")


def test_only_a_fitted_rate_needs_four_checkpoints(tmp_path):
    three = "16..64 geometric"
    for scheme in ("pareto-em", "stable-em"):
        for reference in ("ensemble", "oracle"):
            with pytest.raises(
                ConfigError,
                match=r"^--checkpoints: bad value for 'checkpoints': '16\.\.64 geometric' "
                r"\(a rate fit needs 4 checkpoints, got 3\)",
            ):
                ExperimentConfig(
                    experiment="rate", alpha=1.5, scheme=scheme, reference=reference,
                    **flag_values({"checkpoints": three}),
                )
        assert ExperimentConfig(
            experiment="rate", alpha=1.5, scheme=scheme, checkpoints="16..128 geometric"
        ).checkpoint_list() == (16, 32, 64, 128)
    # exact-ou's verdict fits nothing: it takes any count, as tests/data/ensemble-rate.cfg does
    for reference in ("ensemble", "oracle"):
        cfg = ExperimentConfig(
            experiment="rate", alpha=1.5, scheme="exact-ou", reference=reference, checkpoints="64"
        )
        assert cfg.checkpoint_list() == (64,)
    assert load_config(str(ROOT / "tests" / "data" / "ensemble-rate.cfg")).checkpoint_list() == (
        16, 32, 64,
    )
    assert ExperimentConfig(experiment="ergodicity", alpha=1.5, checkpoints="8,16").checkpoints


def test_cf_check_accepts_only_pareto_em():
    assert ExperimentConfig(experiment="cf-check", alpha=1.5, scheme="pareto").scheme == "pareto-em"
    with pytest.raises(ConfigError, match="scheme"):
        ExperimentConfig(experiment="cf-check", alpha=1.5, scheme="stable-em")


def _readme_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config keys", 1)[1].split("\n###", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return table


def test_readme_key_table_matches_schema():
    want = {}
    for experiment, keys in EXPERIMENT_KEYS.items():
        want[experiment] = []
        for key in keys:
            default = key_spec(experiment, key).default
            unset = default is None or default is REQUIRED
            want[experiment].append(key if unset else f"{key} = {default}")
    assert _readme_table() == want
