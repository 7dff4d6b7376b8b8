"""Experiment harness: the convergence-rate, weak-error, ergodicity and
diagnostic experiments, with CSV/JSON report emission.

Rate experiments run on the 1-D OU drift and support two reference modes,
each a row builder ahead of one fit-and-gate stage.  ``ensemble`` follows the
Monte-Carlo protocol: empirical W1 against an equal-size exact
invariant-law ensemble, with the statistical floor estimated from two
independent invariant-law ensembles and checkpoints only entering the fit
when their W1 exceeds five times the floor.  Each row's stderr is the
batch-means standard error of w1 - floor over W1_BATCHES chain slices
(``metrics.w1_gap_stderr``), which draws no random numbers; the exact-OU
verdict is |w1 - floor| <= 3 stderr at the last checkpoint.  ``oracle``
(x0 = 0 only) computes the distance between the *laws* deterministically
from exact characteristic functions, which has no statistical floor at all;
this is the only estimator able to resolve the deep-checkpoint signal for
heavy tails, where the empirical-W1 floor decays like m^{1/alpha - 1}.  Its rows
also carry the signed error E|Y_n| - E|X_inf|, the log-log slope to the
previous checkpoint and the oracle's error estimate, and its summary flags
a fit whose checkpoints straddle a sign change of that error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__, metrics, rng as rngmod
from .cf_oracle import (
    exact_ou_scale_pow,
    pareto_em_chain_cf,
    w1_exact_ou_vs_invariant,
    w1_pareto_chain_vs_invariant,
    w1_stable_chain_vs_invariant,
)
from .config import ExperimentConfig, doubling
from .drift import builtin_ou, certify_assumptions, drift_by_name
from .em import EXACT_OU, PARETO_EM, STABLE_EM, EnsembleRun, empirical_moment, run_ensemble
from .metrics import FIT_POINTS, W1_BATCHES, ecf, rate_fit, w1_sorted_1d
from .sampling import (
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
    sample_stable_vec,
)
from .schedule import decay_diagnostics, omega_of, rho_theory


@dataclass
class ExperimentReport:
    experiment: str
    rows: list
    summary: dict
    verdict: bool | None  # None: informational only, exit 0


_OU = builtin_ou(1)  # the drift of every engine run here, and of the stable-EM rate gate


def _ensemble(cfg: ExperimentConfig, scheme: str, schedule, x0: float, checkpoints):
    """m chains of ``scheme`` on the 1-D OU drift from x0, with the config's seed and workers."""
    run = EnsembleRun(
        scheme=scheme,
        alpha=cfg.alpha,
        drift=_OU,
        schedule=schedule,
        m_chains=cfg.m,
        x0=x0,
        checkpoints=checkpoints,
        master_seed=cfg.seed,
    )
    return run_ensemble(run, workers=cfg.effective_workers)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    runner = {
        "rate": run_rate_experiment,
        "weak-error": run_weak_error_experiment,
        "ergodicity": run_ergodicity_experiment,
        "cf-check": run_cf_check,
        "schedule": run_schedule_diagnostics,
        "sample": run_sample,
        "certify-drift": run_certify_drift,
    }[cfg.experiment]
    return runner(cfg)


# ---------------------------------------------------------------------------
# Rate experiment.
# ---------------------------------------------------------------------------


def _invariant_draws(alpha: float, m: int, seed: int, stream_id: int) -> np.ndarray:
    gen = rngmod.derive_stream(seed, stream_id)
    draws = sample_stable_1d(alpha, gen, m)
    draws *= alpha ** (-1.0 / alpha)  # in place: the same bits as the product, one m-array
    return draws


def _target_exponent(scheme: str, alpha: float):
    if scheme == PARETO_EM:
        return (2.0 - alpha) / alpha, False  # optimal (two-sided)
    if scheme == STABLE_EM:
        return 1.0 / alpha, True  # guaranteed-at-least rate (one-sided)
    return None, None


SLOPE_TOL = 0.15  # the Pareto-EM gate: |slope - (2 - alpha)/alpha| <= SLOPE_TOL
KAPPA = 1.2  # the moment exponent of criterion 7, reported as moment_kappa

# Each scheme's exact W1 to nu at step n (time t_n); names resolve at call time, for wrappers.
_ORACLES = {
    PARETO_EM: lambda alpha, schedule, n, t_n: w1_pareto_chain_vs_invariant(alpha, schedule, n),
    STABLE_EM: lambda alpha, schedule, n, t_n: w1_stable_chain_vs_invariant(alpha, schedule, n),
    EXACT_OU: lambda alpha, schedule, n, t_n: w1_exact_ou_vs_invariant(alpha, t_n),
}


def run_rate_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    checkpoints = cfg.checkpoint_list()
    schedule = cfg.build_schedule()
    summary = _base_summary(cfg, schedule)
    rows_for = _oracle_rows if cfg.reference == "oracle" else _ensemble_rows
    rows = rows_for(cfg, schedule, checkpoints, summary)
    return ExperimentReport("rate", rows, summary, _rate_verdict(cfg, rows, summary))


def _oracle_rows(cfg: ExperimentConfig, schedule, checkpoints, summary: dict) -> list:
    """Exact W1 to nu at each checkpoint, with the signed error and local slopes."""
    t = schedule.t_grid(checkpoints[-1])
    rows = []
    for n in checkpoints:
        t_n = float(t[n])
        oracle = _ORACLES[cfg.scheme](cfg.alpha, schedule, n, t_n)
        rows.append({
            "n": n,
            "t_n": t_n,
            "gamma_n": schedule.gamma_at(n),
            "w1": oracle.w1,
            "stderr": 0.0,
            "floor": 0.0,
            "used": 1,
            "signed_error": oracle.signed_error,
            "local_slope": None,
            "oracle_err": oracle.oracle_err,
        })
    for prev, row in zip(rows, rows[1:]):
        if prev["w1"] > 0.0 and row["w1"] > 0.0:  # a law can round onto nu exactly
            row["local_slope"] = math.log(row["w1"] / prev["w1"]) / math.log(
                row["gamma_n"] / prev["gamma_n"]
            )
    # A fit across a sign change of E|Y_n| - E|X_inf| can steepen the slope
    # without any convergence; reported, not gated.  A W1 of exactly 0.0 has
    # no sign.
    signs = {np.sign(r["signed_error"]) for r in rows if r["signed_error"]}
    summary["fit_spans_sign_change"] = len(signs) > 1
    return rows


def _ensemble_rows(cfg: ExperimentConfig, schedule, checkpoints, summary: dict) -> list:
    """Empirical W1 of m chains to m invariant draws, its floor, and the stderr of w1 - floor."""
    alpha = cfg.alpha
    result = _ensemble(cfg, cfg.scheme, schedule, cfg.x0, checkpoints)
    t = schedule.t_grid(checkpoints[-1])
    ref_a = _invariant_draws(alpha, cfg.m, cfg.seed, rngmod.FLOOR_STREAM)
    ref_b = _invariant_draws(alpha, cfg.m, cfg.seed, rngmod.FLOOR_STREAM + 1)
    floor = w1_sorted_1d(ref_a, ref_b)
    # Called through its module: a perfbench trace wraps each function this
    # module imports, and in its smoke run no further unnamed layer fits under
    # the 1 %-of-wall accounting tolerance; so its time is this experiment's own.
    summary["floor_stderr"] = metrics.w1_gap_stderr(alpha, ref_a, ref_b)
    rows = []
    for j, (n, row) in enumerate(zip(checkpoints, result.samples)):
        xs = row[np.isfinite(row)]
        if xs.size < 2 * W1_BATCHES:
            raise RuntimeError(
                f"only {xs.size} of {cfg.m} chains are finite at n = {n}; the W1 error "
                f"needs at least {2 * W1_BATCHES} ({W1_BATCHES} batches of 2)"
            )
        ref = _invariant_draws(alpha, cfg.m, cfg.seed, rngmod.INVARIANT_STREAM + j)[: xs.size]
        w1 = w1_sorted_1d(xs, ref)
        stderr = metrics.w1_gap_stderr(alpha, xs, ref, ref_a, ref_b)  # of w1 - floor
        moment = empirical_moment(row, KAPPA, alpha) if KAPPA < alpha else float("nan")
        rows.append({
            "n": n,
            "t_n": float(t[n]),
            "gamma_n": schedule.gamma_at(n),
            "w1": w1,
            "stderr": stderr,
            "floor": floor,
            "used": int(w1 > 5.0 * floor),
            "moment_kappa": moment,
        })
    # Chains that went non-finite, and the finite ones every checkpoint used.
    summary["abort_count"] = result.abort_count
    summary["m_used"] = cfg.m - result.abort_count
    moments = [r["moment_kappa"] for r in rows]
    if np.all(np.isfinite(moments)):
        summary["kappa"] = KAPPA
        summary["moment_bounded"] = bool(max(moments) <= 2.0 * moments[0])
    return rows


def _rate_verdict(cfg: ExperimentConfig, rows: list, summary: dict) -> bool | None:
    """Fit the rows and apply the scheme's gate; None where the gate has nothing to test."""
    target, one_sided = _target_exponent(cfg.scheme, cfg.alpha)
    floor = summary["floor"] = rows[0]["floor"]
    summary["target_exponent"] = target

    if cfg.scheme == EXACT_OU:
        # No discretization error: the verdict is floor-indistinguishability
        # at the last checkpoint.  An exact reference has no floor (0.0), so
        # there is nothing to be indistinguishable from.
        last = rows[-1]
        gap = abs(last["w1"] - last["floor"])
        tol = 3.0 * last["stderr"] if last["stderr"] else 1e-12
        summary["final_gap_vs_floor"] = gap
        return bool(gap <= tol) if floor else None

    usable = [(r["gamma_n"], r["w1"]) for r in rows if r["used"]]
    if len(usable) < FIT_POINTS:
        raise RuntimeError(
            f"only {len(usable)} checkpoints rise above 5x the statistical floor "
            f"({floor:.4g}); raise m or use reference=oracle"
        )
    fit = rate_fit(usable)
    summary.update({
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "one_sided": one_sided,
        "slope_tol": SLOPE_TOL,
    })
    if cfg.scheme == STABLE_EM:
        # The gamma^{1/alpha} rate is promised only under the step-size
        # hypothesis omega < rho; outside it the gate has nothing to test.
        rho_drift = _OU.dissip_theta1
        inside = bool(summary["omega"] < rho_drift)
        summary["rho_drift"] = rho_drift
        summary["step_size_hypothesis"] = inside
        return bool(fit.slope >= target - 0.1) if inside else None
    return bool(abs(fit.slope - target) <= SLOPE_TOL and fit.r_squared >= 0.9)


# ---------------------------------------------------------------------------
# Weak-error experiment.
# ---------------------------------------------------------------------------

_TEST_FNS = {  # the test_fn values that config accepts
    "cos": np.cos,
    "invquad": lambda x: 1.0 / (1.0 + x * x),
}


def run_weak_error_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """One-step weak error |E f(X_gamma) - E f(Y_gamma)| on the 1-D OU drift.

    The exact and stable-EM steps share innovations (synchronous coupling),
    and all estimators pair each innovation with its mirror image; the
    antithetic average strips the odd noise component, which is what makes
    the small-gamma points resolvable at desk-scale M.
    """
    alpha = float(cfg.alpha)
    f = _TEST_FNS[cfg.test_fn]
    x0 = cfg.x0
    beta = noise_constants(alpha, 1).beta
    half = cfg.mc // 2

    rows = []
    for j, g in enumerate(cfg.gamma_grid()):
        gen = rngmod.derive_stream(cfg.seed, rngmod.AUX_STREAM + j)
        zeta = sample_stable_1d(alpha, gen, half)
        # Signed Pareto draws: the antithetic averages below are even in the noise.
        pz = sample_pareto_vec(alpha, 1, gen, half)[:, 0]

        sig = exact_ou_scale_pow(alpha, g) ** (1.0 / alpha)

        def anti_vals(loc, scale, noise):
            return 0.5 * (f(loc + scale * noise) + f(loc - scale * noise))

        ex_vals = anti_vals(math.exp(-g) * x0, sig, zeta)
        ex_mean = float(ex_vals.mean())
        ex_err = float(ex_vals.std(ddof=1) / math.sqrt(half))
        # Stable vs exact shares zeta, so difference pathwise: the common
        # noise cancels and the stderr tracks only the one-step gap.
        st_diff = anti_vals(x0 - g * x0, g ** (1.0 / alpha), zeta) - ex_vals
        pa_vals = anti_vals(x0 - g * x0, g ** (1.0 / alpha) / beta, pz)

        rows.append({
            "gamma": g,
            "pareto_err": abs(float(pa_vals.mean()) - ex_mean),
            "pareto_stderr": math.hypot(
                float(pa_vals.std(ddof=1) / math.sqrt(half)), ex_err
            ),
            "stable_err": abs(float(st_diff.mean())),
            "stable_stderr": float(st_diff.std(ddof=1) / math.sqrt(half)),
        })

    summary = _base_summary(cfg, None)
    summary["x0"] = x0
    summary["test_fn"] = cfg.test_fn
    slopes = {}
    for scheme_key in ("pareto", "stable"):
        pts = [
            (r["gamma"], r[f"{scheme_key}_err"])
            for r in rows
            if r[f"{scheme_key}_err"] > 5.0 * r[f"{scheme_key}_stderr"]
        ]
        slopes[scheme_key] = rate_fit(pts).slope if len(pts) >= FIT_POINTS else None
    summary["pareto_slope"] = slopes["pareto"]
    summary["stable_slope"] = slopes["stable"]
    summary["pareto_target"] = 2.0 / alpha
    summary["pareto_within_tol"] = (
        slopes["pareto"] is not None and abs(slopes["pareto"] - 2.0 / alpha) <= 0.3
    )
    verdict = (
        slopes["pareto"] is not None
        and slopes["stable"] is not None
        and slopes["stable"] >= slopes["pareto"] - 0.2
    )
    return ExperimentReport("weak-error", rows, summary, bool(verdict))


# ---------------------------------------------------------------------------
# Ergodicity experiment (synchronous coupling of the exact OU flow).
# ---------------------------------------------------------------------------


def run_ergodicity_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    checkpoints = cfg.checkpoint_list()
    schedule = cfg.build_schedule()
    x, y = (
        _ensemble(cfg, EXACT_OU, schedule, start, checkpoints).samples for start in (cfg.x, cfg.y)
    )
    t = schedule.t_grid(checkpoints[-1])

    d0 = abs(cfg.x - cfg.y)
    # Expected coupled distance uses the same product of per-step decay
    # factors the recursion multiplies, not exp(-t_n), so the comparison is
    # not polluted by the exp-of-sum vs product-of-exps rounding gap.
    decay_prod = np.cumprod(np.exp(-schedule.gammas(checkpoints[-1])))
    rows = []
    for n, xs, ys in zip(checkpoints, x, y):
        dist = np.abs(xs - ys)
        expected = d0 * float(decay_prod[n - 1])
        rows.append({
            "n": n,
            "t_n": float(t[n]),
            "w1": w1_sorted_1d(xs, ys),
            "coupled_mean_dist": float(dist.mean()),
            "expected_dist": expected,
            "max_coupling_error": float(np.max(np.abs(dist - expected))),
        })

    ts = np.array([r["t_n"] for r in rows])
    ds = np.array([r["coupled_mean_dist"] for r in rows])
    design = np.vstack([ts, np.ones_like(ts)]).T
    (neg_rate, _), *_ = np.linalg.lstsq(design, np.log(ds), rcond=None)
    rate = -float(neg_rate)

    summary = _base_summary(cfg, schedule)
    summary.update({
        "x": cfg.x,
        "y": cfg.y,
        "decay_rate": rate,
        "max_coupling_error": max(r["max_coupling_error"] for r in rows),
    })
    verdict = bool(
        summary["max_coupling_error"] <= 1e-12 * max(1.0, d0) and 0.95 <= rate <= 1.05
    )
    return ExperimentReport("ergodicity", rows, summary, verdict)


# ---------------------------------------------------------------------------
# Chain-law CF cross-check.
# ---------------------------------------------------------------------------


def run_cf_check(cfg: ExperimentConfig) -> ExperimentReport:
    alpha = float(cfg.alpha)
    n = cfg.n
    schedule = cfg.build_schedule()
    result = _ensemble(cfg, PARETO_EM, schedule, cfg.x0, (n,))
    xs = result.samples[0]
    xs = xs[np.isfinite(xs)] if result.abort_count else xs
    threshold = 4.0 / math.sqrt(xs.size)

    lambdas = cfg.lambda_list()
    emp = ecf(xs, np.asarray(lambdas))
    oracles = pareto_em_chain_cf(alpha, schedule, cfg.x0, n, lambdas)
    rows = []
    ok = True
    for lam, e, oracle in zip(lambdas, emp, oracles.tolist()):
        diff = abs(e - oracle)
        ok &= diff <= threshold
        rows.append({
            "lambda": lam,
            "oracle_re": oracle.real,
            "oracle_im": oracle.imag,
            "ecf_re": float(e.real),
            "ecf_im": float(e.imag),
            "abs_diff": float(diff),
            "threshold": threshold,
        })
    summary = _base_summary(cfg, schedule)
    summary["abort_count"] = result.abort_count
    summary["m_used"] = int(xs.size)
    summary["n"] = n
    summary["threshold"] = threshold
    return ExperimentReport("cf-check", rows, summary, bool(ok))


# ---------------------------------------------------------------------------
# Schedule diagnostics.
# ---------------------------------------------------------------------------


def run_schedule_diagnostics(cfg: ExperimentConfig) -> ExperimentReport:
    schedule = cfg.build_schedule()
    alpha, th = float(cfg.alpha), cfg.effective_theta
    diag = decay_diagnostics(schedule, cfg.rho_toy, cfg.n_max, alpha=alpha, theta=th)

    # The ratio under omega's limsup at k = 10 n_max, cross-checked against the
    # closed-form omega plus, for poly at a < 1, the term theta a k^{a-1} / gamma_1
    # by which the ratio still exceeds its limit omega = 0 there.
    k = cfg.n_max * 10
    gk, gk1 = schedule.gamma_at(k), schedule.gamma_at(k + 1)
    omega_numeric = float((gk**th - gk1**th) / gk1 ** (1.0 + th))
    a = schedule.a
    leading = diag.omega + (th * a * k ** (a - 1.0) / schedule.gamma1 if a < 1.0 else 0.0)

    ns = sorted({*doubling(1, cfg.n_max), cfg.n_max})
    rows = [
        {
            "n": n,
            "t_n": float(diag.t[n]),
            "gamma_n": schedule.gamma_at(n),
            "v_over_gamma_theta": float(diag.v_over_gamma_theta[n - 1]),
            "bound": diag.bound,
            "exp_decay_ratio": float(diag.exp_decay_ratio[n - 1]),
            "windowed_sum_ratio": diag.windowed_sum_ratio(n) if n >= 2 else float("nan"),
        }
        for n in ns
    ]

    summary = _base_summary(cfg, schedule)
    summary.update({
        "rho_toy": cfg.rho_toy,
        "omega_closed_form": diag.omega,
        "omega_numeric_tail": omega_numeric,
        "rho_theory_d1": rho_theory(alpha, 1),
        "recurrence_bound": diag.bound,
        "v_ratio_final": rows[-1]["v_over_gamma_theta"],
        "exp_decay_ratio_final": rows[-1]["exp_decay_ratio"],
    })
    omega_ok = abs(omega_numeric - leading) <= 0.01 * max(abs(leading), 1e-30)
    verdict = bool(
        rows[-1]["v_over_gamma_theta"] <= diag.bound
        and omega_ok
        and rows[-1]["exp_decay_ratio"] < 1e-3
    )
    return ExperimentReport("schedule", rows, summary, verdict)


# ---------------------------------------------------------------------------
# Sampler dump and drift certification.
# ---------------------------------------------------------------------------


def run_sample(cfg: ExperimentConfig) -> ExperimentReport:
    alpha = float(cfg.alpha)
    gen = rngmod.derive_stream(cfg.seed, 0)
    sampler = sample_pareto_vec if cfg.sampler == "pareto" else sample_stable_vec
    data = sampler(alpha, cfg.dim, gen, cfg.count)
    rows = [
        {"index": i, **{f"x{j}": float(v) for j, v in enumerate(row)}}
        for i, row in enumerate(data)
    ]
    summary = _base_summary(cfg, None)
    summary["sampler"] = cfg.sampler
    summary["count"] = cfg.count
    return ExperimentReport("sample", rows, summary, None)


def run_certify_drift(cfg: ExperimentConfig) -> ExperimentReport:
    model = drift_by_name(cfg.drift, cfg.dim)
    gen = rngmod.derive_stream(cfg.seed, 0)
    report = certify_assumptions(model, cfg.pairs, cfg.box, gen)
    rows = [{"check": k, "worst_margin": v} for k, v in report.checks.items()]
    summary = _base_summary(cfg, None)
    summary["drift"] = cfg.drift
    summary["witness"] = report.witness
    return ExperimentReport("certify-drift", rows, summary, report.passed)


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------


def _base_summary(cfg: ExperimentConfig, schedule) -> dict:
    summary = {
        "config": cfg.echo(),
        "seed": cfg.seed,
        "version": __version__,
        "generator": rngmod.GENERATOR_NAME,
        "rng_contract": rngmod.RNG_CONTRACT,
    }
    if schedule is not None:
        summary["schedule"] = schedule.describe()
        summary["theta"] = cfg.effective_theta
        summary["omega"] = omega_of(schedule, cfg.effective_theta)
    return summary


def emit_outputs(report: ExperimentReport, prefix: str) -> None:
    """Write <prefix>.csv (per-point table) and <prefix>.json (summary)."""
    if report.rows:
        keys = list(report.rows[0].keys())
        with open(f"{prefix}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in report.rows:
                writer.writerow([_fmt(row[k]) for k in keys])
    payload = dict(report.summary)
    payload["experiment"] = report.experiment
    payload["verdict"] = report.verdict
    with open(f"{prefix}.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _fmt(value):
    if isinstance(value, float):  # includes numpy scalars
        return repr(float(value))
    return value
