"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion before asserting, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
heavy Monte-Carlo checks reuse the experiment harness with its default
protocol sizes; total runtime is a few minutes.
"""

import math
import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from stableem.cli import main
from stableem.config import ExperimentConfig
from stableem.drift import builtin_ou
from stableem.em import EnsembleRun, empirical_moment, run_ensemble
from stableem.experiments import run_experiment
from stableem.metrics import rate_fit, w1_sorted_1d
from stableem.cf_oracle import pareto_cf, stable_em_chain_scale_pow
from stableem.rng import derive_stream
from stableem.sampling import (
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
    sample_stable_vec,
)
from stableem.schedule import StepSchedule, decay_diagnostics

ALPHAS = (1.2, 1.5, 1.8)
HALF_N = "c-over-n:0.5"  # gamma_n = 1/(2n)
# gamma_n = 0.9/n: omega = 1/(0.9 alpha) < 1 = theta1 of b(x) = -x at every
# alpha in ALPHAS, and gamma_1 < 1 as the chain weights need.
STABLE_N = "c-over-n:0.9"
_LP_MAX = 256


def w1_exact_lp(xs, ys) -> float:
    """Exact W1 between two equal-size 1-D empirical measures as a balanced linear assignment.

    Solved with a shortest-augmenting-path assignment solver on the
    |x - y| cost matrix, with no use of the monotone rearrangement, so it
    checks ``w1_sorted_1d``; restricted to m <= 256 (oracle scale).  It is
    criterion 5's reference, kept in the tests so that ``stableem`` starts
    without importing scipy.optimize.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"need two 1-D samples of one size, got shapes {xs.shape} and {ys.shape}")
    m = xs.size
    if m > _LP_MAX:
        raise ValueError(f"exact LP limited to m <= {_LP_MAX}, got {m}")
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    return ok


def _rate_config(alpha, scheme, schedule=HALF_N):
    return ExperimentConfig(
        experiment="rate",
        alpha=alpha,
        scheme=scheme,
        schedule=schedule,
        checkpoints="128..8192 geometric",
        reference="oracle",
        seed=42,
    )


def _rate(alpha, scheme):
    return run_experiment(_rate_config(alpha, scheme))


def _stable_error_signs(cfg, rows):
    """Signs of s_n^{1/alpha} - alpha^{-1/alpha} at the fitted checkpoints."""
    alpha, schedule = cfg.alpha, cfg.build_schedule()
    errs = [
        stable_em_chain_scale_pow(alpha, schedule, r["n"]) ** (1.0 / alpha)
        - alpha ** (-1.0 / alpha)
        for r in rows
        if r["used"]
    ]
    return "".join("+" if e > 0 else "-" if e < 0 else "0" for e in errs)


def test_criterion_01_pareto_rate_is_optimal():
    ok, details = True, []
    for alpha in ALPHAS:
        cfg = _rate_config(alpha, "pareto-em")
        s = run_experiment(cfg).summary
        good = abs(s["slope"] - s["target_exponent"]) <= 0.15 and s["r_squared"] >= 0.9
        ok &= good
        # alpha c, the exponent at which the law forgets x0 = 0 on c-over-n:c:
        # at alpha = 1.2 the slope reads it, not the Pareto exponent.
        alpha_c = alpha * cfg.build_schedule().gamma1
        details.append(
            f"a={alpha}: slope={s['slope']:.3f} target={s['target_exponent']:.3f} "
            f"alpha_c={alpha_c:.3f}"
        )
    assert _report(1, "; ".join(details), ok)


def _aitken(x0, x1, x2):
    """Aitken's delta-squared limit of three successive terms."""
    return x2 - (x2 - x1) ** 2 / ((x2 - x1) - (x1 - x0))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pareto_rate_inside_step_size_hypothesis_at_depth(alpha):
    # On HALF_N criterion 1 at alpha = 1.2 reads the forgetting exponent
    # alpha c = 0.6, outside omega < theta1.  Inside it, on STABLE_N, the
    # Pareto rate needs depth: at alpha = 1.2 the local slopes still climb
    # at 2^20, so the gate reads Aitken's limit of the last three.
    cfg = ExperimentConfig(
        experiment="rate",
        alpha=alpha,
        scheme="pareto-em",
        schedule=STABLE_N,
        checkpoints="8192..1048576 geometric",
        reference="oracle",
        seed=42,
    )
    rep = run_experiment(cfg)
    assert [r["n"] for r in rep.rows] == [2**k for k in range(13, 21)]
    assert rep.summary["omega"] < builtin_ou(1).dissip_theta1
    assert len({np.sign(r["signed_error"]) for r in rep.rows}) == 1
    limit = _aitken(*(r["local_slope"] for r in rep.rows[-3:]))
    assert limit == pytest.approx((2.0 - alpha) / alpha, abs=0.03)


def test_criterion_02_stable_rate_floor():
    # The gamma^{1/alpha} rate is promised under the step-size hypothesis
    # omega < rho, with rho = theta1 for the OU drift; for c-over-n that is
    # c > 1/alpha.  The gate runs on STABLE_N, which satisfies it at every
    # alpha, and asserts the hypothesis so that a schedule leaving it fails
    # loudly.  The fit must not straddle a sign change of the signed error,
    # which can steepen a global slope without any real convergence.
    theta1 = builtin_ou(1).dissip_theta1
    ok, details = True, []
    for alpha in ALPHAS:
        cfg = _rate_config(alpha, "stable-em", STABLE_N)
        rep = run_experiment(cfg)
        omega, slope, floor = rep.summary["omega"], rep.summary["slope"], 1.0 / alpha - 0.1
        signs = _stable_error_signs(cfg, rep.rows)
        inside = omega < theta1
        ok &= inside and len(set(signs)) == 1 and slope >= floor
        details.append(
            f"a={alpha}: omega={omega:.3f}{'<' if inside else '>='}{theta1:g} slope={slope:.3f} "
            f"needed>={floor:.3f} signs={signs}"
        )
    # Below the threshold the exact law forgets its start at the exponent
    # alpha*c the schedule implies: 0.6 < 1/alpha at alpha = 1.2, c = 1/2.
    alpha, c = 1.2, 0.5
    slope = _rate(alpha, "stable-em").summary["slope"]
    ok &= abs(slope - alpha * c) <= 0.02
    details.append(f"a={alpha} c={c}: slope={slope:.3f} expected {alpha * c:.3f}+-0.02")
    assert _report(2, "; ".join(details), ok)


def test_criterion_03_chain_cf_matches_ensemble():
    cfg = ExperimentConfig(
        experiment="cf-check", alpha=1.5, schedule=HALF_N, m=1_000_000, n=512, seed=42
    )
    rep = run_experiment(cfg)
    worst = max(r["abs_diff"] for r in rep.rows)
    assert _report(3, f"max |ecf - oracle| = {worst:.2e} <= {rep.summary['threshold']:.2e}",
                   rep.verdict)


def test_criterion_04_sampler_correctness():
    M, alpha = 1_000_000, 1.5
    tol = 4.0 / math.sqrt(M)
    lams = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0])
    target = np.exp(-lams**alpha)

    z1 = sample_stable_1d(alpha, derive_stream(42, 0), M)
    e1 = np.max(np.abs(np.cos(np.outer(lams, z1)).mean(axis=1) - target))

    zv = sample_stable_vec(alpha, 3, derive_stream(42, 1), M)
    u = np.ones(3) / math.sqrt(3.0)
    e2 = np.max(np.abs(np.cos(np.outer(lams, zv @ u)).mean(axis=1) - target))

    zp = sample_pareto_vec(alpha, 3, derive_stream(42, 2), M)
    r = np.linalg.norm(zp, axis=1)
    e3 = max(abs(np.mean(r > rr) - rr**-alpha) for rr in (2.0, 4.0, 8.0))

    beta_a = noise_constants(alpha, 1).beta ** alpha
    lam = 1e-3
    e4 = abs((1.0 - pareto_cf(alpha, lam)) / lam**alpha / beta_a - 1.0)

    ok = e1 < tol and e2 < tol and e3 < tol and e4 < 0.05
    assert _report(4, f"cf errs {e1:.1e}/{e2:.1e}, tail err {e3:.1e}, beta rel {e4:.1e}", ok)


def test_criterion_05_w1_oracle_equivalence_and_axioms():
    gen = derive_stream(5, 0)
    worst = 0.0
    for _ in range(200):
        m = int(gen.integers(1, 17))
        x, y = gen.standard_cauchy((2, m))
        worst = max(worst, abs(w1_sorted_1d(x, y) - w1_exact_lp(x, y)))
    axioms = True
    for _ in range(100):
        m = int(gen.integers(2, 33))
        x, y, z = gen.standard_normal((3, m))
        d = w1_sorted_1d(x, y)
        axioms &= d <= w1_sorted_1d(x, z) + w1_sorted_1d(z, y) + 1e-12
        c, a = float(gen.normal()), float(gen.uniform(0.1, 3.0))
        axioms &= abs(w1_sorted_1d(x + c, y + c) - d) < 1e-12
        axioms &= abs(w1_sorted_1d(a * x, a * y) - a * d) < 1e-9
    ok = worst < 1e-12 and axioms
    assert _report(5, f"sorted-vs-assignment gap {worst:.1e}; axioms {axioms}", ok)


def test_criterion_06_schedule_decay_identities():
    alpha, theta = 1.5, 2.0 / 3.0
    s = StepSchedule(gamma1=4.0)
    diag = decay_diagnostics(s, rho=0.5, n_max=100_000, alpha=alpha, theta=theta)
    closed = 0.5 / (alpha * 2.0)  # = 1/6
    k = 1_000_000
    gk, gk1 = s.gamma_at(k), s.gamma_at(k + 1)
    tail = (gk**theta - gk1**theta) / gk1 ** (1.0 + theta)
    ok_omega = abs(diag.omega - closed) < 1e-12 and abs(tail - closed) <= 0.01 * closed
    ok_v = diag.v_over_gamma_theta[-1] <= diag.bound
    ok_decay = diag.exp_decay_ratio[10_000 - 1] < 1e-3
    ok = ok_omega and ok_v and ok_decay
    assert _report(
        6,
        f"omega={diag.omega:.6f} (tail {tail:.6f}); v-ratio {diag.v_over_gamma_theta[-1]:.3f}"
        f" <= {diag.bound:.3f}; decay {diag.exp_decay_ratio[9999]:.1e}",
        ok,
    )


def test_criterion_07_moment_bounded_along_chains():
    alpha, kappa = 1.5, 1.2
    sched = StepSchedule(gamma1=0.5)
    cps = tuple(2**k for k in range(7, 14))
    ok, details = True, []
    for scheme in ("pareto-em", "stable-em"):
        run = EnsembleRun(
            scheme=scheme,
            alpha=alpha,
            drift=builtin_ou(1),
            schedule=sched,
            m_chains=20_000,
            x0=0.0,
            checkpoints=cps,
            master_seed=42,
        )
        res = run_ensemble(run, workers=2)
        moms = [empirical_moment(xs, kappa, alpha) for xs in res.samples]
        good = max(moms) <= 2.0 * moms[0]
        ok &= good
        details.append(f"{scheme}: max/first = {max(moms) / moms[0]:.2f}")
    assert _report(7, "; ".join(details), ok)


def test_criterion_08_one_step_increment_scaling():
    alpha, kappa = 1.5, 1.2
    gen = derive_stream(8, 0)
    pts = []
    for k in range(3, 10):
        g = 2.0**-k
        # one EM step from the drift's fixed point: increment is the scaled noise
        z = sample_stable_1d(alpha, gen, 200_000)
        pts.append((g, float(np.mean(np.abs(g ** (1.0 / alpha) * z) ** kappa))))
    slope = rate_fit(pts).slope
    ok = abs(slope - kappa / alpha) <= 0.1
    assert _report(8, f"increment-moment slope {slope:.3f} vs {kappa / alpha:.3f}", ok)


def test_criterion_09_coupled_ou_decay():
    cfg = ExperimentConfig(
        experiment="ergodicity",
        alpha=1.5,
        schedule="poly:0.1,0.5",
        m=512,
        checkpoints="16..1024 geometric",
        seed=42,
    )
    rep = run_experiment(cfg)
    err = rep.summary["max_coupling_error"]
    rate = rep.summary["decay_rate"]
    ok = err <= 1e-12 and 0.95 <= rate <= 1.05
    assert _report(9, f"max |dist - 10 e^-t| = {err:.1e}; decay rate {rate:.4f}", ok)


def test_criterion_10_byte_identical_reruns(tmp_path, block_spy):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text(
        "experiment = cf-check\nalpha = 1.5\nm = 50000\nn = 128\nseed = 42\n"
    )
    blobs = []
    for tag, workers in (("a", "1"), ("b", "4")):
        out = str(tmp_path / tag)
        block_spy.blocks.clear()
        os.environ["STABLEEM_WORKERS"] = workers
        try:
            assert main(["cf-check", "--config", str(cfgfile), "--out", out]) == 0
        finally:
            del os.environ["STABLEEM_WORKERS"]
        blobs.append(open(out + ".csv", "rb").read())
    # the 4-worker run really shards: several blocks, on several threads
    equal = blobs[0] == blobs[1]
    blocks, threads = len(block_spy.blocks), len({thread for _, thread in block_spy.blocks})
    ok = equal and blocks > 1 and threads > 1
    desc = f"csv bytes equal across worker counts: {equal} ({blocks} blocks on {threads} threads)"
    assert _report(10, desc, ok)


def test_criterion_11_weak_error_slopes():
    cfg = ExperimentConfig(experiment="weak-error", alpha=1.5, seed=42)
    rep = run_experiment(cfg)
    sp, st = rep.summary["pareto_slope"], rep.summary["stable_slope"]
    ok = (
        sp is not None
        and abs(sp - 2.0 / 1.5) <= 0.3
        and st is not None
        and st >= sp - 0.2
    )
    assert _report(11, f"pareto slope {sp:.3f} (target 1.333 +- 0.3); stable {st:.3f}", ok)
