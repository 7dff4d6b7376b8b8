import numpy as np
import pytest

from stableem.drift import (
    FD_EPS,
    DriftModel,
    builtin_ou,
    builtin_perturbed_ou,
    certify_assumptions,
    drift_by_name,
)
from stableem.rng import derive_stream


def test_builtin_ou_eval():
    m = builtin_ou(3)
    x = np.array([[1.0, -2.0, 0.5]])
    np.testing.assert_array_equal(m(x), -x)


def test_certify_builtin_ou_passes():
    rep = certify_assumptions(builtin_ou(2), 2000, 10.0, derive_stream(0, 0))
    assert rep.passed
    assert rep.witness is None
    assert set(rep.checks) >= {"lipschitz", "dissipativity", "linear_growth"}


def test_certify_perturbed_ou_passes():
    rep = certify_assumptions(builtin_perturbed_ou(2, 0.3), 2000, 10.0, derive_stream(1, 0))
    assert rep.passed


def test_certify_fails_with_witness_on_wrong_constants():
    lying = DriftModel(
        fn=lambda x: -2.0 * x,
        dim=1,
        lipschitz_l=1.0,  # actual Lipschitz constant is 2
        dissip_theta1=1.0,
        dissip_k=0.0,
        name="lying",
    )
    rep = certify_assumptions(lying, 2000, 10.0, derive_stream(2, 0))
    assert not rep.passed
    assert rep.witness is not None
    assert rep.witness["check"] == "lipschitz"
    assert rep.witness["lhs"] > rep.witness["rhs"]
    # the witness's bound is the one enforced, tolerance included
    assert rep.witness["lhs"] - rep.witness["rhs"] == rep.checks["lipschitz"]


def test_directional_witness_reproduces_its_lhs():
    # -x + 0.3 sin x has second directional derivatives up to 0.3, so a
    # claimed theta2 = 0 fails the second difference; its witness carries the
    # point and both directions that difference used, and no unread y.
    fn = lambda x: -x + 0.3 * np.sin(x)  # noqa: E731
    lying = DriftModel(fn=fn, dim=2, lipschitz_l=1.3, dissip_theta1=0.7, dissip_k=0.0,
                       hessian_theta2=0.0, name="lying-theta2")
    rep = certify_assumptions(lying, 2000, 10.0, derive_stream(0, 0))
    assert not rep.passed
    w = rep.witness
    assert w["check"] == "second_directional"
    assert set(w) == {"check", "x", "u1", "u2", "lhs", "rhs"}
    x, u1, u2, e = np.array(w["x"]), np.array(w["u1"]), np.array(w["u2"]), FD_EPS
    assert np.linalg.norm(u1) == pytest.approx(1.0) and np.linalg.norm(u2) == pytest.approx(1.0)
    second = (
        fn(x + e * u2 + e * u1) - fn(x + e * u2 - e * u1) - fn(x - e * u2 + e * u1)
        + fn(x - e * u2 - e * u1)
    ) / (4.0 * e * e)
    assert np.linalg.norm(second) == w["lhs"]
    assert w["lhs"] - w["rhs"] == rep.checks["second_directional"]


@pytest.mark.parametrize("name", ["ou", "perturbed-ou:0.3", "perturbed-ou:0.49"])
def test_certificate_passes_exactly_when_every_worst_margin_is_at_most_zero(name):
    for seed in range(5):
        for dim in (1, 2, 3):
            rep = certify_assumptions(drift_by_name(name, dim), 2000, 10.0, derive_stream(seed, 0))
            assert rep.passed == all(m <= 0 for m in rep.checks.values())
            assert rep.passed and rep.witness is None


def test_certificate_fails_on_a_drift_that_returns_nan():
    # a NaN margin is not <= 0: no inequality was shown to hold there
    holed = DriftModel(
        fn=lambda x: np.where(np.abs(x) < 1.0, np.nan, -x),
        dim=1,
        lipschitz_l=1.0,
        dissip_theta1=1.0,
        dissip_k=0.0,
        name="holed",
    )
    rep = certify_assumptions(holed, 2000, 10.0, derive_stream(4, 0))
    assert not rep.passed
    assert rep.witness["check"] == "lipschitz"
    assert np.isnan(rep.checks["lipschitz"])


def test_certify_detects_missing_dissipativity():
    expanding = DriftModel(
        fn=lambda x: 0.5 * x,
        dim=1,
        lipschitz_l=1.0,
        dissip_theta1=0.5,
        dissip_k=0.0,
        name="expanding",
    )
    rep = certify_assumptions(expanding, 2000, 10.0, derive_stream(3, 0))
    assert not rep.passed


def test_certify_requires_enough_pairs():
    with pytest.raises(ValueError):
        certify_assumptions(builtin_ou(1), 10, 10.0, derive_stream(0, 0))


def test_drift_by_name():
    assert drift_by_name("ou", 2).name == "ou"
    assert drift_by_name("perturbed-ou:0.2", 1).lipschitz_l == pytest.approx(1.2)
    with pytest.raises(ValueError):
        drift_by_name("bogus", 1)
    with pytest.raises(ValueError):
        builtin_perturbed_ou(1, 0.7)


def test_constant_validation():
    with pytest.raises(ValueError):
        DriftModel(fn=lambda x: -x, dim=1, lipschitz_l=0.0, dissip_theta1=1.0, dissip_k=0.0)
    with pytest.raises(ValueError):
        DriftModel(fn=lambda x: -x, dim=1, lipschitz_l=1.0, dissip_theta1=-1.0, dissip_k=0.0)
