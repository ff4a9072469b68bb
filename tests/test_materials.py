import numpy as np
import pytest

from elastinc.materials import MaterialPair, MaterialError, derive_constants

IDENTITY_RTOL = 1e-14


def test_poisson_zero_lambda():
    alpha, beta, kappa = derive_constants(0.0, 1.0)
    assert alpha == pytest.approx(0.75)
    assert beta == pytest.approx(0.25)
    assert kappa == pytest.approx(3.0)


def test_equal_lame_constants():
    alpha, beta, kappa = derive_constants(1.0, 1.0)
    assert alpha == pytest.approx(2.0 / 3.0)
    assert beta == pytest.approx(1.0 / 3.0)
    assert kappa == pytest.approx(2.0)


def test_generic_pair_identity():
    # independent scratch evaluation of the closed forms
    lam, mu = 2.5, 0.7
    alpha, beta, kappa = derive_constants(lam, mu)
    assert alpha == pytest.approx((lam + 3 * mu) / (2 * mu * (lam + 2 * mu)), rel=1e-15)
    assert beta == pytest.approx((lam + mu) / (2 * mu * (lam + 2 * mu)), rel=1e-15)
    assert abs(kappa * beta - alpha) <= IDENTITY_RTOL * alpha


def test_random_elliptic_invariants():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        mu = rng.uniform(0.05, 10.0)
        lam = rng.uniform(-0.9 * mu, 10.0)
        alpha, beta, kappa = derive_constants(lam, mu)
        assert alpha > beta > 0.0
        assert abs(kappa * beta - alpha) <= 1e-14 * alpha


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (1.0, -1.0), (-2.0, 1.0), (1.0, 0.0)])
def test_rejects_non_elliptic(lam, mu):
    with pytest.raises(MaterialError):
        derive_constants(lam, mu)


@pytest.mark.parametrize("lam_ext,mu_ext,lam_int,mu_int", [
    (2.0, 1.0, 4.0, np.inf), (2.0, 1.0, np.inf, 3.0), (np.inf, 1.0, 4.0, 3.0),
    (2.0, np.inf, 4.0, 3.0), (2.0, 1.0, np.nan, 3.0)])
def test_material_pair_rejects_non_finite(lam_ext, mu_ext, lam_int, mu_int):
    with pytest.raises(MaterialError):
        MaterialPair(lam_ext, mu_ext, lam_int=lam_int, mu_int=mu_int)


def test_cavity_pair():
    pair = MaterialPair(1.0, 1.0, cavity=True)
    assert pair.cavity
    assert not pair.has_interior
    with pytest.raises(MaterialError):
        pair.interior_constants()


def test_transmission_pair_requires_contrast():
    with pytest.raises(MaterialError):
        MaterialPair(lam_ext=1.0, mu_ext=1.0, lam_int=1.0, mu_int=1.0)


def test_transmission_pair_constants():
    pair = MaterialPair(lam_ext=1.0, mu_ext=1.0, lam_int=2.0, mu_int=3.0)
    at, bt, kt = pair.interior_constants()
    assert at == pytest.approx(0.5 * (1 / 3 + 1 / 8))
    assert bt == pytest.approx(0.5 * (1 / 3 - 1 / 8))
    assert kt * bt == pytest.approx(at, rel=1e-14)
