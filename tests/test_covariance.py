import numpy as np
import pytest

from quenchlab.bogoliubov import build_bogoliubov, initial_correlations
from quenchlab.covariance import (CONFIGURATION, DISJOINT, JOINT, BasisError,
                                  CovarianceMatrix, evolve_covariance,
                                  initial_covariance, joint_covariance,
                                  max_offdiagonal, mean_evolved_covariance,
                                  occupations_from_covariance,
                                  symplectic_eigenvalues, thermal_form_check,
                                  to_configuration, to_joint_modes)
from quenchlab.model import mode_frequencies

from conftest import make_spec

DECAY_SLOPE_5_10 = -0.9438780450316356
DECAY_RESIDUALS_5_10 = [0.03999838669312959, 0.020591423684891197,
                        0.01023711740646627, 0.005324279523008362,
                        0.0027754017424395996, 0.0015562985979235048]


def test_initial_covariance_closed_form():
    spec = make_spec(2, 3, modes=(2, 4), t_max=1.0, t_steps=2,
                     mass=1.3, omega0=1.1, hbar=0.7)
    cov = initial_covariance(spec)
    assert cov.basis_tag == DISJOINT
    n = spec.initial_state.as_array()
    w = np.concatenate([mode_frequencies(2, 1.1), mode_frequencies(3, 1.1)])
    np.testing.assert_allclose(np.diagonal(cov.block("xx")),
                               (n + 0.5) * 0.7 / (1.3 * w), rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.diagonal(cov.block("pp")),
                               (n + 0.5) * 0.7 * 1.3 * w, rtol=0, atol=1e-14)
    assert np.max(np.abs(cov.block("xp"))) == 0.0


def test_basis_tags_enforced(spec22):
    cov0 = initial_covariance(spec22)
    with pytest.raises(BasisError):
        to_joint_modes(cov0, spec22)
    with pytest.raises(BasisError):
        evolve_covariance(cov0, spec22, 1.0)
    conf = to_configuration(cov0, spec22)
    assert conf.basis_tag == CONFIGURATION
    with pytest.raises(BasisError):
        to_configuration(conf, spec22)
    joint = to_joint_modes(conf, spec22)
    assert joint.basis_tag == JOINT
    with pytest.raises(BasisError):
        thermal_form_check(cov0, spec22)


def test_matrix_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix(sigma=np.ones((3, 3)), basis_tag=DISJOINT)
    bad = np.eye(4)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        CovarianceMatrix(sigma=bad, basis_tag=DISJOINT)
    with pytest.raises(ValueError):
        CovarianceMatrix(sigma=np.eye(4), basis_tag=DISJOINT).block("qq")


def test_symplectic_spectrum_reads_occupations():
    spec = make_spec(2, 3, modes=(2, 4), t_max=1.0, t_steps=2,
                     mass=1.3, omega0=1.1, hbar=0.7)
    nu = symplectic_eigenvalues(initial_covariance(spec), hbar=0.7)
    np.testing.assert_allclose(np.sort(nu), [0.5, 0.5, 0.5, 1.5, 1.5],
                               rtol=0, atol=1e-10)


def test_spectrum_invariant_under_transforms_and_evolution(spec_5_10):
    cov0 = initial_covariance(spec_5_10)
    nu0 = symplectic_eigenvalues(cov0)
    joint = joint_covariance(spec_5_10)
    np.testing.assert_allclose(symplectic_eigenvalues(joint), nu0,
                               rtol=0, atol=1e-8)
    for t in (0.7, 13.0, 211.5):
        evolved = evolve_covariance(joint, spec_5_10, t)
        np.testing.assert_allclose(symplectic_eigenvalues(evolved), nu0,
                                   rtol=0, atol=1e-8)


def test_uncertainty_defect_nonpositive(spec_5_10):
    # the smallest symplectic eigenvalue may not dip below 1/2
    nu = symplectic_eigenvalues(joint_covariance(spec_5_10))
    assert 0.5 - np.min(nu) <= 1e-10


def test_nonpositive_matrix_rejected():
    bad = CovarianceMatrix(sigma=-np.eye(4), basis_tag=JOINT)
    with pytest.raises(ValueError):
        symplectic_eigenvalues(bad)


def test_evolution_at_zero_is_identity(spec22):
    joint = joint_covariance(spec22)
    back = evolve_covariance(joint, spec22, 0.0)
    np.testing.assert_allclose(back.sigma, joint.sigma, rtol=0, atol=1e-14)


def test_occupations_match_emission_diagonal(spec_5_10):
    bog = build_bogoliubov(spec_5_10)
    corr = initial_correlations(bog, spec_5_10.initial_state)
    occ = occupations_from_covariance(joint_covariance(spec_5_10), spec_5_10)
    np.testing.assert_allclose(occ, np.diagonal(corr.cdag_c),
                               rtol=0, atol=1e-10)


_W5 = mode_frequencies(5, 1.0)
_ALIAS_DT = 2 * np.pi / (_W5[0] + _W5[1])


@pytest.mark.parametrize("spec, window, dt", [
    (make_spec(2, 2, t_max=50.0, t_steps=51), 20.0, 0.5),
    (make_spec(2, 3, modes=(2, 4), mass=1.3, omega0=1.1, hbar=0.7), 20.3, 0.3),
    (make_spec(2, 3, modes=(2, 4)), 300 * _ALIAS_DT, _ALIAS_DT),
    (make_spec(5, 10, modes=(3, 4), omega0=7.0), 200.0, 0.5),
], ids=["2-2", "window-not-multiple-of-dt", "aliased-beat", "below-nyquist"])
def test_mean_matches_brute_force_average(spec, window, dt):
    # Fock states have no xp block; add one so the cross terms are checked too
    joint = joint_covariance(spec)
    K = joint.n_modes
    xp = 0.1 * np.random.default_rng(0).standard_normal((K, K))
    sig = joint.sigma.copy()
    sig[:K, K:] += xp
    sig[K:, :K] += xp.T
    cov = CovarianceMatrix(sigma=sig, basis_tag=JOINT)
    mean = mean_evolved_covariance(cov, spec, window, dt)
    ts = np.arange(0.0, window, dt)
    acc = np.zeros_like(sig)
    for t in ts:
        acc += evolve_covariance(cov, spec, t).sigma
    np.testing.assert_allclose(mean.sigma, acc / len(ts), rtol=0, atol=1e-12)


@pytest.mark.parametrize("window, dt, name", [
    (0.0, 0.5, "window"),
    (20.0, -0.5, "dt"),
    (20.0, 0.0, "dt"),
    (20.0, np.nan, "dt"),
])
def test_mean_refuses_empty_or_invalid_grid(spec22, window, dt, name):
    with pytest.raises(ValueError, match=name):
        mean_evolved_covariance(joint_covariance(spec22), spec22, window, dt)


def test_offdiagonal_decay_frozen(spec_5_10):
    rep = thermal_form_check(joint_covariance(spec_5_10), spec_5_10)
    np.testing.assert_allclose(rep.windows, [125, 250, 500, 1000, 2000, 4000],
                               rtol=0, atol=0)
    np.testing.assert_allclose(rep.max_offdiag_avg, DECAY_RESIDUALS_5_10,
                               rtol=0, atol=1e-12)
    assert abs(rep.decay_slope - DECAY_SLOPE_5_10) < 1e-9
    assert -1.2 < rep.decay_slope < -0.8


def test_thermal_form_check_passes(spec_5_10):
    bog = build_bogoliubov(spec_5_10)
    corr = initial_correlations(bog, spec_5_10.initial_state)
    rep = thermal_form_check(joint_covariance(spec_5_10), spec_5_10)
    assert rep.passed
    assert rep.flagged_pairs == []
    assert -1.2 < rep.decay_slope < -0.8
    np.testing.assert_allclose(rep.gge_occupancies, np.diagonal(corr.cdag_c),
                               rtol=0, atol=1e-10)


def test_thermal_form_check_flags_injected_cross_term(spec22):
    cov = joint_covariance(spec22)
    sig = cov.sigma.copy()
    sig[0, 5] += 1e-6
    sig[5, 0] += 1e-6
    bad = CovarianceMatrix(sigma=sig, basis_tag=JOINT)
    rep = thermal_form_check(bad, spec22, windows=(10, 20, 40), dt=0.5)
    assert not rep.passed
    assert (1, 2) in rep.flagged_pairs


def test_max_offdiagonal_skips_only_the_diagonal():
    sig = np.eye(4) * 7.0
    sig[0, 2] = sig[2, 0] = 0.25    # an xx cross term
    cov = CovarianceMatrix(sigma=sig, basis_tag=JOINT)
    assert max_offdiagonal(cov) == 0.25
