import tracemalloc

import numpy as np
import pytest

from quenchlab.bogoliubov import (BogoliubovMap, ConsistencyError, Moments,
                                  NumericalError, SingularAlpha,
                                  build_bogoliubov, emitted_occupations,
                                  f_matrix, initial_correlations,
                                  joint_energy, pre_quench_energy)
from quenchlab.covariance import joint_covariance
from quenchlab.model import FockExcitation, RunConfig

from conftest import (eigh_bogoliubov, initial_correlations_four, make_spec,
                      map_factors, random_specs)

# measured once through the truncated-Fock route at N=M=2 and frozen;
# see the package tests for the oracle itself
RHO_F_22 = 0.2647947361317251
COND_ALPHA_22 = 1.0370148432725803


def _corr_list(c):
    return [c.cdag_c, c.c_cdag, c.c_c, c.cdag_cdag]


@pytest.mark.parametrize("N,M,mass,omega0", [
    *(pytest.param(N, M, RunConfig.mass, RunConfig.omega0, id=f"{N}-{M}")
      for N, M in [(2, 2), (1, 1), (3, 7), (5, 10), (12, 23)]),
    pytest.param(3, 7, 1.3, 0.7, id="3-7-m1.3-w0.7")])
def test_matches_independent_eigendecomposition(N, M, mass, omega0):
    # omega_pre and omega_joint scale with omega0, the overlap does not
    spec = make_spec(N, M, t_max=1.0, t_steps=2, mass=mass, omega0=omega0)
    bog = build_bogoliubov(spec)
    alpha, beta, w_pre, w_joint, overlap = eigh_bogoliubov(spec)
    np.testing.assert_allclose(bog.alpha, alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bog.beta, beta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bog.omega_pre, w_pre, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bog.omega_joint, w_joint, rtol=0, atol=1e-12)
    np.testing.assert_allclose(map_factors(spec)[0], overlap, rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("N,M", [(1, 1), (2, 2), (2, 9), (5, 10), (5, 20),
                                 (17, 3), (30, 30)])
def test_symplectic_identities(N, M):
    bog = build_bogoliubov(make_spec(N, M, t_max=1.0, t_steps=2))
    assert bog.symplectic_defect() < 1e-10


def test_symplectic_defect_at_1920_modes():
    # the map of 640+1280 chains on the exact sine matrices: 3.6e-15, where
    # the sine arguments taken as is gave 8.4e-13 (the defect grew like K^2)
    bog = build_bogoliubov(make_spec(640, 1280, t_steps=2))
    assert bog.symplectic_defect() < 1e-14


def test_cosh_sinh_structure():
    # alpha^2 - beta^2 = overlap^2 entrywise, since cosh^2 - sinh^2 = 1
    spec = make_spec(4, 9, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    overlap, gamma = map_factors(spec)
    np.testing.assert_allclose(bog.alpha ** 2 - bog.beta ** 2,
                               overlap ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bog.alpha + bog.beta,
                               overlap * np.exp(gamma),
                               rtol=0, atol=1e-12)


def test_built_map_holds_two_blocks():
    # tracemalloc: what a built map keeps alive, in K x K float64 arrays at
    # K = 480: alpha and beta, not the overlap and gamma they came from
    K = 480
    spec = make_spec(160, 320, modes=(80,), t_max=1.0, t_steps=2)
    unit = 8 * K * K
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        bog = build_bogoliubov(spec)
        kept = (tracemalloc.get_traced_memory()[0] - held) / unit
    finally:
        tracemalloc.stop()
    assert bog.alpha.shape == (K, K)
    assert kept <= 2.1, kept


def test_f_matrix_anchors(spec22):
    bog = build_bogoliubov(spec22)
    f = f_matrix(bog)
    rho = float(np.max(np.abs(np.linalg.eigvals(f))))
    assert np.max(np.abs(f - f.T)) < 1e-8
    assert abs(rho - RHO_F_22) < 1e-12
    assert abs(np.linalg.cond(bog.alpha) - COND_ALPHA_22) < 1e-10
    assert rho < 1.0


def test_f_matrix_rejects_singular_alpha(spec22):
    bog = build_bogoliubov(spec22)
    broken = BogoliubovMap(alpha=np.zeros_like(bog.alpha), beta=bog.beta,
                           omega_pre=bog.omega_pre, omega_joint=bog.omega_joint,
                           n_left=bog.n_left, n_right=bog.n_right,
                           hbar=bog.hbar)
    with pytest.raises(SingularAlpha):
        f_matrix(broken)


def test_vacuum_correlations_are_vacuum_polarization(spec22):
    bog = build_bogoliubov(spec22)
    corr = initial_correlations(bog, FockExcitation.vacuum(4))
    np.testing.assert_allclose(corr.cdag_c, bog.beta.T @ bog.beta,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(corr.cdag_c),
                               (bog.beta ** 2).sum(axis=0),
                               rtol=0, atol=1e-12)


def test_correlations_beta_zero_identity_case(spec22):
    bog = build_bogoliubov(spec22)
    trivial = BogoliubovMap(alpha=np.eye(4), beta=np.zeros((4, 4)),
                            omega_pre=bog.omega_pre, omega_joint=bog.omega_pre,
                            n_left=2, n_right=2, hbar=1.0)
    corr = initial_correlations(trivial, FockExcitation.vacuum(4))
    np.testing.assert_allclose(corr.cdag_c, np.zeros((4, 4)), atol=1e-15)
    np.testing.assert_allclose(corr.c_cdag, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(corr.c_c, np.zeros((4, 4)), atol=1e-15)


@pytest.mark.parametrize("modes", [(), (1,), (3,), (3, 4), (1, 1, 2)])
def test_emission_diagonal_identity(modes):
    spec = make_spec(5, 10, modes=modes, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    np.testing.assert_allclose(np.diagonal(corr.cdag_c),
                               emitted_occupations(bog, spec.initial_state),
                               rtol=0, atol=1e-12)
    n = spec.initial_state.as_array()
    expected = (bog.beta ** 2).sum(axis=0) + n @ (bog.alpha ** 2 + bog.beta ** 2)
    np.testing.assert_allclose(np.diagonal(corr.cdag_c), expected,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("modes", [(), (3,), (3, 4)])
def test_energy_identity(modes):
    spec = make_spec(5, 16, modes=modes, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    assert abs(joint_energy(bog, corr) - pre_quench_energy(spec)) < 1e-8


def test_initial_correlations_rejects_size_mismatch(spec22):
    bog = build_bogoliubov(spec22)
    with pytest.raises(ConsistencyError):
        initial_correlations(bog, FockExcitation.vacuum(6))


def test_emitted_occupations_grow_with_excitation():
    # adding quanta can only increase every joint occupancy
    spec0 = make_spec(5, 10, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec0)
    n_vac = emitted_occupations(bog, FockExcitation.vacuum(15))
    n_one = emitted_occupations(bog, FockExcitation.from_modes(15, [3]))
    n_two = emitted_occupations(bog, FockExcitation.from_modes(15, [3, 4]))
    assert np.all(n_one >= n_vac - 1e-15)
    assert np.all(n_two >= n_one - 1e-15)


RECORD_SPECS = random_specs(20261019, 8) + [
    make_spec(5, 10, modes=(3, 4), mass=1.3, omega0=0.8, hbar=0.7),
    make_spec(80, 120, modes=(40,))]


def _within_rounding(got, ref):
    """|got - ref| <= K eps max|ref| for K x K arrays."""
    bound = len(ref) * np.finfo(float).eps * np.max(np.abs(ref))
    return float(np.max(np.abs(got - ref))) <= bound


@pytest.mark.parametrize("spec", RECORD_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_moments_match_four_product_reference(spec):
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    ref = initial_correlations_four(bog, spec.initial_state)
    for name in ("cdag_c", "c_cdag", "c_c", "cdag_cdag"):
        assert _within_rounding(getattr(corr, name), getattr(ref, name)), name


@pytest.mark.parametrize("spec", RECORD_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_covariance_route_equals_moments_by_diagonal_scaling(spec):
    # x = sqrt(a/hbar) x_phys and p = p_phys / sqrt(hbar a) with a = m w'
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    cov = joint_covariance(spec)
    a = spec.mass * bog.omega_joint
    root = np.sqrt(np.outer(a, a))
    assert _within_rounding(cov.xx * root / spec.hbar, corr.xx)
    assert _within_rounding(cov.pp / (spec.hbar * root), corr.pp)
    assert not cov.xp.any()


def test_moments_refuse_blocks_of_two_shapes():
    with pytest.raises(ConsistencyError, match=r"\(4, 4\), \(3, 3\)"):
        Moments(xx=np.eye(4), pp=np.eye(3))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("block", ["xx", "pp"])
def test_moments_refuse_non_finite_blocks(spec22, block, value):
    # one bad entry off the diagonal: every later check compares, and a
    # comparison with NaN is False
    corr = initial_correlations(build_bogoliubov(spec22), spec22.initial_state)
    blocks = {"xx": corr.xx.copy(), "pp": corr.pp.copy()}
    blocks[block][0, 1] = value
    with pytest.raises(NumericalError):
        Moments(**blocks)


def test_moments_refuse_complex_blocks():
    # a complex block would report complex occupations, 0.5+0.15j here
    with pytest.raises(NumericalError, match="real"):
        Moments(xx=(1 + 0.3j) * np.eye(2), pp=np.eye(2))
