import tracemalloc

import numpy as np
import pytest

from quenchlab.bogoliubov import build_bogoliubov, initial_correlations
from quenchlab.covariance import (_TILE, CONFIGURATION, DISJOINT, JOINT,
                                  BasisError, CovarianceMatrix,
                                  evolve_covariance,
                                  initial_covariance, joint_covariance,
                                  max_offdiagonal, mean_evolved_covariance,
                                  occupations_from_covariance,
                                  symplectic_eigenvalues, thermal_form_check,
                                  to_configuration, to_joint_modes)
from quenchlab.dynamics import _phase_kernel
from quenchlab.model import disjoint_transform, mode_frequencies, sine_transform

from conftest import conjugate_dense, make_spec, rotate_covariance_dense

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


@pytest.mark.parametrize("entry, where", [
    (np.nan, "all"), (np.nan, (1, 1)), (np.inf, (0, 0)),
    (np.inf, (0, 3)), (-np.inf, (3, 3)),
], ids=["nan-everywhere", "nan-xx-diagonal", "inf-xx-diagonal",
        "inf-xp-pair", "minus-inf-pp-diagonal"])
def test_matrix_refuses_non_finite_entries(entry, where):
    sig = np.eye(4)
    if where == "all":
        sig[:] = entry
    else:
        i, j = where
        sig[i, j] = sig[j, i] = entry
    with pytest.raises(ValueError, match="finite"):
        CovarianceMatrix(sigma=sig, basis_tag=JOINT)


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


def _with_xp_block(spec):
    # Fock states have no xp block; add one so the cross terms are checked too
    joint = joint_covariance(spec)
    K = joint.n_modes
    xp = 0.1 * np.random.default_rng(0).standard_normal((K, K))
    sig = joint.sigma.copy()
    sig[:K, K:] += xp
    sig[K:, :K] += xp.T
    return CovarianceMatrix(sigma=sig, basis_tag=JOINT)


@pytest.mark.parametrize("spec, window, dt", [
    (make_spec(2, 2, t_max=50.0, t_steps=51), 20.0, 0.5),
    (make_spec(2, 3, modes=(2, 4), mass=1.3, omega0=1.1, hbar=0.7), 20.3, 0.3),
    (make_spec(2, 3, modes=(2, 4)), 300 * _ALIAS_DT, _ALIAS_DT),
    (make_spec(5, 10, modes=(3, 4), omega0=7.0), 200.0, 0.5),
], ids=["2-2", "window-not-multiple-of-dt", "aliased-beat", "below-nyquist"])
def test_mean_matches_brute_force_average(spec, window, dt):
    cov = _with_xp_block(spec)
    mean = mean_evolved_covariance(cov, spec, window, dt)
    w = mode_frequencies(spec.total_size, spec.omega0)
    ts = np.arange(0.0, window, dt)
    acc = np.zeros_like(cov.sigma)
    for t in ts:
        acc += rotate_covariance_dense(cov.sigma, w, spec.mass, t)
    np.testing.assert_allclose(mean.sigma, acc / len(ts), rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [0.7, 13.0, 211.5, 300 * _ALIAS_DT],
                         ids=["0.7", "13", "211.5", "aliased-beat"])
def test_evolve_matches_dense_rotation(t):
    spec = make_spec(2, 3, modes=(2, 4), mass=1.3, hbar=0.7)
    cov = _with_xp_block(spec)
    w = mode_frequencies(spec.total_size, spec.omega0)
    np.testing.assert_allclose(evolve_covariance(cov, spec, t).sigma,
                               rotate_covariance_dense(cov.sigma, w, spec.mass, t),
                               rtol=0, atol=1e-12)


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


def _with_cross_term(spec):
    # one xp entry, (1, 2), of a size that thermal_form_check flags
    sig = joint_covariance(spec).sigma.copy()
    K = spec.total_size
    sig[0, K + 1] += 1e-6
    sig[K + 1, 0] += 1e-6
    return CovarianceMatrix(sigma=sig, basis_tag=JOINT)


def test_thermal_form_check_flags_injected_cross_term(spec22):
    rep = thermal_form_check(_with_cross_term(spec22), spec22,
                             windows=(10, 20, 40), dt=0.5)
    assert not rep.passed
    assert (1, 2) in rep.flagged_pairs


@pytest.mark.parametrize("spec, cross_term, windows", [
    (make_spec(5, 10, modes=(3, 4)), False, (125, 250, 500, 1000, 2000, 4000)),
    (make_spec(2, 2, t_max=50.0, t_steps=51), True, (10, 20, 40)),
], ids=["5-10", "2-2-cross-term"])
def test_thermal_form_check_reads_window_means(spec, cross_term, windows):
    # the check's block residuals are max_offdiagonal of the 2K x 2K means
    cov = _with_cross_term(spec) if cross_term else joint_covariance(spec)
    rep = thermal_form_check(cov, spec, windows=windows, dt=0.5)
    means = [mean_evolved_covariance(cov, spec, T, 0.5) for T in windows]
    assert rep.max_offdiag_avg.tolist() == [max_offdiagonal(m) for m in means]
    assert np.array_equal(rep.gge_occupancies,
                          occupations_from_covariance(means[-1], spec))


def _sweep_cases(seed=12):
    """Random sizes N, M <= 40, then K = N + M on both sides of the check's
    tile edge, each with random quanta, chain constants, dt and windows."""
    rng = np.random.default_rng(seed)
    sizes = [tuple(int(x) for x in rng.integers(1, 41, size=2))
             for _ in range(4)]
    for K in (_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1):
        n = int(rng.integers(1, K))
        sizes.append((n, K - n))
    cases = []
    for N, M in sizes:
        modes = tuple(int(m) for m in rng.integers(1, N + M + 1, size=3))
        mass, omega0, hbar = (float(x) for x in rng.uniform(0.5, 2.0, size=3))
        spec = make_spec(N, M, modes=modes[:int(rng.integers(0, 4))],
                         t_max=1.0, t_steps=2, mass=mass, omega0=omega0,
                         hbar=hbar)
        dt = float(rng.uniform(0.2, 1.0))
        windows = tuple(float(T) for T in np.cumsum(rng.uniform(5, 200, 3)))
        cases.append(pytest.param(spec, dt, windows, id=f"{N}-{M}"))
    return cases


def _with_tile_offset_terms(spec):
    # large xx and pp entries (j, j + _TILE): on the diagonal of a tile that
    # lies off sigma's diagonal, where the residual must not skip them
    sig = joint_covariance(spec).sigma.copy()
    K = spec.total_size
    for j in range(K - _TILE):
        for r, c in ((j, j + _TILE), (K + j, K + j + _TILE)):
            sig[r, c] += 100.0
            sig[c, r] += 100.0
    return CovarianceMatrix(sigma=sig, basis_tag=JOINT)


@pytest.mark.parametrize("modify", [None, _with_cross_term, _with_xp_block,
                                    _with_tile_offset_terms],
                         ids=["no-xp", "cross-term", "xp-block", "tile-offset"])
@pytest.mark.parametrize("spec, dt, windows", _sweep_cases())
def test_tiled_check_equals_full_window_means(spec, dt, windows, modify):
    # the tiled walk reads every window's residual, the last window's
    # occupancies and the flagged pairs exactly as the whole-matrix means do
    cov = joint_covariance(spec) if modify is None else modify(spec)
    rep = thermal_form_check(cov, spec, windows=windows, dt=dt)
    means = [mean_evolved_covariance(cov, spec, T, dt) for T in windows]
    assert np.array_equal(rep.max_offdiag_avg,
                          [max_offdiagonal(m) for m in means])
    assert np.array_equal(rep.gge_occupancies,
                          occupations_from_covariance(means[-1], spec))
    rows, cols = np.nonzero(np.abs(cov.block("xp")) > 1e-10)
    assert rep.flagged_pairs == list(zip(rows + 1, cols + 1))


@pytest.mark.parametrize("windows", [(), (125,), (125, 125), (500, 250, 125)],
                         ids=["empty", "one", "repeated", "decreasing"])
def test_thermal_form_check_refuses_bad_windows(spec22, windows):
    with pytest.raises(ValueError, match="windows"):
        thermal_form_check(joint_covariance(spec22), spec22, windows=windows)


@pytest.mark.parametrize("spec", [
    make_spec(2, 2),
    make_spec(5, 10, modes=(3, 4)),
    make_spec(7, 9, modes=(2,), mass=1.3, omega0=0.8, hbar=0.7),
    make_spec(5, 20, modes=(3, 4)),
], ids=["2-2", "5-10", "7-9-constants", "5-20"])
def test_rotations_match_dense_congruence(spec):
    # BLAS may group a K-term block product differently from the 2K-term
    # zero-padded one, so the bound is K roundings of the largest entry
    K = spec.total_size

    def check(got, sigma, mat):
        ref = conjugate_dense(sigma, mat)
        tol = K * np.finfo(float).eps * np.max(np.abs(ref))
        np.testing.assert_allclose(got.sigma, ref, rtol=0, atol=tol)

    cov0 = initial_covariance(spec)
    conf = to_configuration(cov0, spec)
    check(conf, cov0.sigma, disjoint_transform(spec))
    assert not conf.sigma[:K, K:].any() and not conf.sigma[K:, :K].any()
    check(to_joint_modes(conf, spec), conf.sigma, sine_transform(K))
    sig = conf.sigma.copy()
    xp = 0.1 * np.random.default_rng(2).standard_normal((K, K))
    sig[:K, K:] += xp
    sig[K:, :K] += xp.T
    check(to_joint_modes(CovarianceMatrix(sigma=sig, basis_tag=CONFIGURATION),
                         spec), sig, sine_transform(K))


def test_covariance_route_memory_bound():
    # tracemalloc peaks in K x K float64 arrays at K = 480 (N:M = 1:2, one
    # quantum mid-band in the left chain); the check's is above its input
    K = 480
    spec = make_spec(160, 320, modes=(80,), t_max=1.0, t_steps=2)
    unit = 8 * K * K
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cov = joint_covariance(spec)
        joint_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        thermal_form_check(cov, spec)
        check_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert joint_peak <= 21 * unit, joint_peak / unit
    assert check_peak <= 23 * unit, check_peak / unit


def test_max_offdiagonal_skips_only_the_diagonal():
    sig = np.eye(4) * 7.0
    sig[0, 2] = sig[2, 0] = 0.25    # an xx cross term
    cov = CovarianceMatrix(sigma=sig, basis_tag=JOINT)
    assert max_offdiagonal(cov) == 0.25


def test_window_check_and_kernel_work_in_fixed_memory():
    # tracemalloc peaks above the held inputs, in K x K float64 arrays at
    # K = 480: the check holds a few tiles, the kernel its moments, A, B
    # and a one-sample workspace of five arrays
    K = 480
    spec = make_spec(160, 320, modes=(80,), t_max=1.0, t_steps=2)
    cov = joint_covariance(spec)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    unit = 8 * K * K
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: thermal_form_check(cov, spec),
                    lambda: _phase_kernel(bog, corr, [0.0, 3.1, 7.7])):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append((tracemalloc.get_traced_memory()[1] - held) / unit)
    finally:
        tracemalloc.stop()
    check_peak, kernel_peak = peaks
    assert check_peak <= 3, check_peak
    assert kernel_peak <= 10, kernel_peak
