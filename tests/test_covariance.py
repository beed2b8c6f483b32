import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quenchlab.bogoliubov import build_bogoliubov, initial_correlations
from quenchlab.covariance import (_TILE, DT, WINDOWS, CovarianceMatrix,
                                  _dirichlet, joint_covariance,
                                  thermal_form_check)
from quenchlab.dynamics import _phase_kernel
from quenchlab.model import disjoint_transform, mode_frequencies, sine_transform

from conftest import (conjugate_dense, disjoint_covariance,
                      evolve_covariance, make_spec, max_offdiagonal,
                      mean_evolved_covariance, occupations_from_covariance,
                      rotate_covariance_dense, sigma_matrix,
                      symplectic_eigenvalues)

DECAY_SLOPE_5_10 = -0.9438780450316356
DECAY_RESIDUALS_5_10 = [0.03999838669312959, 0.020591423684891197,
                        0.01023711740646627, 0.005324279523008362,
                        0.0027754017424395996, 0.0015562985979235048]


_ASYMMETRIC = np.array([[1.0, 1e-3], [0.0, 1.0]])


def test_matrix_validation():
    zero = np.zeros((2, 2))
    for xx, xp, pp, message in [
        (np.eye(2), zero, np.eye(3), "square"),         # mismatched shapes
        (np.eye(2), np.zeros((2, 3)), np.eye(2), "square"),  # non-square xp
        (np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), "square"),
        (np.ones(2), np.ones(2), np.ones(2), "square"),
        (_ASYMMETRIC, zero, np.eye(2), "symmetric"),
        (np.eye(2), zero, _ASYMMETRIC, "symmetric"),
    ]:
        with pytest.raises(ValueError, match=message):
            CovarianceMatrix(xx, xp, pp)


def test_matrix_sigma_takes_px_from_xp():
    # xp need not be symmetric: px = xp^T makes the assembled sigma so
    xp = np.array([[0.1, 0.2], [-0.3, 0.4]])
    cov = CovarianceMatrix(2 * np.eye(2), xp, 3 * np.eye(2))
    sig = sigma_matrix(cov)
    assert sig.shape == (4, 4) and np.array_equal(sig, sig.T)
    assert np.array_equal(sig[:2, 2:], xp) and np.array_equal(sig[2:, :2], xp.T)


@pytest.mark.parametrize("entry, block, where", [
    (np.nan, None, "all"), (np.nan, "xx", (1, 1)), (np.inf, "xx", (0, 0)),
    (np.inf, "xp", (0, 1)), (-np.inf, "pp", (1, 1)),
], ids=["nan-everywhere", "nan-xx-diagonal", "inf-xx-diagonal",
        "inf-xp-pair", "minus-inf-pp-diagonal"])
def test_matrix_refuses_non_finite_entries(entry, block, where):
    blocks = {"xx": np.eye(2), "xp": np.zeros((2, 2)), "pp": np.eye(2)}
    for name, b in blocks.items():
        if where == "all":
            b[:] = entry
        elif name == block:
            b[where] = entry
    with pytest.raises(ValueError, match="finite"):
        CovarianceMatrix(**blocks)


def test_symplectic_spectrum_reads_occupations():
    spec = make_spec(2, 3, modes=(2, 4), t_max=1.0, t_steps=2,
                     mass=1.3, omega0=1.1, hbar=0.7)
    nu = symplectic_eigenvalues(disjoint_covariance(spec), hbar=0.7)
    np.testing.assert_allclose(np.sort(nu), [0.5, 0.5, 0.5, 1.5, 1.5],
                               rtol=0, atol=1e-10)


def test_spectrum_invariant_under_transforms_and_evolution(spec_5_10):
    cov0 = disjoint_covariance(spec_5_10)
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
    bad = CovarianceMatrix(-np.eye(2), np.zeros((2, 2)), -np.eye(2))
    with pytest.raises(ValueError):
        symplectic_eigenvalues(bad)


def test_evolution_at_zero_is_identity(spec22):
    joint = joint_covariance(spec22)
    back = evolve_covariance(joint, spec22, 0.0)
    np.testing.assert_allclose(sigma_matrix(back), sigma_matrix(joint),
                               rtol=0, atol=1e-14)


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
    return replace(joint, xp=joint.xp + xp)


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
    acc = np.zeros_like(sigma_matrix(cov))
    for t in ts:
        acc += rotate_covariance_dense(sigma_matrix(cov), w, spec.mass, t)
    np.testing.assert_allclose(sigma_matrix(mean), acc / len(ts),
                               rtol=0, atol=1e-12)


def _reduced_half_phases():
    """r = 0, +-pi/2, within 1e-9 of both, and random reduced r of both
    signs, as `_half_phases` returns them."""
    edge = np.pi / 2
    near = np.array([0.0, 1e-9, 3e-10, 1e-12, edge, edge - 1e-9,
                     edge - 3e-10, edge - 1e-15])
    random = np.random.default_rng(19).uniform(-edge, edge, 4000)
    return np.concatenate([near, -near[1:], random])


def _bits(z):
    return np.stack([z.real.view(np.int64), z.imag.view(np.int64)])


@pytest.mark.parametrize("samples", [[2 ** k for k in range(14)],
                                     [250 * 2 ** k for k in range(6)]],
                         ids=["1-to-8192", "250-to-8000"])
def test_doubling_chain_matches_closed_form(samples):
    # each doubling window's Dirichlet means follow from the previous
    # window's by products; |D| <= 1, so the bound is absolute
    r = _reduced_half_phases()
    chain = [mean.copy() for mean in _dirichlet(r.copy(), samples)]
    flipped = [mean.copy() for mean in _dirichlet(-r, samples)]
    nonzero = r != 0
    for S, mean, mirror in zip(samples, chain, flipped):
        (closed,) = _dirichlet(r.copy(), [S])
        assert np.max(np.abs(mean - closed)) <= 32 * np.finfo(float).eps, S
        # D(-r) = conj D(r) exactly, to the bit where r is not 0 (at r = 0
        # both are 1, and only the sign of the zero imaginary part differs)
        assert np.array_equal(mirror, mean.conj())
        assert np.array_equal(_bits(mirror)[:, nonzero],
                              _bits(mean.conj())[:, nonzero])
    assert np.all(chain[-1][r == 0] == 1)


@pytest.mark.parametrize("t", [0.7, 13.0, 211.5, 300 * _ALIAS_DT],
                         ids=["0.7", "13", "211.5", "aliased-beat"])
def test_evolve_matches_dense_rotation(t):
    spec = make_spec(2, 3, modes=(2, 4), mass=1.3, hbar=0.7)
    cov = _with_xp_block(spec)
    w = mode_frequencies(spec.total_size, spec.omega0)
    np.testing.assert_allclose(sigma_matrix(evolve_covariance(cov, spec, t)),
                               rotate_covariance_dense(sigma_matrix(cov), w,
                                                       spec.mass, t),
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
    cov = joint_covariance(spec)
    xp = cov.xp.copy()
    xp[0, 1] += 1e-6
    return replace(cov, xp=xp)


def test_thermal_form_check_flags_injected_cross_term(spec22):
    rep = thermal_form_check(_with_cross_term(spec22), spec22)
    assert not rep.passed
    assert (1, 2) in rep.flagged_pairs


@pytest.mark.parametrize("spec, cross_term", [
    (make_spec(5, 10, modes=(3, 4)), False),
    (make_spec(2, 2, t_max=50.0, t_steps=51), True),
], ids=["5-10", "2-2-cross-term"])
def test_thermal_form_check_reads_window_means(spec, cross_term):
    # the check's tile residuals are max_offdiagonal of the whole means
    cov = _with_cross_term(spec) if cross_term else joint_covariance(spec)
    rep = thermal_form_check(cov, spec)
    means = mean_evolved_covariance(cov, spec, WINDOWS, DT)
    assert rep.max_offdiag_avg.tolist() == [max_offdiagonal(m) for m in means]
    assert np.array_equal(rep.gge_occupancies,
                          occupations_from_covariance(means[-1], spec))


def _sweep_spec(rng, N, M):
    """N + M chains with random quanta and chain constants."""
    modes = tuple(int(m) for m in rng.integers(1, N + M + 1, size=3))
    mass, omega0, hbar = (float(x) for x in rng.uniform(0.5, 2.0, size=3))
    return make_spec(N, M, modes=modes[:int(rng.integers(0, 4))], t_max=1.0,
                     t_steps=2, mass=mass, omega0=omega0, hbar=hbar)


def _sweep_cases(seed=12):
    """Random sizes N, M <= 40, then K = N + M on both sides of the check's
    tile edge, each with random quanta and chain constants.  Four more
    splits of the tile-edge sizes follow from a generator of their own,
    named for the doubling windows on which `_dirichlet` runs its
    recurrence."""
    rng = np.random.default_rng(seed)
    sizes = [tuple(int(x) for x in rng.integers(1, 41, size=2))
             for _ in range(4)]
    for K in (_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1):
        n = int(rng.integers(1, K))
        sizes.append((n, K - n))
    cases = [pytest.param(_sweep_spec(rng, N, M), id=f"{N}-{M}")
             for N, M in sizes]
    rng = np.random.default_rng(seed + 1)
    for N, M in ((56, 7), (42, 22), (42, 23), (17, 112)):    # K = 63 ... 129
        cases.append(pytest.param(_sweep_spec(rng, N, M),
                                  id=f"{N}-{M}-doubling"))
    return cases


def _with_tile_offset_terms(spec):
    # large xx and pp entries (j, j + _TILE): on the diagonal of a tile that
    # lies off the blocks' diagonal, where the residual must not skip them
    cov = joint_covariance(spec)
    j = np.arange(spec.total_size - _TILE)
    bump = np.zeros_like(cov.xx)
    bump[j, j + _TILE] = bump[j + _TILE, j] = 100.0
    return replace(cov, xx=cov.xx + bump, pp=cov.pp + bump)


@pytest.mark.parametrize("modify", [None, _with_cross_term, _with_xp_block,
                                    _with_tile_offset_terms],
                         ids=["no-xp", "cross-term", "xp-block", "tile-offset"])
@pytest.mark.parametrize("spec", _sweep_cases())
def test_tiled_check_equals_full_window_means(spec, modify):
    # the tiled walk reads every window's residual, the last window's
    # occupancies and the flagged pairs exactly as the whole-matrix means do
    cov = joint_covariance(spec) if modify is None else modify(spec)
    rep = thermal_form_check(cov, spec)
    means = mean_evolved_covariance(cov, spec, WINDOWS, DT)
    assert np.array_equal(rep.max_offdiag_avg,
                          [max_offdiagonal(m) for m in means])
    assert np.array_equal(rep.gge_occupancies,
                          occupations_from_covariance(means[-1], spec))
    rows, cols = np.nonzero(np.abs(cov.xp) > 1e-10)
    assert rep.flagged_pairs == list(zip(rows + 1, cols + 1))


@pytest.mark.parametrize("spec", [
    pytest.param(make_spec(2, 2), id="2-2"),
    pytest.param(make_spec(2, 3, modes=(2, 4), mass=1.3, omega0=1.1, hbar=0.7),
                 id="2-3-constants"),
    pytest.param(make_spec(5, 10, modes=(3, 4)), id="5-10"),
    pytest.param(make_spec(7, 9, modes=(2,), mass=1.3, omega0=0.8, hbar=0.7),
                 id="7-9-constants"),
    pytest.param(make_spec(5, 20, modes=(3, 4)), id="5-20"),
] + [pytest.param(case.values[0], id="sweep-" + case.id)
     for case in _sweep_cases()])
def test_rotations_match_dense_congruence(spec):
    # joint_covariance against the closed-form disjoint-mode sigma pushed
    # through both dense 2K x 2K congruences; BLAS may group each K-term
    # block product differently from the 2K-term zero-padded one, so the
    # bound is K roundings of the largest entry per rotation, 2 K in all
    K = spec.total_size
    ref = sigma_matrix(disjoint_covariance(spec))
    for mat in (disjoint_transform(spec), sine_transform(K)):
        ref = conjugate_dense(ref, mat)
    cov = joint_covariance(spec)
    tol = 2 * K * np.finfo(float).eps * np.max(np.abs(ref))
    np.testing.assert_allclose(sigma_matrix(cov), ref, rtol=0, atol=tol)
    assert not cov.xp.any()


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
    assert joint_peak <= 8 * unit, joint_peak / unit
    assert check_peak <= 23 * unit, check_peak / unit


def test_evolved_records_hold_three_blocks():
    # tracemalloc: what a returned record keeps alive, in K x K float64
    # arrays at K = 480; its blocks are not views into complex moments
    K = 480
    spec = make_spec(160, 320, modes=(80,), t_max=1.0, t_steps=2)
    cov = joint_covariance(spec)
    unit = 8 * K * K
    tracemalloc.start()
    try:
        for run in (lambda: evolve_covariance(cov, spec, 3.7),
                    lambda: mean_evolved_covariance(cov, spec, window=20.0)):
            held = tracemalloc.get_traced_memory()[0]
            record = run()
            kept = (tracemalloc.get_traced_memory()[0] - held) / unit
            assert kept <= 3.05, kept
            del record
    finally:
        tracemalloc.stop()


def test_max_offdiagonal_skips_only_the_diagonal():
    # xp has no diagonal to skip: its (1, 1) entry counts, xx's does not
    xp = np.zeros((2, 2))
    xp[0, 0] = 0.25
    cov = CovarianceMatrix(7.0 * np.eye(2), xp, 7.0 * np.eye(2))
    assert max_offdiagonal(cov) == 0.25


def test_window_check_and_kernel_work_in_fixed_memory():
    # tracemalloc peaks above the held inputs, in K x K float64 arrays at
    # K = 480: the check holds a few tiles.  One quantum leaves r = 68 < K
    # eigenpairs, so the kernel takes the factored path, whose peak, 3.01,
    # is while it factors the blocks: one sym(xx) - I/2 or sym(pp) - I/2
    # and two eigenvector matrices.  A full-rank record would take the pair
    # kernel, whose peak `test_pair_kernel_works_in_fixed_memory` bounds
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
    assert kernel_peak <= 7, kernel_peak
