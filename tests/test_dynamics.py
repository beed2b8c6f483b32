import numpy as np
import pytest

from quenchlab.bogoliubov import (ConsistencyError, CorrelationSet,
                                  build_bogoliubov, f_matrix,
                                  initial_correlations, pre_quench_energy)
from quenchlab.covariance import evolve_covariance, joint_covariance
from quenchlab import dynamics
from quenchlab.dynamics import (DegenerateInitial, NumericalError,
                                ObservableSeries, evolve_occupations,
                                fluctuation_series, long_time_average,
                                _phase_kernel, per_mode_energy)
from quenchlab.fock_oracle import expand_initial_state, occupation_series

from conftest import evolve_occupations_direct, make_spec


@pytest.fixture(scope="module")
def bundle_5_10(spec_5_10):
    bog = build_bogoliubov(spec_5_10)
    corr = initial_correlations(bog, spec_5_10.initial_state)
    return spec_5_10, bog, corr


def test_kernel_matches_direct_sum(spec22):
    bog = build_bogoliubov(spec22)
    corr = initial_correlations(bog, spec22.initial_state)
    ts = np.array([0.0, 0.7, 3.1, 12.9])
    fast = evolve_occupations(spec22, bog, corr, times=ts).n_expect
    slow = evolve_occupations_direct(bog, corr, ts)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10)


def test_kernel_matches_direct_sum_excited():
    spec = make_spec(2, 3, modes=(1, 1), t_max=10.0, t_steps=6)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    ts = spec.time_grid
    fast = evolve_occupations(spec, bog, corr, times=ts).n_expect
    slow = evolve_occupations_direct(bog, corr, ts)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10)


def test_phases_ignore_hbar_and_mass():
    # every route evolves with e^{-i w' t}; at hbar != 1 a stray 1/hbar in
    # one of them shows up as an O(0.1) occupation gap
    m, hbar = 1.3, 0.7
    spec = make_spec(2, 2, modes=(2, 3), t_max=50.0, t_steps=26,
                     mass=m, hbar=hbar)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    ts = spec.time_grid
    exact = evolve_occupations(spec, bog, corr, times=ts).n_expect
    joint = joint_covariance(spec)
    o, w = bog.overlap, bog.omega_pre
    via_cov = []
    for t in ts:
        sig = evolve_covariance(joint, spec, t)
        xx = np.diagonal(o @ sig.block("xx") @ o.T)
        pp = np.diagonal(o @ sig.block("pp") @ o.T)
        via_cov.append(0.5 * (m * w * xx + pp / (m * w)) / hbar - 0.5)
    np.testing.assert_allclose(exact, via_cov, rtol=0, atol=1e-10)
    state = expand_initial_state(spec, bog, f_matrix(bog), order=12, cutoff=8)
    picks = [0, 7, 19]
    oracle = occupation_series(state, spec, bog, ts[picks])
    assert np.max(np.abs(oracle - exact[picks])) < 2e-3


def _evolved_correlators(bog, corr, t0):
    # c_k(t) = e^{-i w'_k t} c_k, written out per correlator
    w = bog.omega_joint
    diff, tot = np.subtract.outer(w, w) * t0, np.add.outer(w, w) * t0
    return CorrelationSet(cdag_c=np.exp(1j * diff) * corr.cdag_c,
                          c_cdag=np.exp(-1j * diff) * corr.c_cdag,
                          c_c=np.exp(-1j * tot) * corr.c_c,
                          cdag_cdag=np.exp(1j * tot) * corr.cdag_cdag)


def test_kernel_semigroup_on_complex_correlators():
    # correlators of an evolved state are complex Hermitian; evolving them
    # by t must equal evolving the initial ones by t0 + t
    spec = make_spec(2, 3, modes=(1, 4), t_max=10.0, t_steps=6,
                     mass=1.3, hbar=0.7)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    t0, ts = 3.7, spec.time_grid
    moved = _evolved_correlators(bog, corr, t0)
    later = evolve_occupations(spec, bog, moved, times=ts)
    whole = evolve_occupations(spec, bog, corr, times=t0 + ts)
    np.testing.assert_allclose(later.n_expect, whole.n_expect, rtol=0, atol=1e-12)
    np.testing.assert_allclose(later.n_expect,
                               evolve_occupations_direct(bog, moved, ts),
                               rtol=0, atol=1e-12)
    assert later.long_time_avg.dtype == float
    np.testing.assert_allclose(later.long_time_avg, whole.long_time_avg,
                               rtol=0, atol=1e-12)
    assert abs(later.e_total_joint - whole.e_total_joint) < 1e-12


@pytest.mark.parametrize("t0", [None, 3.7], ids=["real", "complex"])
def test_kernel_output_does_not_depend_on_chunking(monkeypatch, t0):
    # one chunk, one sample at a time, and chunks of three with a short
    # last one give the same bits, for real and complex correlators
    spec = make_spec(3, 5, modes=(2, 6), mass=1.3, omega0=0.8, hbar=0.7)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    if t0 is not None:
        corr = _evolved_correlators(bog, corr, t0)
    ts = np.linspace(0.0, 40.0, 11)
    whole = _phase_kernel(bog, corr, ts)
    alone = np.concatenate([_phase_kernel(bog, corr, [t]) for t in ts])
    assert np.array_equal(whole, alone)
    step_bytes = 8 * 8 * spec.total_size ** 2    # the budget of one sample
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 3 * step_bytes)
    assert np.array_equal(_phase_kernel(bog, corr, ts), whole)


def test_initial_occupations_match_state(bundle_5_10):
    spec, bog, corr = bundle_5_10
    series = evolve_occupations(spec, bog, corr, times=np.array([0.0]))
    np.testing.assert_allclose(series.n_expect[0],
                               spec.initial_state.as_array(),
                               rtol=0, atol=1e-8)


def test_total_joint_energy_is_pre_quench_energy(bundle_5_10):
    spec, bog, corr = bundle_5_10
    series = evolve_occupations(spec, bog, corr, times=np.array([0.0, 5.0]))
    assert abs(series.e_total_joint - pre_quench_energy(spec)) < 1e-8


def test_size_mismatch_rejected(spec22, bundle_5_10):
    _, bog, corr = bundle_5_10
    with pytest.raises(ConsistencyError):
        evolve_occupations(spec22, bog, corr, times=np.array([0.0]))


def test_imaginary_residue_raises(spec22):
    # a real but non-symmetric particle correlator cannot come from a state;
    # the co-rotating channel then leaves an O(1) imaginary part
    bog = build_bogoliubov(spec22)
    K = 4
    c1 = np.zeros((K, K))
    c1[0, 1] = 0.3
    bad = CorrelationSet(cdag_c=c1, c_cdag=c1.T + np.eye(K),
                         c_c=np.zeros((K, K)), cdag_cdag=np.zeros((K, K)))
    with pytest.raises(NumericalError):
        evolve_occupations(spec22, bog, bad, times=np.array([0.0, 1.0, 2.0]))


def test_negative_occupancy_raises(spec22):
    bog = build_bogoliubov(spec22)
    K = 4
    c1 = np.zeros((K, K))
    c1[0, 1] = c1[1, 0] = 50.0
    bad = CorrelationSet(cdag_c=c1, c_cdag=c1.T + np.eye(K),
                         c_c=np.zeros((K, K)), cdag_cdag=np.zeros((K, K)))
    with pytest.raises(NumericalError):
        evolve_occupations(spec22, bog, bad, times=np.array([0.0]))


def test_long_time_average_only_keeps_stationary_terms(bundle_5_10):
    _, bog, corr = bundle_5_10
    avg = long_time_average(bog, corr)
    expected = (bog.alpha ** 2) @ np.diagonal(corr.cdag_c) \
        + (bog.beta ** 2) @ np.diagonal(corr.c_cdag)
    np.testing.assert_allclose(avg, expected, rtol=0, atol=0)
    assert np.all(avg > 0)


def test_fluctuation_ratio_and_recurrence(bundle_5_10):
    spec, bog, corr = bundle_5_10
    ts = np.arange(0.0, 2000.0 + 0.125, 0.25)
    series = evolve_occupations(spec, bog, corr, times=ts)
    fluc = fluctuation_series(series)
    assert fluc.ratio[0] == 1.0
    assert fluc.recurrence_threshold == 0.5
    assert fluc.first_recurrence_time == 379.25


def test_recurrence_none_when_window_too_short(bundle_5_10):
    spec, bog, corr = bundle_5_10
    ts = np.arange(0.0, 100.0, 0.25)
    series = evolve_occupations(spec, bog, corr, times=ts)
    fluc = fluctuation_series(series)
    assert fluc.first_recurrence_time is None


def test_degenerate_initial_raises():
    times = np.array([0.0, 1.0, 2.0])
    flat = ObservableSeries(times=times, n_expect=np.zeros((3, 2)),
                            e_left=np.ones(3), e_right=np.full(3, 2.0),
                            e_total_joint=3.0, long_time_avg=np.zeros(2),
                            e_left_avg=1.0, e_right_avg=2.0,
                            n_left=1, n_right=1)
    with pytest.raises(DegenerateInitial):
        fluctuation_series(flat)


def beat_set(bog):
    """All |w'_l +- w'_k| values, the only frequencies that can appear
    in the spectrum of <n_m(t)>."""
    w = bog.omega_joint
    diffs = np.abs(w[:, None] - w[None, :]).ravel()
    sums = np.abs(w[:, None] + w[None, :]).ravel()
    return np.unique(np.round(np.concatenate([diffs, sums]), 12))


def test_spectral_content_lies_on_beat_set(bundle_5_10):
    spec, bog, corr = bundle_5_10
    dt = 0.25
    ts = np.arange(0.0, 2000.0 + dt / 2, dt)
    series = evolve_occupations(spec, bog, corr, times=ts)
    sig = series.n_expect[:, 2] - series.n_expect[:, 2].mean()
    freqs = 2 * np.pi * np.fft.rfftfreq(ts.size, d=dt)
    amp = np.abs(np.fft.rfft(sig))
    beats = beat_set(bog)
    for i in np.argsort(amp)[::-1][:5]:
        assert np.min(np.abs(beats - freqs[i])) < 5e-3


def test_beat_set_contents(spec22):
    bog = build_bogoliubov(spec22)
    w = bog.omega_joint
    beats = beat_set(bog)
    assert 0.0 in beats
    for l in range(4):
        for k in range(4):
            assert np.min(np.abs(beats - abs(w[l] - w[k]))) < 1e-9
            assert np.min(np.abs(beats - (w[l] + w[k]))) < 1e-9


def test_per_mode_energy_is_plain_division(bundle_5_10):
    spec, bog, corr = bundle_5_10
    series = evolve_occupations(spec, bog, corr, times=np.array([0.0, 3.0]))
    pme = per_mode_energy(series, spec)
    np.testing.assert_allclose(pme.left, series.e_left / 5, rtol=0, atol=0)
    np.testing.assert_allclose(pme.right, series.e_right / 10, rtol=0, atol=0)
    assert pme.left_avg == series.e_left_avg / 5
    assert pme.right_avg == series.e_right_avg / 10
