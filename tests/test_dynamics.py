import tracemalloc

import numpy as np
import pytest

from quenchlab.bogoliubov import (IMAG_TOL, SYMPLECTIC_TOL, ConsistencyError,
                                  Moments, build_bogoliubov,
                                  emitted_occupations, f_matrix,
                                  initial_correlations, pre_quench_energy)
from quenchlab.covariance import joint_covariance
from quenchlab import dynamics
from quenchlab.dynamics import (DegenerateInitial, NumericalError,
                                ObservableSeries, evolve_occupations,
                                fluctuation_series, long_time_average,
                                _phase_kernel)
from quenchlab.fock_oracle import expand_initial_state, occupation_series
from quenchlab.gge import build_gge, gge_expectations
from quenchlab.model import ConfigError

from conftest import (evolve_covariance, evolve_occupations_direct,
                      make_spec, map_factors, occupations_closed_form,
                      random_specs, symplectic_eigenvalues)


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
    o, w = map_factors(spec)[0], bog.omega_pre
    via_cov = []
    for t in ts:
        sig = evolve_covariance(joint, spec, t)
        xx = np.diagonal(o @ sig.xx @ o.T)
        pp = np.diagonal(o @ sig.pp @ o.T)
        via_cov.append(0.5 * (m * w * xx + pp / (m * w)) / hbar - 0.5)
    np.testing.assert_allclose(exact, via_cov, rtol=0, atol=1e-10)
    state = expand_initial_state(spec, bog, f_matrix(bog), order=12, cutoff=8)
    picks = [0, 7, 19]
    oracle = occupation_series(state, spec, bog, ts[picks])
    assert np.max(np.abs(oracle - exact[picks])) < 2e-3


RANDOM_SPECS = random_specs(20261019, 8)


@pytest.mark.parametrize("spec", RANDOM_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_kernel_matches_closed_form_on_random_specs(spec):
    # the kernel against the U/V closed form, which shares no step with it
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    ts = spec.time_grid
    got = evolve_occupations(spec, bog, corr, times=ts).n_expect
    ref = occupations_closed_form(bog, spec.initial_state.as_array(), ts)
    scale = np.max(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("spec", RANDOM_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_invariants_on_random_specs(spec):
    # the map is symplectic, the GGE is the long-time average, the kernel
    # starts at the Fock occupations, the joint energy is the pre-quench
    # one, and the joint covariance keeps the Williamson spectrum n + 1/2
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    n = spec.initial_state.as_array()
    assert bog.symplectic_defect() <= SYMPLECTIC_TOL
    gge = gge_expectations(bog, build_gge(emitted_occupations(
        bog, spec.initial_state)))
    assert np.max(np.abs(gge - long_time_average(bog, corr))) <= 1e-12
    series = evolve_occupations(spec, bog, corr, times=[0.0])
    assert np.max(np.abs(series.n_expect[0] - n)) <= 1e-8
    e0 = pre_quench_energy(spec)
    assert abs(series.e_total_joint - e0) <= 1e-10 * abs(e0)
    nu = symplectic_eigenvalues(joint_covariance(spec), spec.hbar)
    assert np.max(np.abs(np.sort(nu) - np.sort(n + 0.5))) <= 1e-8


def test_kernel_output_does_not_depend_on_chunking(monkeypatch):
    # one chunk, one sample at a time, and chunks of a set size with a
    # short last one give the same bits, on the pair path (3+5, r >= K:
    # chunks of 16 samples, three and a last one of 5, padded to 8) and on
    # the factored one (24+36, r < K: chunks of three, from its byte budget)
    for spec, factored in (
            (make_spec(3, 5, modes=(2, 6), mass=1.3, omega0=0.8, hbar=0.7,
                       t_max=40.0, t_steps=3 * 16 + 5), False),
            (make_spec(24, 36, modes=(5, 40), mass=1.3, omega0=0.8,
                       hbar=0.7, t_max=40.0, t_steps=11), True)):
        bog = build_bogoliubov(spec)
        corr = initial_correlations(bog, spec.initial_state)
        K, ts = spec.total_size, spec.time_grid
        r = dynamics._factors(corr)[0].size
        assert (r < K) == factored, r
        whole = _phase_kernel(bog, corr, ts)
        alone = np.concatenate([_phase_kernel(bog, corr, [t]) for t in ts])
        assert np.array_equal(whole, alone)
        with monkeypatch.context() as patch:
            if factored:
                patch.setattr(dynamics, "_CHUNK_BYTES",
                              3 * 8 * (2 * r * K + 4 * K))
            else:
                assert ts.size < dynamics._SAMPLES
                patch.setattr(dynamics, "_SAMPLES", 16)
            assert np.array_equal(_phase_kernel(bog, corr, ts), whole)


def few_quanta_specs(seed, count):
    """Seeded QuenchSpecs of 60 to 200 modes with one or two quanta, the
    first one the vacuum, mass, omega0 and hbar drawn from [0.5, 2] and 9
    samples over [0, t_max]: records whose departure from the joint vacuum
    has rank r < K."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        K = int(rng.integers(60, 201))
        N = int(rng.integers(K // 4, 3 * K // 4 + 1))
        modes = rng.choice(K, int(rng.integers(1, 3)) if i else 0,
                           replace=False)
        mass, omega0, hbar = rng.uniform(0.5, 2.0, size=3)
        specs.append(make_spec(N, K - N, modes=tuple(int(m) + 1 for m in modes),
                               t_max=float(rng.uniform(50.0, 2000.0)),
                               t_steps=9, mass=float(mass),
                               omega0=float(omega0), hbar=float(hbar)))
    return specs


FEW_QUANTA_SPECS = few_quanta_specs(20261020, 6)


@pytest.mark.parametrize("spec", FEW_QUANTA_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_factored_kernel_matches_pair_kernel_and_closed_form(spec):
    # both paths on one record, the pair kernel being valid at any rank:
    # they differ by at most 3.0e-15 * scale on these specs, and each is
    # within 3.2e-15 * scale of the U/V closed form
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    factors = dynamics._factors(corr)
    assert factors[0].size < spec.total_size
    ts = spec.time_grid
    got = _phase_kernel(bog, corr, ts)
    assert np.array_equal(got, dynamics._factored_kernel(bog, factors, ts))
    pair = dynamics._pair_kernel(bog, corr, ts)
    ref = occupations_closed_form(bog, spec.initial_state.as_array(), ts)
    scale = np.max(ref)
    assert np.max(np.abs(got - pair)) <= 1e-13 * scale
    for n_t in (got, pair):
        assert np.max(np.abs(n_t - ref)) <= 1e-12 * scale


FULL_RANK_SPECS = (
    [make_spec(5, M, modes=(3, 4)) for M in (10, 16, 20)]      # fig1
    + [make_spec(2, 2, modes=(2, 3), t_max=50.0, t_steps=26),  # the oracle's
       make_spec(3, 3, modes=(2, 3))]
    + random_specs(20261032, 8))


@pytest.mark.parametrize("spec", FULL_RANK_SPECS,
                         ids=lambda s: f"{s.n_left}+{s.n_right}")
def test_pair_kernel_matches_closed_form(spec):
    # records whose departure from the joint vacuum has full rank r >= K
    # take the pair kernel: fig1's three configs, the oracle's 2+2 and 3+3
    # sizes and seeded specs up to K = 77 with mass, omega0 and hbar in
    # [0.5, 2]; the gap to the U/V closed form is at most 1.2e-15 * scale
    # on fig1 and 2.1e-15 * scale in all
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    assert dynamics._factors(corr)[0].size >= spec.total_size
    ts = spec.time_grid
    n_t = _phase_kernel(bog, corr, ts)
    assert n_t.shape == (ts.size, spec.total_size)
    rows = np.unique(np.linspace(0, ts.size - 1, 9).astype(int))
    ref = occupations_closed_form(bog, spec.initial_state.as_array(), ts[rows])
    scale = np.max(ref)
    assert np.max(np.abs(n_t[rows] - ref)) <= 1e-12 * scale


def test_pair_kernel_works_in_fixed_memory():
    # tracemalloc peak above the held inputs, less the (T, K) output, in
    # K x K float64 arrays, on 40+80 chains with every mode occupied
    # (r = 2K): 16.7 at both grid lengths.  The rank test's eigenvectors
    # are dropped before the pair kernel runs, which holds A^T and B^T (2),
    # the pair weights (1), one 3 x 64 x K coefficient slice (1.6), a chunk
    # of 256 samples at 8 (4K + 128) bytes each (10.8) and numpy's iterator
    # buffers for its broadcast products (at most 8192 values each)
    N, M = 40, 80
    K = N + M
    unit = 8 * K * K
    specs = [make_spec(N, M, modes=tuple(range(1, K + 1)), t_steps=samples)
             for samples in (9, 301, 601)]
    peaks = []
    tracemalloc.start()
    try:
        for spec in specs:
            bog = build_bogoliubov(spec)
            corr = initial_correlations(bog, spec.initial_state)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            n_t = _phase_kernel(bog, corr, spec.time_grid)
            peak = tracemalloc.get_traced_memory()[1] - held
            peaks.append((peak - n_t.nbytes) / unit)
            del n_t
    finally:
        tracemalloc.stop()
    _, short, long = peaks       # the first call warms numpy's caches
    assert abs(long - short) <= 0.01, peaks
    assert max(short, long) <= 17.5, peaks


def test_joint_vacuum_is_stationary():
    # xx = pp = I/2 leaves no eigenpair (r = 0): every sample reads the
    # constant sum_k (A_mk^2 + B_mk^2)/4 - 1/2, the long-time average
    # sum_k beta_mk^2.  Taking 1/2 from sums of order 1 leaves an absolute
    # gap, 5.9e-15 at most here
    spec = FEW_QUANTA_SPECS[1]
    bog = build_bogoliubov(spec)
    K = spec.total_size
    corr = Moments(xx=0.5 * np.eye(K), pp=0.5 * np.eye(K))
    assert dynamics._factors(corr)[0].size == 0
    n_t = _phase_kernel(bog, corr, spec.time_grid)
    assert np.all(n_t == n_t[0])
    avg = long_time_average(bog, corr)
    assert np.max(np.abs(n_t[0] - avg)) <= 1e-13


def test_asymmetric_record_reads_as_its_symmetric_part():
    # Moments accepts an asymmetry up to IMAG_TOL; the factored path reads
    # sym(xx) and sym(pp), never one triangle of the blocks
    spec = FEW_QUANTA_SPECS[2]
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    K = spec.total_size
    skew = np.random.default_rng(7).standard_normal((K, K))
    skew -= skew.T
    skew *= 0.4 * IMAG_TOL / np.max(np.abs(skew))
    tilted = Moments(xx=corr.xx + skew, pp=corr.pp - skew)
    sym = Moments(xx=0.5 * (tilted.xx + tilted.xx.T),
                  pp=0.5 * (tilted.pp + tilted.pp.T))
    assert dynamics._factors(tilted)[0].size < K
    ts = spec.time_grid
    assert np.array_equal(_phase_kernel(bog, tilted, ts),
                          _phase_kernel(bog, sym, ts))


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


def test_record_of_another_size_rejected(spec22, bundle_5_10):
    # a 2+2 state's moments on the 5+10 map, named by their sizes
    spec, bog, _ = bundle_5_10
    corr = initial_correlations(build_bogoliubov(spec22), spec22.initial_state)
    with pytest.raises(ConsistencyError, match="4 modes .* map of 15"):
        evolve_occupations(spec, bog, corr, times=np.array([0.0]))


def test_imaginary_residue_raises(spec22):
    # a real but non-symmetric xx block cannot come from a state; the
    # kernel would leave an O(1) imaginary part in <n_m(t)>
    corr = initial_correlations(build_bogoliubov(spec22), spec22.initial_state)
    xx = corr.xx.copy()
    xx[0, 1] += 0.3
    with pytest.raises(NumericalError):
        Moments(xx=xx, pp=corr.pp)


def test_negative_occupancy_raises(spec22):
    # diag(xx + pp) < 1 is a negative joint occupancy; a record that passes
    # it but is not positive gives negative pre-quench occupancies, which
    # the kernel's output check refuses
    bog = build_bogoliubov(spec22)
    K = 4
    with pytest.raises(ConsistencyError):
        Moments(xx=0.45 * np.eye(K), pp=0.45 * np.eye(K))
    bad = np.eye(K)
    bad[0, 1] = bad[1, 0] = 50.0
    with pytest.raises(NumericalError):
        evolve_occupations(spec22, bog, Moments(xx=bad, pp=bad),
                           times=np.array([0.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_time_raises(spec22, bad):
    # cos(w t) is nan at t = inf or nan (numpy warns on inf); the grid
    # check refuses such a time before the kernel sees it
    bog = build_bogoliubov(spec22)
    corr = initial_correlations(bog, spec22.initial_state)
    with pytest.raises(ConfigError, match="times must be finite"):
        evolve_occupations(spec22, bog, corr, times=[0.0, bad])


@pytest.mark.parametrize("times, message", [
    ([5.0, 3.0, 1.0], "times must be strictly increasing"),
    ([1.0, 2.0, 3.0], "times must be 1-d and start at t = 0")],
    ids=["decreasing", "not-from-zero"])
def test_recurrence_grid_refused(times, message):
    # the ratio is normalized by the first sample, which it takes as t = 0,
    # so [5, 3, 1] would report a first recurrence at t = 5.0.  A grid that
    # does not start at 0 still evolves, but has no fluctuation series
    spec = make_spec(2, 2, modes=(2, 3), t_max=50.0, t_steps=51)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    with pytest.raises(ConfigError, match=message):
        series = evolve_occupations(spec, bog, corr, times=times)
        fluctuation_series(series, relaxation_skip=0.0)


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


@pytest.mark.parametrize("name, value", [
    ("threshold", np.nan), ("threshold", 0.0), ("threshold", np.inf),
    ("relaxation_skip", np.nan), ("relaxation_skip", -1.0),
    ("relaxation_skip", np.inf)])
def test_fluctuation_bounds_refused(bundle_5_10, name, value):
    # RunConfig's bounds; a nan threshold used to find no recurrence
    spec, bog, corr = bundle_5_10
    series = evolve_occupations(spec, bog, corr, times=np.array([0.0, 3.0]))
    with pytest.raises(ValueError, match=name):
        fluctuation_series(series, **{name: value})


def test_degenerate_initial_raises():
    times = np.array([0.0, 1.0, 2.0])
    flat = ObservableSeries(times=times, n_expect=np.zeros((3, 2)),
                            e_left=np.ones(3), e_right=np.full(3, 2.0),
                            e_total_joint=3.0, long_time_avg=np.zeros(2),
                            e_left_avg=1.0, e_right_avg=2.0)
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
