import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from quenchlab import fock_oracle
from quenchlab.bogoliubov import (BogoliubovMap, ConsistencyError,
                                  build_bogoliubov, f_matrix,
                                  initial_correlations)
from quenchlab.dynamics import evolve_occupations
from quenchlab.fock_oracle import (MAX_LEAKAGE, CutoffExceeded,
                                   ExpandedState, _groups,
                                   _ladder, _ladder_rows, _merge,
                                   annihilation_residual,
                                   constraint_residual, delocalization_count,
                                   delocalization_table,
                                   expand_initial_state,
                                   expand_squeezed_vacuum, occupation_series,
                                   oracle_correlators)
from quenchlab.model import ConfigError, RunConfig, default_time_grid

from conftest import (exact_evolve, groups_bytes, ladder_norms,
                      ladder_rows_concatenate, make_spec, merge_concatenate,
                      occupation_series_per_sample, oracle_correlators_onehot,
                      random_specs)

# residuals of the truncated expansion certificates, frozen from first runs
A_RESID_20_12 = 4.736245261861336e-07
F_RESID_20_12 = 6.863479934783856e-07
SUPPORT_20_12 = 10915
A_RESID_8_12 = 0.0012741094734420564
FLOOR_8 = {(): 1.4410427455813224e-05,
           (1,): 0.0005784850631470606,
           (2, 3): 0.0009400260856354814}
CERT_14_16 = {(): 5.637375843914327e-09, (1,): 3.249968768548328e-07,
              (2, 3): 7.319341283062997e-07}
TABLE_COUNTS = {10: (695, 3180), 16: (1792, 10857), 20: (2950, 20800)}

# rounding gaps between the image matrix and the per-mode ladders: n_m(t)
# absolute (2.6e-14 measured, at n up to 3.2), residuals relative (4.4e-15)
SERIES_ROUND = 5e-14
RESIDUAL_ROUND = 1e-14

# rounding gaps of the series' quadratic form on the Gram matrix, absolute:
# against the column norms of the evolved images rebuilt at each sample
# (1.5e-14 measured here, 1.9e-14 on the six excited 2+2 pairs over
# [0, 50]), against a state evolved first (4.6e-15) and, at t = 0, against
# the form built from the four correlator blocks (8.9e-16)
FORM_ROUND = 5e-14

# truncation bounds of the oracle against the quadratic route, per unit of
# the state's leakage, on random_specs(20261020, 8, max_size=2) at order 12
# and cutoff 8: correlators 22.2 to 58.1 (30.1 to 31.5 on the six excited
# 2+2 pairs), the occupation series on [0, 50] 9.8 to 17.3
CORRELATOR_PER_LEAKAGE = 64.0
SERIES_PER_LEAKAGE = 20.0


@pytest.fixture(scope="module")
def map22(spec22):
    bog = build_bogoliubov(spec22)
    return bog, f_matrix(bog)


def _basis_state(*occ):
    """One Fock row in the oracle's array layout."""
    return ExpandedState(occupations=np.array([occ], dtype=np.int16),
                         amplitudes=np.ones(1), leakage=0.0)


def test_squeezed_vacuum_first_order():
    rng = np.random.default_rng(11)
    f = rng.uniform(-0.2, 0.2, size=(3, 3))
    f = 0.5 * (f + f.T)
    rows, amps = expand_squeezed_vacuum(f, order=1)
    assert rows.dtype == np.int16 and len(np.unique(rows, axis=0)) == len(rows)
    psi = dict(zip(map(tuple, rows.tolist()), amps))
    assert psi[(0, 0, 0)] == 1.0
    assert abs(psi[(1, 1, 0)] - (-f[0, 1])) < 1e-14
    assert abs(psi[(1, 0, 1)] - (-f[0, 2])) < 1e-14
    assert abs(psi[(2, 0, 0)] - (-f[0, 0] / np.sqrt(2.0))) < 1e-14


def test_expansion_parameter_validation(spec22, map22):
    bog, f = map22
    with pytest.raises(ValueError):
        expand_initial_state(spec22, bog, f, order=0)
    with pytest.raises(ValueError):
        expand_initial_state(spec22, bog, f, order=4, cutoff=0)


def test_ladders_refuse_rows_past_the_budget():
    # the budget follows the modes and quanta, not the support: one row of
    # two quanta on 200 modes has ladder images on comb(203, 3) rows
    occ = np.zeros((1, 200), np.int16)
    occ[0, 0] = 2
    state = ExpandedState(occ, np.ones(1), 0.0)
    with pytest.raises(CutoffExceeded, match="200 joint modes with up to 2"):
        oracle_correlators(state)
    with pytest.raises(CutoffExceeded, match="200 joint modes with up to 2"):
        annihilation_residual(state, build_bogoliubov(make_spec(100, 100)))


def test_leakage_accounting_and_refusal(map22):
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=1.0, t_steps=2)
    # cutoff 2 at order 8 would discard 0.89 of the norm, past MAX_LEAKAGE
    with pytest.raises(CutoffExceeded):
        expand_initial_state(spec, bog, f, order=8, cutoff=2)
    kept = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    assert 1e-12 < kept.leakage <= MAX_LEAKAGE
    assert abs(np.linalg.norm(kept.amplitudes) - 1.0) < 1e-12


def test_frozen_expansion_certificates(spec22, map22):
    bog, f = map22
    state = expand_initial_state(spec22, bog, f, order=12, cutoff=20)
    assert state.support_size() == SUPPORT_20_12
    assert state.leakage < 1e-12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert abs(annihilation_residual(state, bog) - A_RESID_20_12) < 1e-12
    assert abs(constraint_residual(state, f) - F_RESID_20_12) < 1e-12


def test_cutoff8_residual_frozen(spec22, map22):
    bog, f = map22
    state = expand_initial_state(spec22, bog, f, order=12, cutoff=8)
    assert abs(annihilation_residual(state, bog) - A_RESID_8_12) < 1e-12


def _correlator_gap(state, spec, bog):
    corr = initial_correlations(bog, spec.initial_state)
    oc = oracle_correlators(state)
    return float(max(np.max(np.abs(oc.cdag_c - corr.cdag_c)),
                     np.max(np.abs(oc.c_cdag - corr.c_cdag)),
                     np.max(np.abs(oc.c_c - corr.c_c)),
                     np.max(np.abs(oc.cdag_cdag - corr.cdag_cdag))))


@pytest.mark.parametrize("modes", [(), (1,), (2, 3)])
def test_cutoff8_correlator_floors_frozen(map22, modes):
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    gap = _correlator_gap(state, spec, bog)
    assert abs(gap - FLOOR_8[modes]) < 1e-12
    assert oracle_correlators(state).commutator_defect() < 5e-4


@pytest.mark.parametrize("modes", [(), (1,), (2, 3)])
def test_correlators_converge_at_higher_cutoff(map22, modes):
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=16, cutoff=14)
    gap = _correlator_gap(state, spec, bog)
    assert abs(gap - CERT_14_16[modes]) < 1e-12
    assert gap < 1e-6


def test_fock_basis_state_correlators():
    oc = oracle_correlators(_basis_state(0, 1, 1, 0))
    np.testing.assert_allclose(oc.cdag_c, np.diag([0.0, 1.0, 1.0, 0.0]),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(oc.c_c, np.zeros((4, 4)), rtol=0, atol=1e-14)
    assert oc.commutator_defect() < 1e-12


@pytest.mark.parametrize("modes", list(combinations(range(1, 5), 2)),
                         ids=str)
def test_correlators_match_onehot_reference(map22, modes):
    # the six excited pairs of the 2+2 chains at cutoff 8, order 12, as at
    # t = 0 (real amplitudes) and evolved (complex): the same bits
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    for psi in (state, exact_evolve(state, spec, 2.9)):
        got, ref = oracle_correlators(psi), oracle_correlators_onehot(psi)
        for name in ("cdag_c", "c_cdag", "c_c", "cdag_cdag"):
            assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), name


def test_exact_evolution_is_diagonal_and_unitary(spec22, map22):
    bog, f = map22
    state = expand_initial_state(spec22, bog, f, order=8, cutoff=8)
    moved = exact_evolve(state, spec22, 17.3)
    assert abs(np.linalg.norm(moved.amplitudes) - 1.0) < 1e-14
    assert moved.support_size() == state.support_size()
    assert np.array_equal(moved.occupations, state.occupations)
    assert np.max(np.abs(np.abs(moved.amplitudes)
                         - np.abs(state.amplitudes))) < 1e-14
    frozen = exact_evolve(state, spec22, 0.0)
    assert np.max(np.abs(frozen.amplitudes - state.amplitudes)) < 1e-15


def test_evolved_correlators_pick_up_mode_phases(map22):
    # exact for the stored vector at any cutoff: each ladder image of
    # psi(t) is the t = 0 image times one phase per mode
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    t = 17.3
    w = bog.omega_joint
    c0 = oracle_correlators(state)
    ct = oracle_correlators(exact_evolve(state, spec, t))
    assert np.iscomplexobj(ct.cdag_c) and np.iscomplexobj(ct.c_c)
    hop = np.exp(1j * (w[:, None] - w[None, :]) * t)
    pair = np.exp(-1j * (w[:, None] + w[None, :]) * t)
    for got, want in ((ct.cdag_c, c0.cdag_c * hop),
                      (ct.c_cdag, c0.c_cdag * np.conj(hop)),
                      (ct.c_c, c0.c_c * pair),
                      (ct.cdag_cdag, c0.cdag_cdag * np.conj(pair))):
        assert np.max(np.abs(got - want)) < 1e-12


def test_occupations_match_quadratic_dynamics_at_cutoff8(map22):
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=50.0, t_steps=26)
    corr = initial_correlations(bog, spec.initial_state)
    exact = evolve_occupations(spec, bog, corr, times=spec.time_grid).n_expect
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    approx = occupation_series(state, spec, bog, spec.time_grid)
    assert float(np.max(np.abs(approx - exact))) < 2e-3


@pytest.mark.parametrize("cutoff", [6, 8])
@pytest.mark.parametrize("modes", [(), (1,), (2, 3)])
def test_occupation_series_is_per_sample_definition(map22, modes, cutoff):
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=cutoff)
    times = np.array([0.0, 0.6, 17.3, 50.0])
    series = occupation_series(state, spec, bog, times)
    assert series.shape == (len(times), 4)
    assert np.max(np.abs(series - occupation_series_per_sample(
        state, spec, bog, times))) < FORM_ROUND
    assert np.max(np.abs(series - _per_mode_series(state, spec, bog, times))
                  ) < SERIES_ROUND


def _per_mode_series(state, spec, bog, times):
    """||a_m psi(t)||^2 with every a_m applied and merged on its own."""
    return np.array([np.square(ladder_norms(exact_evolve(state, spec, t),
                                            bog.beta, bog.alpha))
                     for t in times])


@pytest.mark.parametrize("samples", [2, 2001])
def test_occupation_series_builds_images_once(spec22, map22, monkeypatch,
                                              samples):
    images, calls = fock_oracle._images, []

    def counted(state):
        calls.append(state)
        return images(state)

    monkeypatch.setattr(fock_oracle, "_images", counted)
    series = occupation_series(_basis_state(0, 1, 1, 0), spec22, map22[0],
                               default_time_grid(50.0, samples))
    assert series.shape == (samples, 4) and len(calls) == 1


def test_occupation_series_memory_does_not_grow_with_samples(spec22, map22):
    # a small state, so the samples' work, not the Gram matrix, sets the
    # peak: per sample it is O(K^2), and the whole grid adds the (T, K)
    # output and the checked time grid (64 KiB covers 2001 samples); one
    # (T, 2K, K) complex array at T = 2001 would be 1 MB
    state = _basis_state(0, 1, 1, 0)
    peaks = []
    tracemalloc.start()
    try:
        for samples in (26, 2001):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            series = occupation_series(state, spec22, map22[0],
                                       default_time_grid(50.0, samples))
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            del series
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2001 * 4 * 8 + (64 << 10), peaks


@pytest.mark.parametrize("t0", [2.9, 17.3])
def test_series_of_evolved_state_is_shifted_series(map22, t0):
    # complex amplitudes, so the Gram matrix is complex Hermitian
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    times = np.array([0.0, 0.6, 17.3, 50.0])
    moved = exact_evolve(state, spec, t0)
    assert np.iscomplexobj(moved.amplitudes)
    gap = np.abs(occupation_series(moved, spec, bog, times)
                 - occupation_series(state, spec, bog, times + t0))
    assert np.max(gap) < FORM_ROUND


@pytest.mark.parametrize("modes", [(), (1,), (2, 3)])
def test_series_at_zero_is_form_of_correlator_blocks(map22, modes):
    # n_m(0) = u_m^T G u_m with u_m = [alpha_m; beta_m] and G assembled from
    # <c+c>, <c+c+>, <cc> and <cc+>
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    c = oracle_correlators(state)
    g = np.block([[c.cdag_c, c.cdag_cdag], [c.c_c, c.c_cdag]])
    u = np.concatenate([bog.alpha.T, bog.beta.T])
    row = occupation_series(state, spec, bog, [0.0])[0]
    assert np.max(np.abs(row - np.einsum("im,ij,jm->m", u, g, u))) < FORM_ROUND


@pytest.mark.parametrize("times", [[0.0, np.nan], [5.0, 1.0, 1.0],
                                   [0.0, np.inf], [], [[0.0, 1.0]]], ids=str)
def test_occupation_series_checks_times(spec22, map22, times):
    bog, _ = map22
    with pytest.raises(ConfigError, match="times"):
        occupation_series(_basis_state(0, 1, 1, 0), spec22, bog, times)


@pytest.mark.parametrize("size", [(1, 2), (3, 2)], ids=str)
@pytest.mark.parametrize("reader", ["annihilation", "constraint",
                                    "series map", "series spec"])
def test_readouts_refuse_other_sizes(spec22, map22, reader, size):
    state = _basis_state(0, 1, 1, 0)
    other = make_spec(*size, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(other)
    read = {"annihilation": lambda: annihilation_residual(state, bog),
            "constraint": lambda: constraint_residual(state, f_matrix(bog)),
            "series map": lambda: occupation_series(state, spec22, bog, [0.0]),
            "series spec": lambda: occupation_series(state, other, map22[0],
                                                     [0.0])}[reader]
    K = sum(size)
    with pytest.raises(ConsistencyError,
                       match=rf"size {K}( x {K})? does not fit a state of 4 "):
        read()


def test_seeded_readouts_match_per_mode_references():
    # small random quenches at the config's order and cutoff: residuals and
    # series against every ladder merged on its own, correlators bit for bit
    checked = 0
    for spec in random_specs(20261020, 8, max_size=2):
        bog = build_bogoliubov(spec)
        f = f_matrix(bog)
        try:
            state = expand_initial_state(spec, bog, f, RunConfig.order,
                                         RunConfig.cutoff)
        except CutoffExceeded as err:
            assert "discards" in str(err) or "GiB" in str(err)
            continue
        checked += 1
        for got, norms in ((annihilation_residual(state, bog),
                            ladder_norms(state, bog.beta, bog.alpha)),
                           (constraint_residual(state, f),
                            ladder_norms(state, f, np.eye(state.modes)))):
            assert abs(got - max(norms)) <= RESIDUAL_ROUND * max(norms), spec
        series = occupation_series(state, spec, bog, spec.time_grid)
        ref = _per_mode_series(state, spec, bog, spec.time_grid)
        assert np.max(np.abs(series - ref)) < SERIES_ROUND, spec
        got, ref = oracle_correlators(state), oracle_correlators_onehot(state)
        for name in ("cdag_c", "c_cdag", "c_c", "cdag_cdag"):
            assert _bits(getattr(got, name)) == _bits(getattr(ref, name)), name
    assert checked


def test_seeded_oracle_within_truncation_bound():
    # the same seeded quenches against the quadratic route: correlators and
    # the occupation series over [0, 50] within a bound per unit of leakage.
    # oracle-2x2's flat 2e-3 on the series is not such a bound: 5 of these
    # 8 specs (2 or 3 quanta in some mode) miss it, by up to 1.5e-2
    grid = default_time_grid(50.0, 26)
    for spec in random_specs(20261020, 8, max_size=2):
        bog = build_bogoliubov(spec)
        state = expand_initial_state(spec, bog, f_matrix(bog),
                                     RunConfig.order, RunConfig.cutoff)
        corr = initial_correlations(bog, spec.initial_state)
        oc = oracle_correlators(state)
        gap = max(np.max(np.abs(getattr(oc, name) - getattr(corr, name)))
                  for name in ("cdag_c", "c_cdag", "c_c", "cdag_cdag"))
        assert gap <= CORRELATOR_PER_LEAKAGE * state.leakage, spec
        exact = evolve_occupations(spec, bog, corr, times=grid).n_expect
        series = occupation_series(state, spec, bog, grid)
        assert (np.max(np.abs(series - exact))
                <= SERIES_PER_LEAKAGE * state.leakage), spec


def test_cutoff_convergence_shift(map22):
    # raising the per-mode cap 6 -> 8 moves the curves by < 5e-3
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=50.0, t_steps=26)
    n6 = occupation_series(expand_initial_state(spec, bog, f, 12, cutoff=6),
                           spec, bog, spec.time_grid)
    n8 = occupation_series(expand_initial_state(spec, bog, f, 12, cutoff=8),
                           spec, bog, spec.time_grid)
    assert float(np.max(np.abs(n8 - n6))) < 5e-3


def test_delocalization_table_frozen():
    rows = delocalization_table()
    assert [r["n_right"] for r in rows] == [10, 16, 20]
    for row in rows:
        single, pair = TABLE_COUNTS[row["n_right"]]
        assert row["single_count"] == single
        assert row["pair_count"] == pair
        assert row["pair_count"] > row["single_count"]
        assert row["floor"] == 1e-12
        assert row["order"] == 1
    singles = [r["single_count"] for r in rows]
    pairs = [r["pair_count"] for r in rows]
    assert singles == sorted(singles) and len(set(singles)) == 3
    assert pairs == sorted(pairs) and len(set(pairs)) == 3


def test_delocalization_count_behavior(spec22, map22):
    bog, f = map22
    state = expand_initial_state(spec22, bog, f, order=8, cutoff=8)
    for bad in (0.0, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match="floor"):
            delocalization_count(state, bad)
    counts = [delocalization_count(state, fl)
              for fl in (1e-12, 1e-8, 1e-4, 1e-1)]
    assert counts == sorted(counts, reverse=True)
    assert delocalization_count(state, 2.0) == 0


def test_trivial_map_stays_on_vacuum(spec22):
    K = 4
    w = np.ones(K)
    trivial = BogoliubovMap(alpha=np.eye(K), beta=np.zeros((K, K)),
                            omega_pre=w, omega_joint=w,
                            n_left=2, n_right=2, hbar=1.0)
    state = expand_initial_state(spec22, trivial, np.zeros((K, K)),
                                 order=3, cutoff=8)
    assert state.support_size() == 1
    assert delocalization_count(state, 1e-12) == 1
    assert state.occupations.tolist() == [[0, 0, 0, 0]]
    assert abs(state.amplitudes[0] - 1.0) < 1e-14


def test_annihilation_never_leaves_basis():
    unit, zero = np.eye(4), np.zeros(4)
    low = _basis_state(1, 0, 0, 0)
    rows, amps = _merge(_ladder((low.occupations, low.amplitudes), zero,
                                unit[0]))
    assert rows.tolist() == [[0, 0, 0, 0]] and amps.tolist() == [1.0]
    vac = _basis_state(0, 0, 0, 0)
    rows, amps = _merge(_ladder((vac.occupations, vac.amplitudes), zero,
                                unit[0]))
    assert rows.shape == (0, 4) and amps.shape == (0,)


# entry ranges of the random rows: the vacuum only, small occupations,
# occupations that need a second byte, small entries of either sign and the
# whole int16 range
ROW_RANGES = {"zero": (0, 1), "small": (0, 5), "wide": (0, 300),
              "signed": (-5, 5), "full": (-32768, 32768)}


def _random_rows(rng, S, K, kind, repeated):
    """(S, K) int16 rows; repeated ones are drawn from a pool of S/4."""
    low, high = ROW_RANGES[kind]
    count = max(1, S // 4) if repeated else S
    pool = rng.integers(low, high, size=(count, K), dtype=np.int16)
    if kind == "full" and count:
        pool[0, :] = low
        pool[-1, :] = high - 1
    return pool[rng.integers(0, count, size=S)] if repeated else pool


def _bits(a):
    """dtype and raw bytes, so +0.0 and -0.0 count as different."""
    return a.dtype, a.shape, a.tobytes()


def _sizes(rng, count):
    """S = 0, S = 1, then random S <= 5000, each with a random K <= 30."""
    return [(0, 3), (1, 7)] + [
        (int(rng.integers(2, 5001)), int(rng.integers(1, 31)))
        for _ in range(count)]


def test_groups_match_byte_key_reference():
    rng = np.random.default_rng(20261018)
    for kind in ROW_RANGES:
        for repeated in (False, True):
            for S, K in _sizes(rng, 6):
                occ = _random_rows(rng, S, K, kind, repeated)
                order, first = _groups(occ)
                ref_order, ref_first = groups_bytes(occ)
                case = (kind, repeated, S, K)
                assert np.array_equal(order, ref_order), case
                assert np.array_equal(first, ref_first), case


def test_merge_matches_concatenate_reference():
    rng = np.random.default_rng(1013)
    for kind in ROW_RANGES:
        for n_parts in (1, 2, 5):
            K, parts = int(rng.integers(1, 31)), []
            for S in rng.integers(0, 2001, size=n_parts).tolist():
                amp = rng.normal(size=(S, 3)) + 1j * rng.normal(size=(S, 3))
                parts.append((_random_rows(rng, S, K, kind, True), amp))
            rows, amps = _merge(*parts)
            ref_rows, ref_amps = merge_concatenate(*parts)
            assert np.array_equal(rows, ref_rows), (kind, n_parts)
            assert _bits(amps) == _bits(ref_amps), (kind, n_parts)


def test_ladder_rows_match_concatenate_reference():
    rng = np.random.default_rng(424242)
    for S, K in _sizes(rng, 10):
        occ = _random_rows(rng, S, K, "small", repeated=False)
        x, y = rng.normal(size=K), rng.normal(size=K)
        x[rng.random(K) < 0.3] = 0.0
        y[rng.random(K) < 0.3] = 0.0
        amp = rng.normal(size=S) * np.exp(1j * rng.uniform(0, 6.3, size=S))
        for cx, cy in ((x, y), (x, 0 * y), (0 * x, y), (0 * x, 0 * y)):
            rows, amplitudes = _ladder_rows(occ, cx, cy)
            ref_rows, ref_amplitudes = ladder_rows_concatenate(occ, cx, cy)
            assert rows.dtype == np.int16 and np.array_equal(rows, ref_rows)
            for a in (amp.real, amp):
                assert _bits(amplitudes(a)) == _bits(ref_amplitudes(a)), (S, K)


def test_table1_pair_lift_memory_is_bounded():
    """Allocation peaks of the ladder and the merge in table1's K = 25 pair
    lift (N = 5, M = 20, modes 3 and 4, order 1), in units of the raw ladder
    rows' bytes. Built from (modes, S, K) blocks and sorted on byte keys,
    they were 2.31 and 1.22."""
    spec = make_spec(5, 20, modes=(3, 4), t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    psi = expand_squeezed_vacuum(f_matrix(bog), order=1)
    tracemalloc.start()
    try:
        for j in (2, 3):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            raw = _ladder(psi, bog.alpha[j], bog.beta[j])
            ladder_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            psi = _merge(raw)
            merge_peak = tracemalloc.get_traced_memory()[1] - held
            assert ladder_peak <= 1.8 * raw[0].nbytes, j
            assert merge_peak <= 1.0 * raw[0].nbytes, j
            del raw
    finally:
        tracemalloc.stop()
