import numpy as np
import pytest

from quenchlab.bogoliubov import (BogoliubovMap, build_bogoliubov, f_matrix,
                                  initial_correlations)
from quenchlab.dynamics import evolve_occupations
from quenchlab.fock_oracle import (CutoffExceeded, ExpandedState, _ladder,
                                   _merge, annihilation_residual,
                                   constraint_residual, delocalization_count,
                                   delocalization_table, exact_evolve,
                                   expand_initial_state,
                                   expand_squeezed_vacuum, occupation_series,
                                   oracle_correlators)

from conftest import make_spec, occupation_series_per_sample

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


def test_leakage_accounting_and_refusal(map22):
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=1.0, t_steps=2)
    with pytest.raises(CutoffExceeded):
        expand_initial_state(spec, bog, f, order=8, cutoff=2,
                             max_leakage=1e-12)
    loose = expand_initial_state(spec, bog, f, order=8, cutoff=2,
                                 max_leakage=1.0)
    assert loose.leakage > 1e-12
    assert abs(np.linalg.norm(loose.amplitudes) - 1.0) < 1e-12


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
    assert np.array_equal(series, occupation_series_per_sample(
        state, spec, bog, times))


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
    with pytest.raises(ValueError):
        delocalization_count(state, 0.0)
    counts = [delocalization_count(state, fl)
              for fl in (1e-12, 1e-8, 1e-4, 1e-1)]
    assert counts == sorted(counts, reverse=True)
    assert delocalization_count(state, 2.0) == 0


def test_trivial_map_stays_on_vacuum(spec22):
    K = 4
    w = np.ones(K)
    trivial = BogoliubovMap(alpha=np.eye(K), beta=np.zeros((K, K)),
                            gamma=np.zeros((K, K)), overlap=np.eye(K),
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
