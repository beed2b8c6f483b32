"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Tolerances here are contractual; do not loosen them to make a
failing criterion pass.
"""

import numpy as np
import pytest

from quenchlab.bogoliubov import (build_bogoliubov, emitted_occupations,
                                  f_matrix, initial_correlations)
from quenchlab.covariance import joint_covariance, thermal_form_check
from quenchlab.dynamics import (evolve_occupations, fluctuation_series,
                                long_time_average)
from quenchlab.fock_oracle import (delocalization_table, expand_initial_state,
                                   occupation_series, oracle_correlators)
from quenchlab.gge import (build_gge, gge_expectations,
                           single_excitation_sweep)

from conftest import (disjoint_covariance, evolve_covariance, make_spec,
                      occupations_from_covariance, symplectic_eigenvalues)


def test_criterion_1_symplectic_identities_all_sizes():
    worst = 0.0
    for N in range(1, 31):
        for M in range(1, 31):
            bog = build_bogoliubov(make_spec(N, M, t_max=1.0, t_steps=2))
            worst = max(worst, bog.symplectic_defect())
    assert worst < 1e-10, f"worst symplectic defect {worst:.3e}"


def test_criterion_2_gge_equals_long_time_average():
    worst = 0.0
    for M in (10, 16, 20):
        K = 5 + M
        states = [()] + [(i,) for i in range(1, K + 1)] + [(3, 4)]
        bog = build_bogoliubov(make_spec(5, M, t_max=1.0, t_steps=2))
        for modes in states:
            spec = make_spec(5, M, modes=modes, t_max=1.0, t_steps=2)
            corr = initial_correlations(bog, spec.initial_state)
            ens = build_gge(emitted_occupations(bog, spec.initial_state))
            gap = np.max(np.abs(gge_expectations(bog, ens)
                                - long_time_average(bog, corr)))
            worst = max(worst, float(gap))
    assert worst < 1e-12, f"worst GGE gap {worst:.3e}"


def test_criterion_3_finite_time_mean_approaches_average():
    spec = make_spec(5, 10, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    corr = initial_correlations(bog, spec.initial_state)
    avg = long_time_average(bog, corr)
    horizons = (500.0, 1000.0, 2000.0, 5000.0)
    resid = []
    for T in horizons:
        ts = np.arange(0.0, T + 0.25, 0.5)
        series = evolve_occupations(spec, bog, corr, times=ts)
        time_mean = series.n_expect.mean(axis=0)
        resid.append(float(np.max(np.abs(time_mean - avg))))
    bound = resid[0] * horizons[0] * 3.0
    for T, r in zip(horizons[1:], resid[1:]):
        assert r <= bound / T, f"residual {r:.3e} at T={T} breaks the 1/T bound"
    rel = resid[-1] / float(np.mean(avg))
    assert rel < 0.02, f"T=5000 residual is {rel:.3%} of the average"


@pytest.mark.parametrize("modes", [(), (1,), (2, 3)],
                         ids=["vacuum", "single", "pair"])
def test_criterion_4a_truncated_oracle_matches_occupations(modes):
    spec = make_spec(2, 2, modes=modes, t_max=50.0, t_steps=26)
    bog = build_bogoliubov(spec)
    f = f_matrix(bog)
    corr = initial_correlations(bog, spec.initial_state)
    exact = evolve_occupations(spec, bog, corr, times=spec.time_grid).n_expect
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    approx = occupation_series(state, spec, bog, spec.time_grid)
    err = float(np.max(np.abs(approx - exact)))
    assert err < 2e-3, f"occupation mismatch {err:.3e} for state {modes}"


def test_criterion_4b_truncated_oracle_matches_correlators():
    spec0 = make_spec(2, 2, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec0)
    f = f_matrix(bog)
    # 1e-6 holds from cutoff 14; the cutoff-8 floors are frozen in FLOOR_8
    # (test_fock_oracle.py::test_cutoff8_correlator_floors_frozen).
    cutoff = 14
    gaps = {}
    for modes in [(), (1,), (2, 3)]:
        spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
        state = expand_initial_state(spec, bog, f, order=12, cutoff=cutoff)
        corr = initial_correlations(bog, spec.initial_state)
        oc = oracle_correlators(state)
        gaps[modes or "vacuum"] = (float(
            max(np.max(np.abs(oc.cdag_c - corr.cdag_c)),
                np.max(np.abs(oc.c_cdag - corr.c_cdag)),
                np.max(np.abs(oc.c_c - corr.c_c)),
                np.max(np.abs(oc.cdag_cdag - corr.cdag_cdag)))),
            state.leakage)
    worst = max(gap for gap, _ in gaps.values())
    assert worst < 1e-6, (
        f"correlator gap {worst:.3e} at cutoff {cutoff}; per state "
        "(gap, leakage): "
        + ", ".join(f"{k}: ({g:.3e}, {lk:.3e})"
                    for k, (g, lk) in gaps.items()))


def test_criterion_5_conserved_quantities():
    spec = make_spec(5, 10, modes=(3, 4), t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    joint = joint_covariance(spec)
    n0 = occupations_from_covariance(joint, spec)
    e0 = float(np.sum(bog.omega_joint * (n0 + 0.5)))
    drift = e_drift = 0.0
    for t in np.linspace(0.0, 2000.0, 41):
        nt = occupations_from_covariance(evolve_covariance(joint, spec, t), spec)
        drift = max(drift, float(np.max(np.abs(nt - n0))))
        e_drift = max(e_drift, abs(float(np.sum(bog.omega_joint * (nt + 0.5))) - e0))
    assert drift < 1e-12, f"joint occupancy drift {drift:.3e}"
    assert e_drift < 1e-10, f"joint energy drift {e_drift:.3e}"
    for modes in [(), (3,), (3, 4)]:
        sp = make_spec(5, 10, modes=modes, t_max=1.0, t_steps=2)
        corr = initial_correlations(bog, sp.initial_state)
        series = evolve_occupations(sp, bog, corr, times=np.array([0.0]))
        gap = float(np.max(np.abs(series.n_expect[0]
                                  - sp.initial_state.as_array())))
        assert gap < 1e-8, f"t=0 occupations off by {gap:.3e} for {modes}"


def test_criterion_6_window_average_reaches_diagonal_form():
    spec = make_spec(5, 10, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    cov0 = disjoint_covariance(spec)
    nu0 = symplectic_eigenvalues(cov0)
    joint = joint_covariance(spec)
    for cov in (joint, evolve_covariance(joint, spec, 37.0),
                evolve_covariance(joint, spec, 911.0)):
        gap = np.max(np.abs(symplectic_eigenvalues(cov) - nu0))
        assert gap < 1e-8, f"symplectic spectrum moved by {gap:.3e}"
    slope = thermal_form_check(joint, spec).decay_slope
    assert -1.2 < slope < -0.8, f"off-diagonal decay slope {slope:.3f}"
    occ = occupations_from_covariance(joint, spec)
    vac_gap = float(np.max(np.abs(occ - (bog.beta ** 2).sum(axis=0))))
    assert vac_gap < 1e-8, f"vacuum occupancy gap {vac_gap:.3e}"


def test_criterion_7_deviation_scaling_with_size():
    result = single_excitation_sweep()
    assert result.sizes == [10, 20, 40, 80]
    assert -1.15 < result.slope < -0.85, f"slope {result.slope:.3f}"
    assert result.density_rel_change < 0.05, (
        f"vacuum density moved {result.density_rel_change:.2%} "
        "over the top octave")


def test_criterion_8_delocalization_counts():
    rows = delocalization_table()
    singles = [r["single_count"] for r in rows]
    pairs = [r["pair_count"] for r in rows]
    assert all(b > a for a, b in zip(singles, singles[1:])), singles
    assert all(b > a for a, b in zip(pairs, pairs[1:])), pairs
    for r in rows:
        assert r["pair_count"] > r["single_count"], r
    counts = singles + pairs
    assert min(counts) >= 1e2, counts
    assert max(counts) >= 1e4, counts
    assert max(counts) < 1e5, counts


def test_criterion_9_recurrence_time_grows_with_bath():
    times = []
    for M in (10, 16, 20):
        spec = make_spec(5, M, modes=(3, 4))
        bog = build_bogoliubov(spec)
        corr = initial_correlations(bog, spec.initial_state)
        series = evolve_occupations(spec, bog, corr)
        fluc = fluctuation_series(series, threshold=0.5, relaxation_skip=50.0)
        assert fluc.first_recurrence_time is not None, f"no recurrence, M={M}"
        times.append(fluc.first_recurrence_time)
    assert times == sorted(times), times
    assert times == [380.0, 777.0, 1059.0], times
