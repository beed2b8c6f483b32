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
                                   ExpandedState, _gram, _groups, _images,
                                   _ladder, _ladder_keys, _largest_norm,
                                   _merge, _pack, _pair_keys, _union,
                                   delocalization_count,
                                   delocalization_table,
                                   expand_initial_state,
                                   expand_squeezed_vacuum, occupation_series,
                                   oracle_correlators)
from quenchlab.model import ConfigError, RunConfig, default_time_grid

from conftest import (exact_evolve, gram_onehot, groups_numeric,
                      images_rows, ladder_concatenate, ladder_norms,
                      make_spec, merge_concatenate,
                      occupation_series_gram, occupation_series_per_sample,
                      pairs_concatenate, random_specs, squeezed_vacuum_rows)

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

# rounding gaps of the series, the occupation kernel on the oracle's
# moments, absolute: against the column norms of the evolved images rebuilt
# at each sample (1.5e-14 measured here, 1.9e-14 on the six excited 2+2
# pairs over [0, 50]), at t = 0 against the form built from the four
# correlator blocks (1.1e-15) and against the quadratic form of the Gram
# matrix (1.8e-15 on the seeded specs and the six pairs)
FORM_ROUND = 5e-14

# truncation bounds of the oracle against the quadratic route, per unit of
# the state's leakage, on random_specs(20261020, 8, max_size=2) at order 12
# and cutoff 8: correlators 22.2 to 58.1 (30.1 to 31.5 on the six excited
# 2+2 pairs), the occupation series on [0, 50] 9.8 to 17.3
CORRELATOR_PER_LEAKAGE = 64.0
SERIES_PER_LEAKAGE = 20.0

# the same gaps per unit of the state's dropped_occupation d, on those 8
# specs and the six excited 2+2 pairs: <c+c> 0.75 to 0.997, all four
# correlators 2.3 to 5.81, the series on [0, 50] 1.03 to 1.89; each bound
# is at least 1.1 times the largest ratio
CDAG_C_PER_DROPPED = 1.1
CORRELATOR_PER_DROPPED = 6.4
SERIES_PER_DROPPED = 2.1

# [c_l, c+_k] - delta_lk and the asymmetry of <c c> on those 8 specs:
# 2.2e-16 to 4.4e-15 and 1.5e-16 at most
COMMUTATOR_ROUND = 1e-13

# the four correlators that the oracle's `Moments` record derives against
# the Gram blocks, on those 8 specs and the six excited 2+2 pairs (4.4e-15
# measured, the commutator defect, as <cc+> is derived)
MOMENTS_ROUND = 1e-13


@pytest.fixture(scope="module")
def map22(spec22):
    bog = build_bogoliubov(spec22)
    return bog, f_matrix(bog)


def _basis_state(*occ):
    """One Fock row in the oracle's array layout."""
    return ExpandedState(occupations=np.array([occ], dtype=np.int16),
                         amplitudes=np.ones(1), leakage=0.0,
                         dropped_occupation=0.0)


def _residuals(state, bog, f):
    """max_m ||a_m psi|| for a_m = sum_k alpha_mk c_k + beta_mk c+_k and
    max_k ||(c_k + sum_l F_kl c+_l) psi||, both zero in exact arithmetic for
    the squeezed vacuum, read off one image matrix as `cli._run_oracle`
    reads them."""
    images = _images(state)
    return (_largest_norm(images, bog.alpha, bog.beta),
            _largest_norm(images, np.eye(state.modes), f))


def _gram_blocks(state):
    """<c+c>, <cc> and <cc+>, the blocks of the Gram matrix of the state's
    ladder images, read directly and not through the `Moments` record,
    which derives <cc+> from <c+c> and so holds the commutator by
    construction."""
    K = state.modes
    g = _gram(_images(state))
    return g[:K, :K], g[K:, :K], g[K:, K:]


def _commutator_defect(state):
    """max |<c_l c+_k> - <c+_k c_l> - delta_lk| over the Gram blocks."""
    cdag_c, _, c_cdag = _gram_blocks(state)
    return float(np.max(np.abs(c_cdag - cdag_c.T - np.eye(state.modes))))


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
    state = ExpandedState(occ, np.ones(1), 0.0, 0.0)
    with pytest.raises(CutoffExceeded, match="200 joint modes with up to 2"):
        oracle_correlators(state)
    with pytest.raises(CutoffExceeded, match="200 joint modes with up to 2"):
        _images(state)


@pytest.mark.parametrize("K, refused", [(150, False), (161, False),
                                        (162, True), (170, True)])
def test_budget_takes_one_block_of_the_residual_product(K, refused):
    # two quanta on K modes, as the first-order vacuum of K/2 + K/2 chains
    # reaches: the estimate holds the images and one `_BLOCK_BYTES` row
    # block of their product, so 75+75 chains fit (3.8 GiB) and the limit
    # lies between 161 and 162 modes (between 149 and 150 when the whole
    # product was budgeted); one row is checked, and nothing is allocated
    occ = np.zeros((1, K), np.int16)
    if refused:
        with pytest.raises(CutoffExceeded, match=f"{K} joint modes with up "
                                                 "to 2 quanta"):
            fock_oracle._check_size(occ, 2)
    else:
        fock_oracle._check_size(occ, 2)


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
    a_resid, f_resid = _residuals(state, bog, f)
    assert abs(a_resid - A_RESID_20_12) < 1e-12
    assert abs(f_resid - F_RESID_20_12) < 1e-12


def test_cutoff8_residual_frozen(spec22, map22):
    bog, f = map22
    state = expand_initial_state(spec22, bog, f, order=12, cutoff=8)
    assert abs(_residuals(state, bog, f)[0] - A_RESID_8_12) < 1e-12


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
    assert _commutator_defect(state) < 5e-4


@pytest.mark.parametrize("modes", [(), (1,), (2, 3)])
def test_correlators_converge_at_higher_cutoff(map22, modes):
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=16, cutoff=14)
    gap = _correlator_gap(state, spec, bog)
    assert abs(gap - CERT_14_16[modes]) < 1e-12
    assert gap < 1e-6


def test_fock_basis_state_correlators():
    state = _basis_state(0, 1, 1, 0)
    oc = oracle_correlators(state)
    np.testing.assert_allclose(oc.cdag_c, np.diag([0.0, 1.0, 1.0, 0.0]),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(oc.c_c, np.zeros((4, 4)), rtol=0, atol=1e-14)
    assert _commutator_defect(state) < 1e-12


@pytest.mark.parametrize("modes", list(combinations(range(1, 5), 2)),
                         ids=str)
def test_correlators_match_onehot_reference(map22, modes):
    # the six excited pairs of the 2+2 chains at cutoff 8, order 12, as at
    # t = 0 (real amplitudes) and evolved (complex): the same Gram bits
    bog, f = map22
    spec = make_spec(2, 2, modes=modes, t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    for psi in (state, exact_evolve(state, spec, 2.9)):
        assert _bits(_gram(_images(psi))) == _bits(gram_onehot(psi))


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
    # psi(t) is the t = 0 image times one phase per mode, so each block of
    # the evolved state's Gram matrix is the t = 0 correlator rephased
    bog, f = map22
    spec = make_spec(2, 2, modes=(2, 3), t_max=1.0, t_steps=2)
    state = expand_initial_state(spec, bog, f, order=12, cutoff=8)
    t = 17.3
    w, K = bog.omega_joint, state.modes
    c0 = oracle_correlators(state)
    g = _gram(_images(exact_evolve(state, spec, t)))
    assert np.iscomplexobj(g)
    hop = np.exp(1j * (w[:, None] - w[None, :]) * t)
    pair = np.exp(-1j * (w[:, None] + w[None, :]) * t)
    for got, want in ((g[:K, :K], c0.cdag_c * hop),
                      (g[K:, K:], c0.c_cdag * np.conj(hop)),
                      (g[K:, :K], c0.c_c * pair),
                      (g[:K, K:], c0.cdag_cdag * np.conj(pair))):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("read", ["correlators", "series"])
def test_complex_amplitudes_refused_before_images(spec22, map22, monkeypatch,
                                                  read):
    # the moments record is real: an evolved state has none, and is
    # refused before its ladder images are built
    bog, _ = map22
    moved = exact_evolve(_basis_state(0, 1, 1, 0), spec22, 2.9)

    def unreachable(state):
        raise AssertionError("ladder images built")

    monkeypatch.setattr(fock_oracle, "_images", unreachable)
    run = {"correlators": lambda: oracle_correlators(moved),
           "series": lambda: occupation_series(moved, spec22, bog, [0.0])}
    with pytest.raises(ConsistencyError, match="complex amplitudes"):
        run[read]()


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
    # a small state, so the samples' work, not the images, sets the peak:
    # the kernel's workspace is fixed (a chunk of `dynamics._SAMPLES` = 256
    # samples, full from 249 samples on), and 2000 more samples add the
    # (T, K) output, the energies and the checked time grid (64 KiB covers
    # them); one (T, 2K, K) complex array at T = 2000 would be 1 MB
    state = _basis_state(0, 1, 1, 0)
    peaks = []
    tracemalloc.start()
    try:
        for samples in (2001, 4001):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            series = occupation_series(state, spec22, map22[0],
                                       default_time_grid(50.0, samples))
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            del series
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2000 * 4 * 8 + (64 << 10), peaks


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
@pytest.mark.parametrize("reader", ["series map", "series spec"])
def test_readouts_refuse_other_sizes(spec22, map22, reader, size):
    state = _basis_state(0, 1, 1, 0)
    other = make_spec(*size, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(other)
    read = {"series map": lambda: occupation_series(state, spec22, bog, [0.0]),
            "series spec": lambda: occupation_series(state, other, map22[0],
                                                     [0.0])}[reader]
    K = sum(size)
    with pytest.raises(ConsistencyError,
                       match=rf"size {K} does not fit a state of 4 "):
        read()


def test_seeded_readouts_match_per_mode_references():
    # small random quenches at the config's order and cutoff: residuals and
    # series against every ladder merged on its own, the Gram matrix of the
    # correlators bit for bit
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
        for got, norms in zip(_residuals(state, bog, f),
                              (ladder_norms(state, bog.beta, bog.alpha),
                               ladder_norms(state, f, np.eye(state.modes)))):
            assert abs(got - max(norms)) <= RESIDUAL_ROUND * max(norms), spec
        series = occupation_series(state, spec, bog, spec.time_grid)
        ref = _per_mode_series(state, spec, bog, spec.time_grid)
        assert np.max(np.abs(series - ref)) < SERIES_ROUND, spec
        assert _bits(_gram(_images(state))) == _bits(gram_onehot(state)), spec
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


def _seeded_and_pair_states():
    """(spec, bog, state) of the 8 seeded quenches and the six excited 2+2
    pairs, at RunConfig's order and cutoff."""
    specs = random_specs(20261020, 8, max_size=2) + [
        make_spec(2, 2, modes=m, t_max=1.0, t_steps=2)
        for m in combinations(range(1, 5), 2)]
    for spec in specs:
        bog = build_bogoliubov(spec)
        yield spec, bog, expand_initial_state(spec, bog, f_matrix(bog),
                                              RunConfig.order,
                                              RunConfig.cutoff)


def test_dropped_occupation_bounds_the_truncation_gaps():
    # the occupation the projection drops states the read-outs' accuracy,
    # where the leakage understates it about tenfold
    grid = default_time_grid(50.0, 26)
    for spec, bog, state in _seeded_and_pair_states():
        d = state.dropped_occupation
        assert 0.0 < state.leakage < d, spec
        corr = initial_correlations(bog, spec.initial_state)
        oc = oracle_correlators(state)
        assert (np.max(np.abs(oc.cdag_c - corr.cdag_c))
                <= CDAG_C_PER_DROPPED * d), spec
        gap = max(np.max(np.abs(getattr(oc, name) - getattr(corr, name)))
                  for name in ("cdag_c", "c_cdag", "c_c", "cdag_cdag"))
        assert gap <= CORRELATOR_PER_DROPPED * d, spec
        exact = evolve_occupations(spec, bog, corr, times=grid).n_expect
        series = occupation_series(state, spec, bog, grid)
        assert np.max(np.abs(series - exact)) <= SERIES_PER_DROPPED * d, spec


def test_seeded_commutator_holds_for_the_stored_vector():
    # no ladder is capped, so the truncation does not break [c_l, c+_k]
    for spec, _, state in _seeded_and_pair_states():
        assert _commutator_defect(state) <= COMMUTATOR_ROUND, spec
        c_c = _gram_blocks(state)[1]
        assert np.max(np.abs(c_c - c_c.T)) <= COMMUTATOR_ROUND, spec


def test_oracle_moments_and_series_match_the_gram_matrix():
    # the record keeps <c+c> and <cc> and derives the other two: all four
    # within rounding of the Gram blocks of the states as expanded, and the
    # kernel on the record against the Gram matrix's quadratic form over
    # [0, 50]
    grid = default_time_grid(50.0, 26)
    for spec, bog, state in _seeded_and_pair_states():
        K = state.modes
        g, oc = _gram(_images(state)), oracle_correlators(state)
        for got, block in ((oc.cdag_c, g[:K, :K]), (oc.cdag_cdag, g[:K, K:]),
                           (oc.c_c, g[K:, :K]), (oc.c_cdag, g[K:, K:])):
            assert np.max(np.abs(got - block)) <= MOMENTS_ROUND, spec
        series = occupation_series(state, spec, bog, grid)
        ref = occupation_series_gram(state, spec, bog, grid)
        assert np.max(np.abs(series - ref)) < FORM_ROUND, spec


def test_dropped_occupation_of_a_projection():
    # cutoff 1 drops (0, 3) and (2, 0), each of weight 2/1000: they carry
    # 4/1000 of mode 1's occupation and 6/1000 of mode 2's
    occ = np.array([[0, 0], [1, 1], [0, 3], [2, 0]], dtype=np.int16)
    state = fock_oracle._project((occ, np.sqrt([992.0, 4.0, 2.0, 2.0])), 1)
    assert state.occupations.tolist() == [[0, 0], [1, 1]]
    assert abs(state.leakage - 4e-3) < 1e-15
    assert abs(state.dropped_occupation - 6e-3) < 1e-15
    kept = fock_oracle._project((occ, np.ones(4)), 3)
    assert kept.leakage == kept.dropped_occupation == 0.0


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
    rows, amps = _ladder((low.occupations, low.amplitudes), zero, unit[0])
    assert rows.tolist() == [[0, 0, 0, 0]] and amps.tolist() == [1.0]
    vac = _basis_state(0, 0, 0, 0)
    rows, amps = _ladder((vac.occupations, vac.amplitudes), zero, unit[0])
    assert rows.shape == (0, 4) and amps.shape == (0,)


# entry ranges of the random rows, never negative, as occupations are: the
# vacuum only, small occupations, occupations past one byte and the whole
# non-negative int16 range
ROW_RANGES = {"zero": (0, 1), "small": (0, 5), "wide": (0, 300),
              "int16": (0, 32768)}


def _random_rows(rng, S, K, kind, repeated):
    """(S, K) int16 rows; repeated ones are drawn from a pool of S/4."""
    low, high = ROW_RANGES[kind]
    count = max(1, S // 4) if repeated else S
    pool = rng.integers(low, high, size=(count, K), dtype=np.int16)
    if kind == "int16" and count:
        pool[0, :] = low
        pool[-1, :] = high - 1
    return pool[rng.integers(0, count, size=S)] if repeated else pool


def _bits(a):
    """dtype and raw bytes, so +0.0 and -0.0 count as different."""
    return a.dtype, a.shape, a.tobytes()


def _assert_same(got, ref, case):
    """Merged (rows, amplitudes) equal to the bit, rows int16."""
    assert got[0].dtype == np.int16, case
    assert np.array_equal(got[0], ref[0]), case
    assert _bits(got[1]) == _bits(ref[1]), case


def _sizes(rng, count):
    """S = 0, S = 1, then random S <= 5000, each with a random K <= 30."""
    return [(0, 3), (1, 7)] + [
        (int(rng.integers(2, 5001)), int(rng.integers(1, 31)))
        for _ in range(count)]


def test_groups_match_byte_key_reference():
    # packed keys sort rows in numeric lexicographic order, first column
    # most significant; that is the rows' byte order only while every entry
    # is below 256
    rng = np.random.default_rng(20261018)
    for kind in ROW_RANGES:
        for repeated in (False, True):
            for S, K in _sizes(rng, 6):
                occ = _random_rows(rng, S, K, kind, repeated)
                order, first = _groups(_pack(occ, 0)[0])
                ref_order, ref_first = groups_numeric(occ)
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
            _assert_same(_union(*parts), merge_concatenate(*parts),
                         (kind, n_parts))


def _coefficients(rng, K):
    """A random coefficient vector with about 30 % zeros."""
    x = rng.normal(size=K)
    x[rng.random(K) < 0.3] = 0.0
    return x


def test_ladder_rows_match_concatenate_reference():
    # the key ladder and its merge against the rows written out and merged
    rng = np.random.default_rng(424242)
    for S, K in _sizes(rng, 10):
        occ = _random_rows(rng, S, K, "small", repeated=False)
        x, y = _coefficients(rng, K), _coefficients(rng, K)
        amp = rng.normal(size=S) * np.exp(1j * rng.uniform(0, 6.3, size=S))
        for cx, cy in ((x, y), (x, 0 * y), (0 * x, y), (0 * x, 0 * y)):
            for a in (amp.real, amp):
                _assert_same(_ladder((occ, a), cx, cy),
                             merge_concatenate(ladder_concatenate((occ, a),
                                                                  cx, cy)),
                             (S, K))


# (K, radix, key words, key type): for each unsigned width the largest
# radix whose K-digit keys fit it and the next one up, radix 2^15 (the
# ladders reach the int16 top 32767) on either side of a second word, and
# K = 120 in radix 4, four words
KEY_LAYOUTS = [(2, 16, 1, np.uint8), (2, 17, 1, np.uint16),
               (3, 40, 1, np.uint16), (3, 41, 1, np.uint32),
               (5, 84, 1, np.uint32), (5, 85, 1, np.uint64),
               (7, 565, 1, np.uint64), (7, 566, 2, np.uint64),
               (1, 1 << 15, 1, np.uint16), (4, 1 << 15, 1, np.uint64),
               (5, 1 << 15, 2, np.uint64), (120, 4, 4, np.uint64)]


@pytest.mark.parametrize("quanta", [1, 2], ids=["ladder", "pairs"])
@pytest.mark.parametrize("K, radix, words, kind", KEY_LAYOUTS,
                         ids=lambda v: str(getattr(v, "__name__", v)))
def test_key_ladders_match_row_references_at_layout_edges(K, radix, words,
                                                          kind, quanta):
    # the rows' largest entry is pinned so that the keys, in radix
    # max + quanta + 1, take the given layout, and it sits in a raised
    # column, so the ladders reach radix - 1; S = 0, S = 1 and zero
    # coefficients included
    rng = np.random.default_rng([K, radix, quanta])
    top = radix - 1 - quanta
    for S in (0, 1, 3 if K > 100 else 300):
        occ = rng.integers(0, top + 1, size=(S, K), dtype=np.int16)
        occ[:1, 0] = top
        if S:
            packed = _pack(occ, quanta)[0]
            assert len(packed) == words and packed[0].dtype == kind
        amp = rng.normal(size=S) + 1j * rng.normal(size=S)
        if quanta == 1:
            x, y = _coefficients(rng, K), _coefficients(rng, K)
            x[0] = 1.0
            cases = [(x, y), (x, 0 * y), (0 * x, y), (0 * x, 0 * y)]
        else:
            xs = rng.normal(size=(K, K)) * (rng.random((K, K)) > 0.3)
            xs[0, 0], xs[-1] = 1.0, 0.0
            cases = [(xs,), (0 * xs,)]
        for coefficients in cases:
            for psi in ((occ, amp.real), (occ, amp)):
                if quanta == 1:
                    got = _ladder(psi, *coefficients)
                    ref = ladder_concatenate(psi, *coefficients)
                else:
                    got = _merge(*_pair_keys(psi, *coefficients))
                    ref = pairs_concatenate(psi, *coefficients)
                _assert_same(got, merge_concatenate(ref), (S, K, radix))


@pytest.mark.parametrize("size, modes, order", [
    ((2, 2), (2, 3), 12),   # oracle-2x2's depth, keys of one uint32 word
    ((5, 10), (3, 4), 1),   # table1's width
    ((20, 20), (3,), 1),    # the images' keys take two words
    ((1, 1), (1,), 130),    # entries past 255
], ids=str)
def test_expansion_and_images_match_row_references(size, modes, order):
    spec = make_spec(*size, modes=modes, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    f = f_matrix(bog)
    psi, ref = expand_squeezed_vacuum(f, order), squeezed_vacuum_rows(f, order)
    _assert_same(psi, ref, "series")
    psi = fock_oracle._lift(psi, spec, bog)
    for j, nj in enumerate(spec.initial_state.occupations):
        for _ in range(nj):
            ref = merge_concatenate(ladder_concatenate(ref, bog.alpha[j],
                                                       bog.beta[j]))
    _assert_same(psi, ref, "lift")
    state = fock_oracle._project(psi, 2 * order + len(modes))
    assert state.leakage == 0.0 and state.dropped_occupation == 0.0
    assert _bits(_images(state)) == _bits(images_rows(state))


def test_table1_pair_lift_memory_is_bounded():
    """Allocation peaks of the key ladder and of its merge in table1's
    K = 25 pair lift (N = 5, M = 20, modes 3 and 4, order 1), in units of
    the bytes of the raw int16 rows a row ladder writes. Rows built from
    (modes, S, K) blocks and sorted on byte keys took 2.31 and 1.22, rows
    written in place under 1.8 and 1.0; the packed keys take 0.55 and
    0.69."""
    spec = make_spec(5, 20, modes=(3, 4), t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    psi = expand_squeezed_vacuum(f_matrix(bog), order=1)
    tracemalloc.start()
    try:
        for j in (2, 3):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            raw = _ladder_keys(psi, bog.alpha[j], bog.beta[j])
            ladder_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            psi = _merge(*raw)
            merge_peak = tracemalloc.get_traced_memory()[1] - held
            row_bytes = len(raw[1]) * spec.total_size * 2
            assert ladder_peak <= 1.8 * row_bytes, j
            assert merge_peak <= 1.0 * row_bytes, j
            del raw
    finally:
        tracemalloc.stop()
