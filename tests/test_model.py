import re

import numpy as np
import pytest

from quenchlab.model import (ConfigError, FockExcitation, QuenchSpec,
                             RunConfig, default_time_grid, mode_frequencies,
                             parse_config, quench_from_config, sine_transform)

from conftest import stiffness_matrix


@pytest.mark.parametrize("K", [1, 2, 3, 5, 10, 37, 64, 100])
def test_sine_transform_orthogonal_involution(K):
    s = sine_transform(K)
    eye = np.eye(K)
    assert np.max(np.abs(s @ s - eye)) < 1e-10
    assert np.max(np.abs(s - s.T)) < 1e-14


@pytest.mark.parametrize("K", [25, 200, 960, 1920])
def test_sine_transform_entries_match_40_digits(K):
    # k l reduced mod 2(K+1) before the scaling by pi: every entry within a
    # few eps of sqrt(2/(K+1)), its scale (3.8 eps at most here, on the
    # corner entries with the largest k l and 60 seeded ones); the product
    # pi k l/(K+1) taken as is missed by up to 1.5e-14 at K = 960
    import mpmath
    mpmath.mp.dps = 40
    s = sine_transform(K)
    rng = np.random.default_rng(K)
    picks = [(K, K), (K, K - 1), (K - 1, K - 1), (K // 2 + 1, K)]
    picks += [tuple(int(x) for x in rng.integers(1, K + 1, 2))
              for _ in range(60)]
    scale = np.sqrt(2.0 / (K + 1))
    for k, l in picks:
        ref = (mpmath.sqrt(mpmath.mpf(2) / (K + 1))
               * mpmath.sin(mpmath.pi * k * l / (K + 1)))
        err = abs(float(mpmath.mpf(s[k - 1, l - 1]) - ref))
        assert err <= 8 * np.finfo(float).eps * scale, (k, l, err)


def test_mode_frequencies_closed_form():
    w = mode_frequencies(5, omega0=1.0)
    # lowest mode of a five-site chain: 2 sin(pi/12) = (sqrt6 - sqrt2)/2
    assert abs(w[0] - (np.sqrt(6.0) - np.sqrt(2.0)) / 2.0) < 1e-14
    assert np.all(np.diff(w) > 0)
    assert w[-1] < 2.0


@pytest.mark.parametrize("K", [2, 3, 7, 16])
def test_mode_frequencies_scale_with_omega0(K):
    w1 = mode_frequencies(K, omega0=1.0)
    w3 = mode_frequencies(K, omega0=3.0)
    np.testing.assert_allclose(w3, 3.0 * w1, rtol=0, atol=1e-14)


def test_stiffness_matches_frequencies():
    kmat = stiffness_matrix(9)
    evals = np.sort(np.linalg.eigvalsh(kmat))
    np.testing.assert_allclose(np.sqrt(evals), mode_frequencies(9),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("N,M", [(2, 2), (3, 5), (5, 10)])
def test_joint_hamiltonian_is_disjoint_plus_coupling(N, M):
    spec = QuenchSpec(N, M, FockExcitation.vacuum(N + M),
                      default_time_grid(1.0, 2), mass=1.3, omega0=0.7)
    # the coupling -m w0^2 q_N q_{N+1} adds exactly the two entries that
    # the disjoint block stiffness lacks
    m, w0 = spec.mass, spec.omega0
    assembled = np.zeros((N + M, N + M))
    assembled[:N, :N] = stiffness_matrix(N, m, w0)
    assembled[N:, N:] = stiffness_matrix(M, m, w0)
    assembled[N - 1, N] = assembled[N, N - 1] = -m * w0 ** 2
    full = stiffness_matrix(spec.total_size, m, w0)
    assert np.max(np.abs(assembled - full)) < 1e-12


def test_beat_frequency_two_site_anchor():
    # K=2: |w_2 - w_1| = sqrt3 - 1
    w = mode_frequencies(2)
    assert abs((w[1] - w[0]) - (np.sqrt(3.0) - 1.0)) < 1e-14


def test_default_time_grid():
    t = default_time_grid()
    assert len(t) == 2001
    assert t[0] == 0.0
    assert t[-1] == 2000.0
    assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("key,value", [
    *((k, v) for k in ("N", "M") for v in (0, 2.5)),
    *((k, v) for k in ("mass", "omega0", "hbar")
      for v in (0.0, -1.0, float("nan"), float("inf"), "x"))])
def test_chain_spec_validation(key, value):
    with pytest.raises(ConfigError):
        QuenchSpec.build(**{"N": 2, "M": 2, key: value})


def test_fock_excitation_constructors():
    vac = FockExcitation.vacuum(4)
    assert vac.total == 0
    single = FockExcitation.single(4, 3)
    assert single.occupations == (0, 0, 1, 0)
    pair = FockExcitation.from_modes(15, [3, 4])
    assert pair.total == 2
    assert pair.as_array()[2] == 1 and pair.as_array()[3] == 1
    assert FockExcitation((2.0, np.int64(1))).occupations == (2, 1)
    with pytest.raises(ConfigError):
        FockExcitation((-1, 0))
    with pytest.raises(ConfigError):
        FockExcitation.single(4, 5)


@pytest.mark.parametrize("value", [1.7, "x", np.nan, np.inf, -1.0])
def test_fock_excitation_refuses_non_integers(value):
    # named in the error, not truncated (1.7 used to become 1)
    with pytest.raises(ConfigError, match=re.escape(repr(value))):
        FockExcitation((value, 0))
    with pytest.raises(ConfigError, match=re.escape(repr(value))):
        RunConfig(occupations=(value, 0))


@pytest.mark.parametrize("key, value", [
    ("N", 5.9), ("t_steps", 100.7), ("cutoff", 8.5), ("order", "12.5")])
def test_int_keys_refuse_fractions(key, value):
    # named in the error, not truncated (N = 5.9 used to become 5), as the
    # occupations are
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        RunConfig(**{key: value})


def test_int_keys_take_integral_values():
    cfg = RunConfig(N=5.0, M="10", t_steps=np.float64(11.0),
                    cutoff=np.int64(8))
    values = (cfg.N, cfg.M, cfg.t_steps, cfg.cutoff)
    assert values == (5, 10, 11, 8)
    assert all(type(v) is int for v in values)


def test_quench_spec_validation():
    state = FockExcitation.vacuum(4)
    with pytest.raises(ConfigError):
        QuenchSpec(2, 2, state, np.array([0.5, 1.0]))
    with pytest.raises(ConfigError):
        QuenchSpec(2, 2, state, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ConfigError):
        QuenchSpec(2, 2, FockExcitation.vacuum(3), default_time_grid(1.0, 2))
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="time grid"):
            QuenchSpec(2, 2, FockExcitation((0, 1, 0, 0)), [0.0, bad])


def test_quench_spec_properties(spec_5_10):
    assert spec_5_10.n_left == 5
    assert spec_5_10.n_right == 10
    assert spec_5_10.total_size == 15


def test_parse_config_roundtrip():
    text = """
    # comment line
    N = 5
    M = 10    # trailing comment
    occupations = 0,0,1,1,0,0,0,0,0,0,0,0,0,0,0
    t_max = 100
    t_steps = 11
    """
    cfg = parse_config(text)
    assert cfg == RunConfig(N=5, M=10, occupations=(0, 0, 1, 1) + (0,) * 11,
                            t_max=100.0, t_steps=11)
    spec = quench_from_config(cfg)
    assert spec.n_left == 5 and spec.n_right == 10
    assert spec.initial_state.total == 2
    assert len(spec.time_grid) == 11
    assert spec.time_grid[-1] == 100.0


@pytest.mark.parametrize("text", [
    "N = 5\nM = 10\nN = 6",          # duplicate
    "N = 5\nM = 10\nwhat = 1",       # unknown key
    "N = 5 M = 10",                  # missing separator structure
    "M = 10",                        # missing N
    "N = five\nM = 10",              # bad integer
])
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        quench_from_config(parse_config(text))

