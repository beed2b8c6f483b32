import json

import numpy as np
import pytest

from quenchlab.bogoliubov import (BogoliubovMap, build_bogoliubov,
                                  emitted_occupations, initial_correlations)
from quenchlab.dynamics import long_time_average
from quenchlab.gge import (GgeEnsemble, _nearest_odd_mode, _stripped_weights,
                           build_gge, deviation_delta_g,
                           gge_expectations, gge_summary_json,
                           lambdas_to_json, single_excitation_sweep)
from quenchlab.model import FockExcitation

from conftest import make_spec

SWEEP_DELTAS = [1.5564088854533054, 0.770828346911139,
                0.48542770480475794, 0.19833393868918056]
SWEEP_SLOPE = -0.9583806113896831
SWEEP_DENSITIES = [0.00958601309465635, 0.005764357639725776,
                   0.006008053874074065, 0.006122898782933832]
SWEEP_REL_CHANGE = 0.019115159628535553


def test_multiplier_anchors():
    ens = build_gge([1.0, 1.0 / (np.e - 1.0), 0.0])
    assert abs(ens.lambdas[0] - np.log(2.0)) < 1e-15
    assert abs(ens.lambdas[1] - 1.0) < 1e-12
    assert np.isinf(ens.lambdas[2])


def charges_from_lambdas(lambdas):
    """Invert the multiplier relation, n'_k = 1/(e^{lambda_k} - 1)."""
    lambdas = np.asarray(lambdas, dtype=float)
    return np.where(np.isinf(lambdas), 0.0, 1.0 / np.expm1(lambdas))


def test_multiplier_inversion_roundtrip():
    rng = np.random.default_rng(3)
    charges = rng.uniform(0.01, 5.0, size=12)
    ens = build_gge(charges)
    np.testing.assert_allclose(charges_from_lambdas(ens.lambdas), charges,
                               rtol=0, atol=1e-12)
    assert charges_from_lambdas([np.inf])[0] == 0.0


def test_json_safe_multipliers():
    ens = build_gge([2.0, 0.0])
    out = lambdas_to_json(ens)
    assert out[1] == "inf"
    assert isinstance(out[0], float)
    json.dumps(out)


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        build_gge([0.5, -0.1])
    with pytest.raises(ValueError):
        GgeEnsemble(charges=np.array([-1.0]), lambdas=np.array([1.0]))


@pytest.mark.parametrize("charge", [np.nan, np.inf, -np.inf])
def test_non_finite_charge_rejected(charge):
    # NaN would become the +inf "unoccupied" sentinel, inf a zero multiplier
    with pytest.raises(ValueError, match=r"finite, got \[.*\] in modes \[2\]"):
        build_gge([0.5, charge])
    with pytest.raises(ValueError, match="finite"):
        GgeEnsemble(charges=np.array([charge]), lambdas=np.array([1.0]))


@pytest.mark.parametrize("M", [10, 16, 20])
@pytest.mark.parametrize("modes", [(), (3,), (3, 4)])
def test_gge_reproduces_long_time_average(M, modes):
    spec = make_spec(5, M, modes=modes, t_max=1.0, t_steps=2)
    bog = build_bogoliubov(spec)
    state = spec.initial_state
    corr = initial_correlations(bog, state)
    ens = build_gge(emitted_occupations(bog, state))
    np.testing.assert_allclose(gge_expectations(bog, ens),
                               long_time_average(bog, corr),
                               rtol=0, atol=1e-12)


def test_vacuum_deviation_is_zero(spec_5_10):
    bog = build_bogoliubov(spec_5_10)
    rep = deviation_delta_g(bog, FockExcitation.vacuum(15))
    np.testing.assert_allclose(rep.delta_g, np.zeros(15), rtol=0, atol=0)
    assert rep.observation_mode % 2 == 1
    assert rep.vacuum_term_per_site > 0
    # the stimulated density at the mid-band mode, in the same stripped
    # convention as the vacuum density, vanishes without quanta
    n = FockExcitation.vacuum(15).as_array()
    stimulated = ((bog.alpha ** 2 + bog.beta ** 2) * _stripped_weights(bog)
                  * n[:, None])[:, _nearest_odd_mode(15, 0.5) - 1].sum()
    assert stimulated == 0.0


def test_dead_mode_raises():
    K = 3
    w = np.array([1.0, 2.0, 3.0])
    flat = BogoliubovMap(alpha=np.eye(K), beta=np.zeros((K, K)),
                         omega_pre=w, omega_joint=w,
                         n_left=1, n_right=2, hbar=1.0)
    with pytest.raises(ZeroDivisionError):
        deviation_delta_g(flat, FockExcitation.single(K, 1))


def test_sweep_frozen_values():
    result = single_excitation_sweep()
    assert result.sizes == [10, 20, 40, 80]
    np.testing.assert_allclose(result.delta_values, SWEEP_DELTAS,
                               rtol=0, atol=1e-12)
    assert abs(result.slope - SWEEP_SLOPE) < 1e-12
    np.testing.assert_allclose(result.vacuum_densities, SWEEP_DENSITIES,
                               rtol=0, atol=1e-12)
    assert abs(result.density_rel_change - SWEEP_REL_CHANGE) < 1e-12
    assert -1.15 < result.slope < -0.85
    assert result.density_rel_change < 0.05
    for gap in result.energy_gaps:
        assert gap < 1e-12


def test_summary_json_contents(spec_5_10):
    bog = build_bogoliubov(spec_5_10)
    state = spec_5_10.initial_state
    payload = json.loads(gge_summary_json(bog, state))
    assert payload["mode_indexing"] == "1-based"
    assert len(payload["charges"]) == 15
    assert len(payload["lambdas"]) == 15
    assert len(payload["delta_g"]) == 15
    corr = initial_correlations(bog, state)
    np.testing.assert_allclose(payload["gge_n"], long_time_average(bog, corr),
                               rtol=0, atol=1e-12)
