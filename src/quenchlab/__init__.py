"""Quench dynamics of coupled harmonic chains.

Two fixed-end chains are joined at t = 0 by a bilinear coupling; the
package builds the Bogoliubov map between the disjoint and joint normal
modes, evolves occupation numbers and energies, checks relaxation against
the generalized Gibbs ensemble, follows the phase-space covariance matrix,
and cross-checks everything against a truncated-Fock brute force at small
sizes.

Submodules are imported lazily so that the command line entry point can
configure threading environment variables before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("model", "bogoliubov", "dynamics", "gge", "covariance",
               "fock_oracle", "cli")

_EXPORTS = {
    "QuenchSpec": "model",
    "FockExcitation": "model",
    "ConfigError": "model",
    "BogoliubovMap": "bogoliubov",
    "Moments": "bogoliubov",
    "build_bogoliubov": "bogoliubov",
    "f_matrix": "bogoliubov",
    "initial_correlations": "bogoliubov",
    "evolve_occupations": "dynamics",
    "fluctuation_series": "dynamics",
    "long_time_average": "dynamics",
    "build_gge": "gge",
    "gge_expectations": "gge",
    "deviation_delta_g": "gge",
    "joint_covariance": "covariance",
    "thermal_form_check": "covariance",
    "CorrelationSet": "fock_oracle",
    "expand_initial_state": "fock_oracle",
    "oracle_correlators": "fock_oracle",
    "delocalization_count": "fock_oracle",
}

__all__ = ["__version__", *_SUBMODULES, *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
