"""Quench dynamics of coupled harmonic chains.

Two fixed-end chains are joined at t = 0 by a bilinear coupling; the
package builds the Bogoliubov map between the disjoint and joint normal
modes, evolves occupation numbers and energies, checks relaxation against
the generalized Gibbs ensemble, follows the phase-space covariance matrix,
and cross-checks everything against a truncated-Fock brute force at small
sizes.

The command line runner is `quenchlab.cli`; it is not imported here.
"""

__version__ = "0.1.0"

from .model import ConfigError, FockExcitation, QuenchSpec
from .bogoliubov import (BogoliubovMap, Moments, build_bogoliubov, f_matrix,
                         initial_correlations)
from .dynamics import evolve_occupations, fluctuation_series, long_time_average
from .gge import build_gge, deviation_delta_g, gge_expectations
from .covariance import joint_covariance, thermal_form_check
from .fock_oracle import (delocalization_count, expand_initial_state,
                          oracle_correlators)
