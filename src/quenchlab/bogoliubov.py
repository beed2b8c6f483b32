"""Bogoliubov map between pre-quench and post-quench mode operators.

Conventions, fixed once and used everywhere downstream:

    c_k = sum_l  alpha[l, k] a_l - beta[l, k] a_l^dag
    a_l = sum_k  alpha[l, k] c_k + beta[l, k] c_k^dag

so the row index always runs over pre-quench (disjoint) modes and the
column index over post-quench (joint) modes.  Both matrices are real.
The orientation was locked by certifying the resulting correlators
against the truncated-Fock oracle, not by notation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (QuenchSpec, FockExcitation, disjoint_frequencies,
                    disjoint_transform, mode_frequencies, sine_transform)

# Bounds on the map; the command line records them in its run manifest.
SYMPLECTIC_TOL = 1e-10      # bound on BogoliubovMap.symplectic_defect()
COND_LIMIT = 1e12           # cond(alpha) above which F = alpha^{-1} beta is refused


class SingularAlpha(np.linalg.LinAlgError):
    """alpha is numerically singular; the quench configuration is degenerate."""


class ConsistencyError(ValueError):
    """Inputs violate an algebraic invariant they were assumed to satisfy."""


@dataclass(frozen=True)
class BogoliubovMap:
    """alpha/beta coefficients plus the ingredients they were built from."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    overlap: np.ndarray
    omega_pre: np.ndarray       # disjoint-mode frequencies, left block then right
    omega_joint: np.ndarray
    n_left: int
    n_right: int
    hbar: float

    @property
    def total_size(self):
        return self.n_left + self.n_right

    def symplectic_defect(self):
        """Max violation of the bosonic commutation constraints, both orientations.

        a b^T - b a^T is X - X^T for X = a b^T, and a^T b - b^T a is Y - Y^T
        for Y = a^T b, so each is one product.
        """
        a, b = self.alpha, self.beta
        eye = np.eye(self.total_size)

        def skew(x):
            d = x - x.T
            return np.max(np.abs(d, out=d))

        return max(
            np.max(np.abs(a @ a.T - b @ b.T - eye)),
            skew(a @ b.T),
            np.max(np.abs(a.T @ a - b.T @ b - eye)),
            skew(a.T @ b),
        )


@dataclass(frozen=True)
class CorrelationSet:
    """The four quadratic correlators of the joint-mode operators at t = 0."""

    cdag_c: np.ndarray
    c_cdag: np.ndarray
    c_c: np.ndarray
    cdag_cdag: np.ndarray

    def commutator_defect(self):
        eye = np.eye(self.cdag_c.shape[0])
        return float(np.max(np.abs(self.c_cdag - self.cdag_c.T - eye)))

    def validate(self):
        if self.commutator_defect() > 1e-8:
            raise ConsistencyError(
                f"correlator commutator defect {self.commutator_defect():.3e} > 1e-08")
        if np.min(np.diagonal(self.cdag_c)) < -1e-8:
            raise ConsistencyError("negative occupancy on cdag_c diagonal")


def build_bogoliubov(spec: QuenchSpec) -> BogoliubovMap:
    """Construct the Bogoliubov map for the given quench.

    The overlap matrix is the product of the block-diagonal disjoint sine
    transform with the joint sine transform, which evaluates the double
    sine sums as one dense matrix product.
    """
    K = spec.total_size
    omega_pre = disjoint_frequencies(spec)
    omega_joint = mode_frequencies(K, spec.omega0)
    joint = sine_transform(K)
    overlap = disjoint_transform(spec) @ joint
    gamma = 0.5 * np.log(omega_pre[:, None] / omega_joint[None, :])
    return BogoliubovMap(
        alpha=overlap * np.cosh(gamma),
        beta=overlap * np.sinh(gamma),
        gamma=gamma,
        overlap=overlap,
        omega_pre=omega_pre,
        omega_joint=omega_joint,
        n_left=spec.n_left,
        n_right=spec.n_right,
        hbar=spec.hbar,
    )


def f_matrix(bog: BogoliubovMap) -> np.ndarray:
    """Solve alpha F = beta for the symmetric matrix of the Gaussian vacuum
    relation (c_k + sum_l F_kl c+_l)|vac> = 0."""
    cond = np.linalg.cond(bog.alpha)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularAlpha(f"cond(alpha) = {cond:.3e} exceeds {COND_LIMIT:g}")
    f = np.linalg.solve(bog.alpha, bog.beta)
    defect = np.max(np.abs(f - f.T))
    if defect > 1e-8:
        raise ConsistencyError(f"F symmetry defect {defect:.3e} > 1e-08")
    return f


def initial_correlations(bog: BogoliubovMap, state: FockExcitation) -> CorrelationSet:
    """Correlators of the joint-mode operators in a disjoint-mode Fock state.

    Obtained from the inverse map c_k = sum_l alpha[l,k] a_l - beta[l,k] a_l^dag
    with <a^dag a> = diag(n), <a a^dag> = diag(n+1) and no anomalous pre-quench
    moments.  All four matrices are real; c_c and cdag_cdag coincide.
    """
    if len(state.occupations) != bog.total_size:
        raise ConsistencyError("state length does not match the map")
    a, b = bog.alpha, bog.beta
    n = state.as_array()
    an = a * n[:, None]
    bn = b * n[:, None]
    a1 = a * (1.0 + n)[:, None]
    b1 = b * (1.0 + n)[:, None]
    cdag_c = b.T @ b1 + a.T @ an
    c_cdag = a.T @ a1 + b.T @ bn
    c_c = -(a.T @ b1 + b.T @ an)
    return CorrelationSet(cdag_c=cdag_c, c_cdag=c_cdag, c_c=c_c, cdag_cdag=c_c.T.copy())


def emitted_occupations(bog: BogoliubovMap, state: FockExcitation) -> np.ndarray:
    """Post-quench mode occupancies: vacuum polarization plus stimulated part.

    <n'_k> = sum_l beta[l,k]^2 + sum_j (alpha[j,k]^2 + beta[j,k]^2) n_j.
    Equals the diagonal of initial_correlations(...).cdag_c.
    """
    n = state.as_array()
    b2 = bog.beta ** 2
    return b2.sum(axis=0) + n @ (bog.alpha ** 2 + b2)


def pre_quench_energy(spec: QuenchSpec) -> float:
    """<H> of the joint Hamiltonian in the pre-quench Fock state.

    The coupling term has zero expectation in any product of Fock states
    (positions have vanishing means and the chains are uncorrelated), so
    only the disjoint mode energies contribute.
    """
    n = spec.initial_state.as_array()
    return float(spec.hbar * np.sum(disjoint_frequencies(spec) * (n + 0.5)))


def joint_energy(bog: BogoliubovMap, corr: CorrelationSet) -> float:
    """<H> from the joint-mode side, sum_k hbar w'_k (<n'_k> + 1/2)."""
    return float(bog.hbar * np.sum(bog.omega_joint
                                   * (np.diagonal(corr.cdag_c).real + 0.5)))

