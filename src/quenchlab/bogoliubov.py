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
IMAG_TOL = 1e-8             # largest xx or pp asymmetry that Moments accepts


class SingularAlpha(np.linalg.LinAlgError):
    """alpha is numerically singular; the quench configuration is degenerate."""


class ConsistencyError(ValueError):
    """Inputs violate an algebraic invariant they were assumed to satisfy."""


class NumericalError(ArithmeticError):
    """A numeric sanity bound was violated (for instance imaginary residue)."""


@dataclass(frozen=True)
class BogoliubovMap:
    """alpha/beta coefficients and the two frequency vectors they join."""

    alpha: np.ndarray
    beta: np.ndarray
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
        return max(
            np.max(np.abs(a @ a.T - b @ b.T - eye)),
            _asymmetry(a @ b.T),
            np.max(np.abs(a.T @ a - b.T @ b - eye)),
            _asymmetry(a.T @ b),
        )


def _asymmetry(x):
    """max |x - x^T|, with one temporary."""
    d = x - x.T
    return float(np.max(np.abs(d, out=d)))


@dataclass(frozen=True)
class Moments:
    """Joint-mode second moments as quadrature blocks, in <c> units:
    (1/2)<{x_j, x_k}> and (1/2)<{p_j, p_k}> of x = (c + c^dag)/sqrt2 and
    p = i(c^dag - c)/sqrt2, for a state with real amplitudes in the joint
    Fock basis (any Fock state's at t = 0, the oracle's expanded
    eigenstate), whose (1/2)<{p_j, x_k}> block vanishes.  Blocks that are
    not square and of one shape, not real or not finite, an xx or pp
    asymmetric beyond IMAG_TOL (an imaginary part in <n_m(t)>) and
    diag(xx + pp) < 1 - 2e-8 (a negative occupancy) are refused.  The four
    correlators are derived on demand, all real."""

    xx: np.ndarray
    pp: np.ndarray

    def __post_init__(self):
        blocks = (self.xx, self.pp)
        K = np.shape(self.xx)[0] if np.ndim(self.xx) else 0
        shapes = [np.shape(b) for b in blocks]
        if any(shape != (K, K) for shape in shapes):
            raise ConsistencyError("moment blocks must be square and of one "
                                   f"shape, got {', '.join(map(str, shapes))}")
        if any(np.iscomplexobj(b) for b in blocks):
            raise NumericalError("moments must be real, got complex blocks")
        # NaN would also slip through the comparisons below
        if not all(np.isfinite(b).all() for b in blocks):
            raise NumericalError("moments must be finite")
        defect = max(_asymmetry(self.xx), _asymmetry(self.pp))
        if defect > IMAG_TOL:
            raise NumericalError(f"imaginary residue: quadrature block "
                                 f"asymmetry {defect:.3e} exceeds {IMAG_TOL:g}")
        if np.min(self.occupations) < -1e-8:
            raise ConsistencyError("negative occupancy on the moments' diagonal")

    @property
    def occupations(self):
        """<c_k^dag c_k> = diag(xx + pp)/2 - 1/2."""
        return 0.5 * (np.diagonal(self.xx) + np.diagonal(self.pp)) - 0.5

    @property
    def cdag_c(self):
        """<c_j^dag c_k> = (xx + pp - 1)/2."""
        return 0.5 * (self.xx + self.pp - np.eye(len(self.xx)))

    @property
    def c_cdag(self):
        """<c_j c_k^dag> = <c_k^dag c_j> + delta_jk."""
        return self.cdag_c.T + np.eye(len(self.xx))

    @property
    def c_c(self):
        """<c_j c_k> = (xx - pp)/2."""
        return 0.5 * (self.xx - self.pp)

    @property
    def cdag_cdag(self):
        """<c_j^dag c_k^dag> = <c_j c_k>, which is real."""
        return self.c_c


def build_bogoliubov(spec: QuenchSpec) -> BogoliubovMap:
    """Construct the Bogoliubov map for the given quench.

    The overlap matrix is the product of the block-diagonal disjoint sine
    transform with the joint sine transform, which evaluates the double
    sine sums as one dense matrix product.  The overlap O and the rapidity
    gamma = log(w/w')/2 are temporaries: the map keeps alpha = O cosh gamma
    and beta = O sinh gamma only.
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


def initial_correlations(bog: BogoliubovMap, state: FockExcitation) -> Moments:
    """Quadrature moments of the joint modes in a disjoint-mode Fock state.

    x_k = sum_l (alpha - beta)[l, k] X_l and p_k = sum_l (alpha + beta)[l, k]
    P_l, and a Fock state's pre-quench moments are diag(n + 1/2) for XX and
    PP and zero for PX, so xx = D^T D and pp = S^T S with D, S =
    diag(sqrt(n + 1/2)) (alpha -/+ beta), each scaled in place.
    """
    if len(state.occupations) != bog.total_size:
        raise ConsistencyError("state length does not match the map")
    scale = np.sqrt(state.as_array() + 0.5)[:, None]

    def gram(rows):
        rows *= scale
        return rows.T @ rows

    return Moments(xx=gram(bog.alpha - bog.beta), pp=gram(bog.alpha + bog.beta))


def emitted_occupations(bog: BogoliubovMap, state: FockExcitation) -> np.ndarray:
    """Post-quench mode occupancies: vacuum polarization plus stimulated part.

    <n'_k> = sum_l beta[l,k]^2 + sum_j (alpha[j,k]^2 + beta[j,k]^2) n_j.
    Equals initial_correlations(...).occupations.
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


def joint_energy(bog: BogoliubovMap, corr: Moments) -> float:
    """<H> from the joint-mode side, sum_k hbar w'_k (<n'_k> + 1/2)."""
    return float(bog.hbar * np.sum(bog.omega_joint * (corr.occupations + 0.5)))

