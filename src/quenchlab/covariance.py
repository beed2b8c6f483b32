"""Phase-space covariance matrices through the quench.

The covariance route is the Gaussian-state counterpart of the operator
route: build second moments in the disjoint normal-mode basis, rotate to
configuration space, rotate to joint normal modes, evolve with the
per-mode symplectic rotation, and read occupancies off the diagonal.
Fock states are not Gaussian, but their second moments are still exact,
which is all this module ever uses (higher moments are out of scope).

Basis tags: "disjoint-normal-modes" -> "configuration" -> "joint-normal-modes".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (QuenchSpec, RunConfig, disjoint_frequencies,
                    disjoint_transform, mode_frequencies, sine_transform)

DISJOINT = "disjoint-normal-modes"
CONFIGURATION = "configuration"
JOINT = "joint-normal-modes"


class BasisError(ValueError):
    """Operation applied to a covariance matrix in the wrong basis."""


@dataclass(frozen=True)
class CovarianceMatrix:
    sigma: np.ndarray           # 2K x 2K, block order (positions, momenta)
    basis_tag: str

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1] or sig.shape[0] % 2:
            raise ValueError("covariance matrix must be square of even dimension")
        if np.max(np.abs(sig - sig.T)) > 1e-10:
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "sigma", sig)

    @property
    def n_modes(self):
        return self.sigma.shape[0] // 2

    def block(self, which):
        K = self.n_modes
        if which == "xx":
            return self.sigma[:K, :K]
        if which == "xp":
            return self.sigma[:K, K:]
        if which == "pp":
            return self.sigma[K:, K:]
        raise ValueError(which)


def _require(cov, tag):
    if cov.basis_tag != tag:
        raise BasisError(f"expected basis {tag!r}, got {cov.basis_tag!r}")


def initial_covariance(spec: QuenchSpec) -> CovarianceMatrix:
    """Second moments of the pre-quench Fock state in disjoint normal modes.

    sigma_xx = (n + 1/2) hbar / (m w),  sigma_pp = (n + 1/2) hbar m w,
    and all cross correlations vanish for energy eigenstates.
    """
    n = spec.initial_state.as_array()
    w = disjoint_frequencies(spec)
    m, hbar = spec.mass, spec.hbar
    K = spec.total_size
    sig = np.zeros((2 * K, 2 * K))
    sig[:K, :K] = np.diag((n + 0.5) * hbar / (m * w))
    sig[K:, K:] = np.diag((n + 0.5) * hbar * m * w)
    return CovarianceMatrix(sigma=sig, basis_tag=DISJOINT)


def _conjugate(cov, mat, new_tag):
    K = cov.n_modes
    full = np.zeros((2 * K, 2 * K))
    full[:K, :K] = mat
    full[K:, K:] = mat
    return CovarianceMatrix(sigma=full @ cov.sigma @ full.T, basis_tag=new_tag)


def to_configuration(cov: CovarianceMatrix, spec: QuenchSpec) -> CovarianceMatrix:
    """Rotate disjoint normal modes to lattice-site coordinates."""
    _require(cov, DISJOINT)
    return _conjugate(cov, disjoint_transform(spec), CONFIGURATION)


def to_joint_modes(cov: CovarianceMatrix, spec: QuenchSpec) -> CovarianceMatrix:
    """Rotate lattice-site coordinates to the joint normal modes."""
    _require(cov, CONFIGURATION)
    return _conjugate(cov, sine_transform(spec.total_size), JOINT)


def joint_covariance(spec: QuenchSpec) -> CovarianceMatrix:
    """Initial covariance pushed through both rotations."""
    return to_joint_modes(to_configuration(initial_covariance(spec), spec), spec)


def _rotate(xx, xp, pp, c, s, d):
    """xx, xp and pp blocks of R sigma R^T for the free rotation R = (c, s; d, c),
    per mode c = cos wt, s = sin wt/(m w), d = -m w sin wt.

    R is diagonal per mode, so each block is elementwise in the factor
    products u_j v_k.  Factors of shape (..., K) give one rotation per
    leading index.
    """
    def prod(u, v):
        return u[..., :, None] * v[..., None, :]
    cc, cs, cd = prod(c, c), prod(c, s), prod(c, d)
    sc, dc, px = cs.swapaxes(-1, -2), cd.swapaxes(-1, -2), xp.T
    return (cc * xx + cs * xp + sc * px + prod(s, s) * pp,
            cd * xx + cc * xp + prod(s, d) * px + sc * pp,
            prod(d, d) * xx + dc * xp + cd * px + cc * pp)


def evolve_covariance(cov: CovarianceMatrix, spec: QuenchSpec, t: float) -> CovarianceMatrix:
    """Free evolution in the joint modes, sigma(t) = R(t) sigma R(t)^T."""
    _require(cov, JOINT)
    w = mode_frequencies(spec.total_size, spec.omega0)
    mw, sn = spec.mass * w, np.sin(w * t)
    xx, xp, pp = _rotate(cov.block("xx"), cov.block("xp"), cov.block("pp"),
                         np.cos(w * t), sn / mw, sn * -mw)
    return CovarianceMatrix(sigma=np.block([[xx, xp], [xp.T, pp]]),
                            basis_tag=JOINT)


def occupations_from_covariance(cov: CovarianceMatrix, spec: QuenchSpec) -> np.ndarray:
    """Mode occupancies off the covariance diagonal in the joint basis."""
    _require(cov, JOINT)
    w = mode_frequencies(spec.total_size, spec.omega0)
    m, hbar = spec.mass, spec.hbar
    xx = np.diagonal(cov.block("xx"))
    pp = np.diagonal(cov.block("pp"))
    return 0.5 * (m * w * xx + pp / (m * w)) / hbar - 0.5


def symplectic_eigenvalues(cov: CovarianceMatrix, hbar=RunConfig.hbar) -> np.ndarray:
    """Williamson spectrum in units of hbar (vacuum modes give 1/2).

    Uses the Hermitian similarity sqrt(sigma) (i Omega) sqrt(sigma), whose
    spectrum is +-nu_k, instead of the non-normal i Omega sigma.
    """
    sig = cov.sigma / hbar
    K = cov.n_modes
    omega = np.zeros((2 * K, 2 * K))
    omega[:K, K:] = np.eye(K)
    omega[K:, :K] = -np.eye(K)
    w, v = np.linalg.eigh(sig)
    if np.min(w) < -1e-12:
        raise ValueError("covariance matrix is not positive semidefinite")
    sqrt_sig = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    herm = 1j * (sqrt_sig @ omega @ sqrt_sig)
    ev = np.linalg.eigvalsh(herm)
    pos = np.sort(ev[ev > 0])
    return pos


def _dirichlet(omega, samples, dt):
    """Mean of exp(i omega t) over the grid t = j dt, j < S = samples.

    The mean is exp(i (S-1) r) sin(S r) / (S sin r) with r = omega dt / 2.
    It has period pi in r, so r is reduced mod pi first: at an aliased beat
    (omega dt near a multiple of 2 pi) the unreduced ratio divides two
    rounding errors.  r = 0 gives 1.
    """
    r = 0.5 * dt * omega
    r -= np.pi * np.round(r / np.pi)
    den = samples * np.sin(r)
    ratio = np.divide(np.sin(samples * r), den, out=np.ones_like(r),
                      where=den != 0)
    return np.exp(1j * (samples - 1) * r) * ratio


def mean_evolved_covariance(cov: CovarianceMatrix, spec: QuenchSpec,
                            window: float, dt: float = 0.5) -> CovarianceMatrix:
    """Mean of sigma(t) over the grid t = j dt in [0, window), in closed form.

    With a = m w, the amplitudes z_j = a_j x_j + i p_j evolve as
    exp(-i w_j t) z_j, so the normal moments <z_j* z_k> pick up
    exp(i (w_j - w_k) t) and the anomalous <z_j z_k> exp(-i (w_j + w_k) t).
    The window mean multiplies each by the grid mean of its phase, which
    costs O(K^2) however many samples the window holds.
    """
    _require(cov, JOINT)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (np.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and > 0 so that the grid "
                         f"holds a sample, got {window!r}")
    samples = math.ceil(window / dt)        # len(np.arange(0.0, window, dt))
    w = mode_frequencies(spec.total_size, spec.omega0)
    a = spec.mass * w
    aa = np.outer(a, a)
    axax, axp = aa * cov.block("xx"), a[:, None] * cov.block("xp")
    pp = cov.block("pp")
    normal = _dirichlet(np.subtract.outer(w, w), samples, dt) * (
        0.5 * (axax + pp + 1j * (axp - axp.T)))
    anomalous = np.conj(_dirichlet(np.add.outer(w, w), samples, dt)) * (
        0.5 * (axax - pp + 1j * (axp + axp.T)))
    total = normal + anomalous
    xp = total.imag / a[:, None]
    return CovarianceMatrix(sigma=np.block([[total.real / aa, xp],
                                            [xp.T, (normal - anomalous).real]]),
                            basis_tag=JOINT)


def max_offdiagonal(cov: CovarianceMatrix) -> float:
    """Largest |entry| outside the full-matrix diagonal."""
    sig = np.abs(cov.sigma)
    np.fill_diagonal(sig, 0.0)
    return float(sig.max())


# Largest |xp| entry at t = 0 that thermal_form_check does not flag, and the
# factor by which a window's residual may exceed the first window's c/T.
_B_TOL = 1e-10
_MARGIN = 3.0


@dataclass(frozen=True)
class ThermalFormReport:
    passed: bool
    flagged_pairs: list         # 1-based (i, j) with nonzero xp structure at t=0
    windows: np.ndarray
    max_offdiag_avg: np.ndarray
    decay_slope: float
    gge_occupancies: np.ndarray
    b_tol: float


def thermal_form_check(cov: CovarianceMatrix, spec: QuenchSpec,
                       windows=(125, 250, 500, 1000, 2000, 4000), dt=0.5
                       ) -> ThermalFormReport:
    """Does the window-averaged covariance settle into diagonal (GGE) form?

    Two ingredients: the position-momentum block must vanish at t = 0
    (energy eigenstates guarantee this; a nonzero entry is flagged since it
    breaks the purely oscillatory structure of the evolved off-diagonals),
    and the window-averaged off-diagonal residual must fall like c/T.
    The report carries each window's residual, their log-log slope and the
    occupancies of the largest window's average.
    """
    _require(cov, JOINT)
    xp = cov.block("xp")
    flagged = [(i + 1, j + 1) for i, j in zip(*np.nonzero(np.abs(xp) > _B_TOL))]
    resid = [max_offdiagonal(mean_evolved_covariance(cov, spec, T, dt))
             for T in windows[:-1]]
    last = mean_evolved_covariance(cov, spec, windows[-1], dt)
    resid.append(max_offdiagonal(last))
    win, resid = np.asarray(windows, dtype=float), np.asarray(resid)
    slope = float(np.polyfit(np.log(win), np.log(resid), 1)[0])
    c_cal = resid[0] * win[0] * _MARGIN
    scaling_ok = bool(np.all(resid[1:] <= c_cal / win[1:]))
    occ = occupations_from_covariance(last, spec)
    return ThermalFormReport(
        passed=(not flagged) and scaling_ok,
        flagged_pairs=flagged,
        windows=win,
        max_offdiag_avg=resid,
        decay_slope=slope,
        gge_occupancies=occ,
        b_tol=_B_TOL,
    )
