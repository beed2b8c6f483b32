"""Phase-space covariance matrices through the quench.

The covariance route is the Gaussian-state counterpart of the operator
route: build second moments in the disjoint normal-mode basis, rotate to
configuration space, rotate to joint normal modes, evolve (the moments of
z = m w x + i p pick up phases, or their grid means for a window mean),
and read occupancies off the diagonal.  The moment helpers work on any
tile (rows x columns) of the joint-mode blocks; the diagonal-form verdict
walks the covariance in square tiles of edge `_TILE`, so its working
memory does not grow with K.
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
        if not np.all(np.isfinite(sig)):
            # NaN would also slip through the symmetry guard's comparison
            raise ValueError("covariance matrix must be finite")
        object.__setattr__(self, "sigma", sig)
        K = self.n_modes
        _check_symmetric((self.block("xx"), self.block("xx")),
                         (self.block("pp"), self.block("pp")),
                         (self.block("xp"), sig[K:, :K]))

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


def _check_symmetric(*pairs):
    """Refuse blocks (b, c) of a covariance where b != c^T by more than
    1e-10; (xx, xx), (pp, pp) and (xp, px) cover the whole matrix."""
    for b, c in pairs:
        if np.max(np.abs(b - c.T)) > 1e-10:
            raise ValueError("covariance matrix must be symmetric")


def _blocks(cov):
    return cov.block("xx"), cov.block("xp"), cov.block("pp")


def _joint_covariance_matrix(xx, xp, pp):
    return CovarianceMatrix(sigma=np.block([[xx, xp], [xp.T, pp]]),
                            basis_tag=JOINT)


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
    """F sigma F^T for F = blockdiag(mat, mat), one K x K block at a time:
    each block B becomes mat B mat^T, and a block that is exactly zero
    stays zero without a product."""
    K, sigma = cov.n_modes, cov.sigma
    out = np.empty_like(sigma)
    for rows in (slice(None, K), slice(K, None)):
        for cols in (slice(None, K), slice(K, None)):
            block = sigma[rows, cols]
            if block.any():
                np.matmul(mat @ block, mat.T, out=out[rows, cols])
            else:
                out[rows, cols] = 0.0
    return CovarianceMatrix(sigma=out, basis_tag=new_tag)


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


_ALL = slice(None)


def _moments(xx, xp, pp, a, rows=_ALL, cols=_ALL):
    """Normal and anomalous moments (1/2)<z_j* z_k>, (1/2)<z_j z_k> of the
    amplitudes z = a x + i p, symmetrized, from the blocks of a covariance,
    for j in `rows` and k in `cols` (the px entries come from xp on the
    transposed tile)."""
    ar, ac = a[rows], a[cols]
    aax = np.outer(ar, ac) * xx[rows, cols]
    axp, apx = ar[:, None] * xp[rows, cols], (ac[:, None] * xp[cols, rows]).T
    return (0.5 * (aax + pp[rows, cols] + 1j * (axp - apx)),
            0.5 * (aax - pp[rows, cols] + 1j * (axp + apx)))


def _from_moments(normal, anomalous, a, rows=_ALL, cols=_ALL):
    """The xx, xp and pp blocks, on the tile rows x cols, whose moments
    `_moments` returns.

    They are views: xx and xp into one new array, pp into `normal`, which
    is overwritten.
    """
    total = normal + anomalous
    xx, xp = total.real, total.imag
    xx /= np.outer(a[rows], a[cols])
    xp /= a[rows][:, None]
    normal -= anomalous
    return xx, xp, normal.real


def _rephase(moment, u, v, out=None):
    """moment_jk u_j v_k, written into `out` if given.

    Free evolution for a time t, with e = exp(i w t): z_j evolves as
    exp(-i w_j t) z_j, so the normal moments take (u, v) = (e, e*) and
    the anomalous ones (e*, e*).  `u` and `v` have shape (..., K); each
    leading index is one time.
    """
    out = np.multiply(u[..., :, None], v[..., None, :], out=out)
    return np.multiply(moment, out, out=out)


def evolve_covariance(cov: CovarianceMatrix, spec: QuenchSpec, t: float) -> CovarianceMatrix:
    """Free evolution in the joint modes, every moment times its phase."""
    _require(cov, JOINT)
    w = mode_frequencies(spec.total_size, spec.omega0)
    a = spec.mass * w
    normal, anomalous = _moments(*_blocks(cov), a)
    e = np.exp(1j * w * t)
    ec = e.conj()
    return _joint_covariance_matrix(*_from_moments(
        _rephase(normal, e, ec), _rephase(anomalous, ec, ec), a))


def _occupations(xx_diag, pp_diag, spec):
    w = mode_frequencies(spec.total_size, spec.omega0)
    m, hbar = spec.mass, spec.hbar
    return 0.5 * (m * w * xx_diag + pp_diag / (m * w)) / hbar - 0.5


def occupations_from_covariance(cov: CovarianceMatrix, spec: QuenchSpec) -> np.ndarray:
    """Mode occupancies off the covariance diagonal in the joint basis."""
    _require(cov, JOINT)
    return _occupations(np.diagonal(cov.block("xx")),
                        np.diagonal(cov.block("pp")), spec)


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


def _half_phases(w, dt, rows=_ALL, cols=_ALL):
    """r = (w_j - w_k) dt / 2 and r = (w_j + w_k) dt / 2 for j in `rows`
    and k in `cols`, each reduced mod pi and paired with sin r: the
    window-independent part of `_dirichlet` for the normal and the
    anomalous moments."""
    phases = []
    for omega in (np.subtract.outer(w[rows], w[cols]),
                  np.add.outer(w[rows], w[cols])):
        r = 0.5 * dt * omega
        r -= np.pi * np.round(r / np.pi)
        phases.append((r, np.sin(r)))
    return phases


def _dirichlet(r, sin_r, samples):
    """Mean of exp(i omega t) over the grid t = j dt, j < S = samples.

    The mean is exp(i (S-1) r) sin(S r) / (S sin r) with r = omega dt / 2.
    It has period pi in r, so r comes reduced mod pi (`_half_phases`): at
    an aliased beat (omega dt near a multiple of 2 pi) the unreduced ratio
    divides two rounding errors.  r = 0 gives 1.
    """
    den = samples * sin_r
    ratio = np.divide(np.sin(samples * r), den, out=np.ones_like(r),
                      where=den != 0)
    mean = 1j * (samples - 1) * r
    np.exp(mean, out=mean)
    mean *= ratio
    return mean


def _samples(window, dt):
    """Length of the grid t = j dt in [0, window), len(np.arange(0, window, dt))."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (np.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and > 0 so that the grid "
                         f"holds a sample, got {window!r}")
    return math.ceil(window / dt)


def _tile_means(blocks, a, w, dt, samples, rows=_ALL, cols=_ALL):
    """xx, xp and pp blocks, on the tile rows x cols, of the mean of
    sigma(t) over the grid of each length in `samples`, one window at a
    time (a generator), from the covariance `blocks` (xx, xp, pp).

    The tile's moments and half phases are formed once; each window
    multiplies them by its Dirichlet means.
    """
    normal, anomalous = _moments(*blocks, a, rows, cols)
    phases = _half_phases(w, dt, rows, cols)
    for s in samples:
        mean_normal = _dirichlet(*phases[0], s)
        mean_normal *= normal
        mean_anomalous = _dirichlet(*phases[1], s)
        np.conj(mean_anomalous, out=mean_anomalous)
        mean_anomalous *= anomalous
        yield _from_moments(mean_normal, mean_anomalous, a, rows, cols)


def mean_evolved_covariance(cov: CovarianceMatrix, spec: QuenchSpec,
                            window: float, dt: float = 0.5) -> CovarianceMatrix:
    """Mean of sigma(t) over the grid t = j dt in [0, window), in closed form.

    The normal moments pick up exp(i (w_j - w_k) t) and the anomalous ones
    exp(-i (w_j + w_k) t) (`_rephase`); the mean multiplies each by the
    grid mean of its phase, which costs O(K^2) however many samples the
    window holds.
    """
    _require(cov, JOINT)
    samples = _samples(window, dt)
    w = mode_frequencies(spec.total_size, spec.omega0)
    (mean,) = _tile_means(_blocks(cov), spec.mass * w, w, dt, [samples])
    return _joint_covariance_matrix(*mean)


def _residual(xx, xp, pp, diagonal=True):
    """Largest |xx| or |pp| off the diagonal, or any |xp|, of a tile; a
    tile off the diagonal (`diagonal` False) has no entry to skip."""
    parts = [np.max(np.abs(xp))]
    for block in (xx, pp):
        block = np.abs(block)
        if diagonal:
            np.fill_diagonal(block, 0.0)
        parts.append(block.max())
    return float(np.max(parts))


def max_offdiagonal(cov: CovarianceMatrix) -> float:
    """Largest |entry| of a symmetric sigma outside its diagonal: off the
    diagonal of xx or pp, or anywhere in xp."""
    return _residual(*_blocks(cov))


# Largest |xp| entry at t = 0 that thermal_form_check does not flag, and the
# factor by which a window's residual may exceed the first window's c/T.
_B_TOL = 1e-10
_MARGIN = 3.0
# Edge of the square tiles in which thermal_form_check walks sigma.  The
# check then holds about 1.5 MB of tile arrays whatever K is; of the edges
# 32, 64, 128 and 256, 64 was the fastest at K = 200 and within 10 % of the
# fastest at K = 960 (2-CPU x86 VM).
_TILE = 64


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
    `windows` are at least two finite, positive, strictly increasing
    lengths.  The report carries each window's residual (`max_offdiagonal`
    of `mean_evolved_covariance`, to the bit), their log-log slope and the
    occupancies of the largest window's average.

    The check walks sigma in square tiles of edge `_TILE`, a tile and its
    transpose together: each pair forms its moments and half phases once,
    then every window's Dirichlet-weighted means, which the 1e-10 symmetry
    guard compares against each other.  Residuals, the flagged pairs and
    the diagonal of the last window are folded in tile by tile, so the
    working memory is a few tiles whatever K is.
    """
    _require(cov, JOINT)
    win = np.asarray(windows, dtype=float)
    if not (win.ndim == 1 and win.size >= 2 and np.all(np.isfinite(win))
            and win[0] > 0 and np.all(np.diff(win) > 0)):
        raise ValueError("windows must be at least two finite, positive, "
                         f"strictly increasing lengths, got {windows!r}")
    samples = [_samples(window, dt) for window in win]
    blocks = _blocks(cov)
    xp = cov.block("xp")
    K = cov.n_modes
    w = mode_frequencies(K, spec.omega0)
    a = spec.mass * w
    tiles = [slice(k, k + _TILE) for k in range(0, K, _TILE)]
    flagged, parts = [], [[] for _ in samples]
    xx_diag, pp_diag = np.empty(K), np.empty(K)
    for n, rows in enumerate(tiles):
        for cols in tiles[n:]:
            diagonal = cols is rows
            pair = [(rows, cols)] if diagonal else [(rows, cols), (cols, rows)]
            for r, c in pair:
                i, j = np.nonzero(np.abs(xp[r, c]) > _B_TOL)
                flagged.extend(zip(i + (r.start + 1), j + (c.start + 1)))
            means = zip(*(_tile_means(blocks, a, w, dt, samples, r, c)
                          for r, c in pair))
            for part, tile in zip(parts, means):
                (xx, _, pp), (xx_t, _, pp_t) = tile[0], tile[-1]
                _check_symmetric((xx, xx_t), (pp, pp_t))
                part.extend(_residual(*m, diagonal) for m in tile)
            if diagonal:        # xx and pp now hold the last window's tile
                xx_diag[rows], pp_diag[rows] = np.diagonal(xx), np.diagonal(pp)
    flagged.sort()
    resid = np.array([np.max(part) for part in parts])
    slope = float(np.polyfit(np.log(win), np.log(resid), 1)[0])
    c_cal = resid[0] * win[0] * _MARGIN
    scaling_ok = bool(np.all(resid[1:] <= c_cal / win[1:]))
    return ThermalFormReport(
        passed=(not flagged) and scaling_ok,
        flagged_pairs=flagged,
        windows=win,
        max_offdiag_avg=resid,
        decay_slope=slope,
        gge_occupancies=_occupations(xx_diag, pp_diag, spec),
        b_tol=_B_TOL,
    )
