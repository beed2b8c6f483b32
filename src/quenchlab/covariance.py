"""Phase-space covariance matrices through the quench.

The covariance route is the Gaussian-state counterpart of the operator
route: build second moments in the disjoint normal-mode basis, rotate them
to configuration space and on to the joint normal modes (one function,
`joint_covariance`, the only producer of a record), evolve (the moments of
z = m w x + i p pick up phases, or their grid means for a window mean),
and read occupancies off the diagonal.  A covariance is stored as its
three K x K blocks xx, xp and pp; px is xp^T by construction, and the
2K x 2K sigma is assembled only on demand (`CovarianceMatrix.sigma`, for
the Williamson spectrum).  The moment helpers work on any tile (rows x
columns) of the joint-mode blocks; the diagonal-form verdict walks the
covariance in square tiles of edge `_TILE`, so its working memory does
not grow with K.
Fock states are not Gaussian, but their second moments are still exact,
which is all this module ever uses (higher moments are out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (QuenchSpec, RunConfig, disjoint_frequencies,
                    disjoint_transform, mode_frequencies, sine_transform)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second moments as the K x K blocks of the 2K x 2K matrix
    sigma = [[xx, xp], [xp^T, pp]] (positions, then momenta).  The px
    block is xp^T by construction, so it is never stored."""
    xx: np.ndarray
    xp: np.ndarray
    pp: np.ndarray

    def __post_init__(self):
        for name in ("xx", "xp", "pp"):
            # a contiguous block of its own: a strided view, such as the
            # real part of a complex moment, keeps its whole base alive
            block = np.ascontiguousarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(block)):
                # NaN would also slip through the symmetry guard's comparison
                raise ValueError("covariance matrix must be finite")
            object.__setattr__(self, name, block)
        K = self.xx.shape[0] if self.xx.ndim else 0
        if any(b.shape != (K, K) for b in (self.xx, self.xp, self.pp)):
            raise ValueError("covariance blocks must be square and of one shape")
        _check_symmetric((self.xx, self.xx), (self.pp, self.pp))

    @property
    def n_modes(self):
        return self.xx.shape[0]

    @property
    def sigma(self):
        """The 2K x 2K matrix, assembled on demand."""
        return np.block([[self.xx, self.xp], [self.xp.T, self.pp]])


def _check_symmetric(*pairs):
    """Refuse blocks (b, c) of a covariance where b != c^T by more than
    1e-10."""
    for b, c in pairs:
        if np.max(np.abs(b - c.T)) > 1e-10:
            raise ValueError("covariance matrix must be symmetric")


def joint_covariance(spec: QuenchSpec) -> CovarianceMatrix:
    """Second moments of the pre-quench Fock state in the joint normal modes.

    In the disjoint normal modes sigma_xx = (n + 1/2) hbar / (m w) and
    sigma_pp = (n + 1/2) hbar m w, and all cross correlations vanish for
    energy eigenstates.  Each block B is rotated to lattice sites and then
    to the joint modes, B -> T B T^T; xp stays zero.
    """
    n = spec.initial_state.as_array()
    w = disjoint_frequencies(spec)
    m, hbar = spec.mass, spec.hbar
    xx = np.diag((n + 0.5) * hbar / (m * w))
    pp = np.diag((n + 0.5) * hbar * m * w)
    for mat in (disjoint_transform(spec), sine_transform(spec.total_size)):
        xx, pp = mat @ xx @ mat.T, mat @ pp @ mat.T
    return CovarianceMatrix(xx, np.zeros_like(xx), pp)


_ALL = slice(None)


def _moments(cov, a, rows=_ALL, cols=_ALL):
    """Normal and anomalous moments (1/2)<z_j* z_k>, (1/2)<z_j z_k> of the
    amplitudes z = a x + i p, symmetrized, from the blocks of a covariance,
    for j in `rows` and k in `cols` (the px entries come from xp on the
    transposed tile)."""
    xx, xp, pp = cov.xx, cov.xp, cov.pp
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


def evolve_covariance(cov: CovarianceMatrix, spec: QuenchSpec, t: float) -> CovarianceMatrix:
    """Free evolution in the joint modes, every moment times its phase.

    z_j evolves as exp(-i w_j t) z_j, so the normal moments pick up
    exp(i (w_j - w_k) t) = exp(2i r-) and the anomalous ones
    exp(-i (w_j + w_k) t) = exp(-2i r+), with the half phases r-+ of
    `_half_phases` at dt = t: the phase source of the window means.
    """
    w = mode_frequencies(spec.total_size, spec.omega0)
    a = spec.mass * w
    normal, anomalous = _moments(cov, a)
    (r_minus, _), (r_plus, _) = _half_phases(w, t)
    normal *= np.exp(2j * r_minus)
    anomalous *= np.exp(-2j * r_plus)
    return CovarianceMatrix(*_from_moments(normal, anomalous, a))


def _occupations(xx_diag, pp_diag, spec):
    w = mode_frequencies(spec.total_size, spec.omega0)
    m, hbar = spec.mass, spec.hbar
    return 0.5 * (m * w * xx_diag + pp_diag / (m * w)) / hbar - 0.5


def occupations_from_covariance(cov: CovarianceMatrix, spec: QuenchSpec) -> np.ndarray:
    """Mode occupancies off the covariance diagonal in the joint basis."""
    return _occupations(np.diagonal(cov.xx), np.diagonal(cov.pp), spec)


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
    anomalous moments, and at dt = t the phases of `evolve_covariance`."""
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


def _tile_means(cov, a, w, dt, samples, rows=_ALL, cols=_ALL):
    """xx, xp and pp blocks, on the tile rows x cols, of the mean of
    sigma(t) over the grid of each length in `samples`, one window at a
    time (a generator), from the covariance `cov`.

    The tile's moments and half phases are formed once; each window
    multiplies them by its Dirichlet means.
    """
    normal, anomalous = _moments(cov, a, rows, cols)
    phases = _half_phases(w, dt, rows, cols)
    for s in samples:
        mean_normal = _dirichlet(*phases[0], s)
        mean_normal *= normal
        mean_anomalous = _dirichlet(*phases[1], s)
        np.conj(mean_anomalous, out=mean_anomalous)
        mean_anomalous *= anomalous
        yield _from_moments(mean_normal, mean_anomalous, a, rows, cols)


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


# Largest |xp| entry at t = 0 that thermal_form_check does not flag, and the
# factor by which a window's residual may exceed the first window's c/T.
XP_TOL = 1e-10
DECAY_MARGIN = 3.0
# Edge of the square tiles in which thermal_form_check walks the blocks.  The
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


def thermal_form_check(cov: CovarianceMatrix, spec: QuenchSpec,
                       windows=(125, 250, 500, 1000, 2000, 4000), dt=0.5
                       ) -> ThermalFormReport:
    """Does the window-averaged covariance settle into diagonal (GGE) form?

    Two ingredients: the position-momentum block must vanish at t = 0
    (energy eigenstates guarantee this; an entry above `XP_TOL` is flagged
    since it breaks the purely oscillatory structure of the evolved
    off-diagonals), and the window-averaged off-diagonal residual must
    fall like c/T, with c the first window's times `DECAY_MARGIN`.
    `windows` are at least two finite, positive, strictly increasing
    lengths.  The report carries each window's residual (the largest
    |entry| off the diagonal of the window's mean covariance: off the
    diagonal of xx or pp, or anywhere in xp), their log-log slope and the
    occupancies of the largest window's average.

    The check walks the blocks in square tiles of edge `_TILE`, a tile and its
    transpose together: each pair forms its moments and half phases once,
    then every window's Dirichlet-weighted means, which the 1e-10 symmetry
    guard compares against each other.  Residuals, the flagged pairs and
    the diagonal of the last window are folded in tile by tile, so the
    working memory is a few tiles whatever K is.
    """
    win = np.asarray(windows, dtype=float)
    if not (win.ndim == 1 and win.size >= 2 and np.all(np.isfinite(win))
            and win[0] > 0 and np.all(np.diff(win) > 0)):
        raise ValueError("windows must be at least two finite, positive, "
                         f"strictly increasing lengths, got {windows!r}")
    samples = [_samples(window, dt) for window in win]
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
                i, j = np.nonzero(np.abs(cov.xp[r, c]) > XP_TOL)
                flagged.extend(zip(i + (r.start + 1), j + (c.start + 1)))
            means = zip(*(_tile_means(cov, a, w, dt, samples, r, c)
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
    c_cal = resid[0] * win[0] * DECAY_MARGIN
    scaling_ok = bool(np.all(resid[1:] <= c_cal / win[1:]))
    return ThermalFormReport(
        passed=(not flagged) and scaling_ok,
        flagged_pairs=flagged,
        windows=win,
        max_offdiag_avg=resid,
        decay_slope=slope,
        gge_occupancies=_occupations(xx_diag, pp_diag, spec),
    )
