"""Phase-space covariance matrices through the quench, and the verdict on
their relaxation.

The covariance route is the Gaussian-state counterpart of the operator
route: build second moments in the disjoint normal-mode basis and rotate
them to configuration space and on to the joint normal modes (one
function, `joint_covariance`, the only producer of a record), then ask
whether their window means settle into diagonal (GGE) form
(`thermal_form_check`).  A covariance is stored as its three K x K blocks
xx, xp and pp; px is xp^T by construction.  Each moment of z = m w x + i p
picks up a phase under free evolution, so a window mean is each moment
times the grid mean of its phase.  The moment helpers work on any tile
(rows x columns) of the joint-mode blocks; the verdict walks the
covariance in square tiles of edge `_TILE`, so its working memory does
not grow with K.  Its window means take sin and cos once per pair of
tiles (a tile and its transpose share one set of Dirichlet factors) and
the first window: each later window holds twice the previous window's
samples, so its factors follow from the previous window's by double-angle
products.
Fock states are not Gaussian, but their second moments are still exact,
which is all this module ever uses (higher moments are out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (QuenchSpec, disjoint_frequencies, disjoint_transform,
                    mode_frequencies, sine_transform)


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


def _check_symmetric(*pairs):
    """Refuse blocks (b, c) of a covariance where b != c^T by more than
    1e-10 (stacks of blocks transpose their last two axes)."""
    for b, c in pairs:
        gap = b - np.swapaxes(c, -1, -2)
        if np.abs(gap, out=gap).max() > 1e-10:
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
    amplitudes z = a x + i p, symmetrized, stacked, from the blocks of a
    covariance, for j in `rows` and k in `cols` (the px entries come from
    xp on the transposed tile)."""
    xx, xp, pp = cov.xx, cov.xp, cov.pp
    ar, ac = a[rows], a[cols]
    aax = np.outer(ar, ac)
    aax *= xx[rows, cols]
    axp, apx = ar[:, None] * xp[rows, cols], (ac[:, None] * xp[cols, rows]).T
    moments = np.empty((2,) + aax.shape, complex)
    np.add(aax, pp[rows, cols], out=moments.real[0])
    np.subtract(aax, pp[rows, cols], out=moments.real[1])
    np.subtract(axp, apx, out=moments.imag[0])
    np.add(axp, apx, out=moments.imag[1])
    moments *= 0.5
    return moments


def _from_moments(normal, anomalous, aa, a_rows, out):
    """The xx, xp and pp blocks whose moments `_moments` returns, written
    into `out`, stacked on its first axis (each of the shape of `normal`,
    a tile or a stack of tiles); `aa` is outer(a_j, a_k) on the tile and
    `a_rows` broadcasts a_j, the row's a."""
    xx, xp, pp = out
    np.add(normal.real, anomalous.real, out=xx)
    xx /= aa
    np.add(normal.imag, anomalous.imag, out=xp)
    xp /= a_rows
    np.subtract(normal.real, anomalous.real, out=pp)
    return out


def _occupations(xx_diag, pp_diag, spec):
    """Joint-mode occupancies from the diagonals of the xx and pp blocks."""
    w = mode_frequencies(spec.total_size, spec.omega0)
    m, hbar = spec.mass, spec.hbar
    return 0.5 * (m * w * xx_diag + pp_diag / (m * w)) / hbar - 0.5


def _half_phases(w, dt, rows=_ALL, cols=_ALL):
    """Half phases (w_j - w_k) dt / 2 of the normal and -(w_j + w_k) dt / 2
    of the anomalous moments, for j in `rows` and k in `cols`, stacked
    and each reduced mod pi: per step dt each moment picks up exp(2i r)."""
    r = np.stack([np.subtract.outer(w[rows], w[cols]),
                  np.add.outer(w[rows], w[cols])])
    r *= np.array([0.5, -0.5])[:, None, None] * dt
    r -= np.pi * np.round(r / np.pi)
    return r


def _dirichlet(r, samples):
    """Mean of exp(2i j r) over j < S for each S in `samples`, each S after
    the first twice the one before, one window at a time (a generator; each
    window overwrites the previous one's means, and `r` becomes |r|).

    The first window takes the closed form exp(i (S-1) r) sin(S r) /
    (S sin r).  It has period pi in r, so r comes reduced mod pi
    (`_half_phases`): at an aliased beat (omega dt near a multiple of 2 pi)
    the unreduced ratio divides two rounding errors.  r = 0 gives 1.  Each
    later window follows from the one before by D_2S = D_S (1 + E_S) / 2
    with E_S = exp(2i S r), and evaluates no sin or cos.  E_2S = E_S^2 is
    formed as E_S / conj(E_S), that is E_S^2 / |E_S|^2: squaring alone
    would double the rounding drift of |E_S| from 1 at every window,
    4000 eps in D after 13 doublings.  The closed form is taken at |r| and
    conjugated where r < 0, so D(-r) = conj D(r) does not rest on sin being
    odd to the bit; the recurrence's products and quotients keep it.
    """
    flip = r < 0
    x = np.abs(r, out=r)
    mean, phase, work = (np.empty(x.shape, complex) for _ in range(3))
    _closed_form(x, samples[0], mean, work)
    np.conjugate(mean, out=mean, where=flip)
    yield mean
    np.multiply(work, work, out=phase)              # E_S of the first window
    np.conjugate(phase, out=phase, where=flip)
    for _ in samples[1:]:
        np.multiply(phase, 0.5, out=work)
        work += 0.5
        mean *= work
        yield mean
        np.conjugate(phase, out=work)
        phase /= work


def _closed_form(x, s, mean, work):
    """exp(i (S-1) x) sin(S x) / (S sin x) at S = s into `mean`, with 1
    where sin x is 0, and exp(i S x) into `work`."""
    den = np.sin(x)
    np.cos(x, out=mean.real)
    np.negative(den, out=mean.imag)                 # exp(-i x)
    arg = s * x
    np.cos(arg, out=work.real)
    np.sin(arg, out=work.imag)                      # exp(i S x)
    mean *= work
    den *= s
    ratio = np.divide(work.imag, den, out=arg, where=den != 0)
    ratio[den == 0] = 1.0
    mean.real *= ratio
    mean.imag *= ratio


def _tile_means(cov, a, w, dt, samples, rows=_ALL, cols=_ALL):
    """Means of sigma(t) over the grid of each length in `samples`, one
    window at a time (a generator), from the covariance `cov`: the xx, xp
    and pp blocks stacked on the first axis, each on the tile rows x cols
    and, for a tile off the diagonal (`cols is not rows`), on its transpose
    cols x rows, stored transposed (the second axis picks the tile).  The
    next window overwrites them.

    The pair forms its half phases and Dirichlet factors once; the
    transposed tile takes the normal factor conjugated and the anomalous
    one as it is.  Each tile forms its own moments from its own block
    entries, so the two tiles' means are built independently.
    """
    ar, ac = a[rows], a[cols]
    aa = np.outer(ar, ac)
    pair = cols is not rows
    moments = np.empty((1 + pair, 2) + aa.shape, complex)
    a_rows = np.empty((1 + pair,) + aa.shape)   # a_j of each tile's rows
    moments[0], a_rows[0] = _moments(cov, a, rows, cols), ar[:, None]
    if pair:
        moments[1] = _moments(cov, a, cols, rows).transpose(0, 2, 1)
        a_rows[1] = ac
    product = np.empty_like(moments)
    blocks = np.empty((3,) + a_rows.shape)
    for factor in _dirichlet(_half_phases(w, dt, rows, cols), samples):
        np.multiply(factor, moments[0], out=product[0])
        if pair:
            np.conjugate(factor[0], out=product[1, 0])
            product[1, 0] *= moments[1, 0]
            np.multiply(factor[1], moments[1, 1], out=product[1, 1])
        yield _from_moments(product[:, 0], product[:, 1], aa, a_rows, blocks)


def _residual(blocks, diagonal=True):
    """Largest |xx| or |pp| off the diagonal, or any |xp|, of the blocks
    xx, xp and pp stacked on the first axis (each a tile or a stack of
    them); a tile off the diagonal (`diagonal` False) has no entry to
    skip.  The blocks are overwritten with their absolute values."""
    np.abs(blocks, out=blocks)
    if diagonal:
        i = np.arange(blocks.shape[-1])
        blocks[::2, ..., i, i] = 0.0
    return float(blocks.max())


# Largest |xp| entry at t = 0 that thermal_form_check does not flag, and the
# factor by which a window's residual may exceed the first window's c/T.
XP_TOL = 1e-10
DECAY_MARGIN = 3.0
# The check's window lengths and the step of their time grids t = j DT: each
# window holds twice the previous window's samples, 250 to 8000.
WINDOWS = (125, 250, 500, 1000, 2000, 4000)
DT = 0.5
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


def thermal_form_check(cov: CovarianceMatrix,
                       spec: QuenchSpec) -> ThermalFormReport:
    """Does the window-averaged covariance settle into diagonal (GGE) form?

    Two ingredients: the position-momentum block must vanish at t = 0
    (energy eigenstates guarantee this; an entry above `XP_TOL` is flagged
    since it breaks the purely oscillatory structure of the evolved
    off-diagonals), and the window-averaged off-diagonal residual must
    fall like c/T over the `WINDOWS` at step `DT`, with c the first
    window's times `DECAY_MARGIN`.  The report carries each window's
    residual (the largest |entry| off the diagonal of the window's mean
    covariance: off the diagonal of xx or pp, or anywhere in xp), their
    log-log slope and the occupancies of the largest window's average.

    The check walks the blocks in square tiles of edge `_TILE`, a tile and its
    transpose together: each pair forms one set of half phases and
    Dirichlet factors (the transposed tile takes them conjugated or
    transposed), each tile its own moments, then every window's
    Dirichlet-weighted means, which the 1e-10 symmetry guard compares
    against each other.  The first window takes the closed form; each
    later one doubles the samples and updates the factors by double-angle
    products.  Residuals, the flagged pairs and the diagonal of the last
    window are folded in tile by tile, so the working memory is a few tiles
    whatever K is.
    """
    win = np.array(WINDOWS, dtype=float)
    samples = [math.ceil(T / DT) for T in WINDOWS]     # t = j DT in [0, T)
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
            means = _tile_means(cov, a, w, DT, samples, rows, cols)
            for part, blocks in zip(parts, means):
                tile, other = blocks[::2, 0], blocks[::2, -1]   # xx and pp
                if diagonal:            # the last window's is the one kept
                    xx_diag[rows] = np.diagonal(tile[0])
                    pp_diag[rows] = np.diagonal(tile[1])
                else:                   # the transposed tile, stored transposed
                    other = np.swapaxes(other, 1, 2)
                _check_symmetric((tile, other))
                part.append(_residual(blocks, diagonal))
            del blocks, tile, other     # free this pair's tiles before the next
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
