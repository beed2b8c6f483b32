"""Time evolution of occupation numbers and subsystem energies.

Occupations use the covariance route's propagator (`covariance._rephase`):
the normal and anomalous moments of the initial correlators pick up their
phases elementwise, O(K^2) per time sample, and each pre-quench occupation
is read back with one real O(K^3) product per quadrature block and sample,
in chunks under a fixed byte budget, through one workspace reused by every
chunk.  Phases are e^{-i w' t}; energies are hbar w'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import QuenchSpec, RunConfig
from .bogoliubov import BogoliubovMap, CorrelationSet, ConsistencyError, joint_energy
from .covariance import _rephase


# Working-set budget of one kernel chunk, which the step rule in
# `_phase_kernel` fills at 8 K x K float64 arrays a sample.  The workspace
# takes 5 of them (one complex phased moment, s_xx, s_pp and the readout
# product), allocated once a call and reused by every chunk.
_CHUNK_BYTES = 4 << 20
# Largest correlator Hermiticity defect the kernel accepts.
IMAG_TOL = 1e-8


class NumericalError(ArithmeticError):
    """A numeric sanity bound was violated (for instance imaginary residue)."""


class DegenerateInitial(ValueError):
    """The initial fluctuation is zero, the normalized ratio is undefined."""


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    n_expect: np.ndarray        # shape (T, N+M)
    e_left: np.ndarray
    e_right: np.ndarray
    e_total_joint: float
    long_time_avg: np.ndarray
    e_left_avg: float
    e_right_avg: float
    n_left: int
    n_right: int


@dataclass(frozen=True)
class FluctuationSeries:
    times: np.ndarray
    ratio: np.ndarray
    first_recurrence_time: Optional[float]
    recurrence_threshold: float
    relaxation_skip: float


@dataclass(frozen=True)
class PerModeEnergy:
    times: np.ndarray
    left: np.ndarray            # E_N(t)/N
    right: np.ndarray           # E_M(t)/M
    left_avg: float
    right_avg: float


def _phase_kernel(bog, corr, times):
    """<n_m(t)> for all pre-quench modes m and times t.

    Rephases the normal moments (1/2)<{c_j^dag, c_k}> and the anomalous
    <c_j c_k>, whose sum and difference have as real parts the covariances
    s_xx, s_pp of (c + c^dag)/sqrt2 and i(c^dag - c)/sqrt2, and reads
    n_m = ((A s_xx A^T + B s_pp B^T)_mm - 1)/2, A = alpha + beta,
    B = alpha - beta.  Non-Hermitian correlators, which would leave an
    imaginary part in <n_m(t)>, are refused.
    """
    c1, c2, c3, c4 = corr.cdag_c, corr.cdag_cdag, corr.c_c, corr.c_cdag
    defect = max(float(np.max(np.abs(x - np.conj(y).T)))
                 for x, y in ((c1, c1), (c4, c4), (c2, c3)))
    if defect > IMAG_TOL:
        raise NumericalError(
            f"imaginary residue: correlator Hermiticity defect {defect:.3e} "
            f"exceeds {IMAG_TOL:g}")
    normal, anomalous = 0.5 * (c1 + c4.T), 0.5 * (c3 + np.conj(c2).T)
    a, b = bog.alpha + bog.beta, bog.alpha - bog.beta
    w, times = bog.omega_joint, np.asarray(times, dtype=float)
    K = w.size
    out = np.empty((times.size, K))
    step = max(1, _CHUNK_BYTES // (8 * 8 * K ** 2))
    shape = (min(step, times.size), K, K)
    phased = np.empty(shape, dtype=complex)
    s_xx, s_pp, product = np.empty(shape), np.empty(shape), np.empty(shape)
    for start in range(0, times.size, step):
        e = np.exp(1j * np.multiply.outer(times[start:start + step], w))
        ec = e.conj()
        n = len(e)
        ph, xx, pp, prod = phased[:n], s_xx[:n], s_pp[:n], product[:n]
        _rephase(normal, e, ec, out=ph)
        np.copyto(xx, ph.real)
        np.copyto(pp, ph.real)
        _rephase(anomalous, ec, ec, out=ph)
        xx += ph.real
        pp -= ph.real
        np.matmul(a, xx, out=prod)
        prod *= a
        n_a = np.sum(prod, axis=-1)
        np.matmul(b, pp, out=prod)
        prod *= b
        out[start:start + n] = 0.5 * (n_a + np.sum(prod, axis=-1)) - 0.5
    return out


def long_time_average(bog: BogoliubovMap, corr: CorrelationSet) -> np.ndarray:
    """Infinite-time average of <n_m(t)>: only the diagonal (stationary)
    terms survive; the real diagonals of Hermitian correlators enter."""
    return ((bog.alpha ** 2) @ np.diagonal(corr.cdag_c).real
            + (bog.beta ** 2) @ np.diagonal(corr.c_cdag).real)


def long_time_energies(bog: BogoliubovMap, avg: np.ndarray) -> tuple:
    """Left and right chain energies hbar sum w (n + 1/2) of the long-time
    occupancies `avg` of the pre-quench modes."""
    w, N = bog.omega_pre, bog.n_left
    return (float(bog.hbar * np.sum(w[:N] * (avg[:N] + 0.5))),
            float(bog.hbar * np.sum(w[N:] * (avg[N:] + 0.5))))


def evolve_occupations(spec: QuenchSpec, bog: BogoliubovMap, corr: CorrelationSet,
                       times=None) -> ObservableSeries:
    """Occupation numbers and subsystem energies on a time grid."""
    corr.validate()
    if bog.total_size != spec.total_size:
        raise ConsistencyError("spec and map sizes differ")
    times = spec.time_grid if times is None else np.asarray(times, dtype=float)
    n_t = _phase_kernel(bog, corr, times)
    if np.min(n_t) < -1e-8:
        raise NumericalError(f"negative occupancy {np.min(n_t):.3e}")

    hbar = spec.hbar
    omega = bog.omega_pre
    N = spec.n_left
    e_left = hbar * (n_t[:, :N] + 0.5) @ omega[:N]
    e_right = hbar * (n_t[:, N:] + 0.5) @ omega[N:]
    avg = long_time_average(bog, corr)
    e_left_avg, e_right_avg = long_time_energies(bog, avg)
    return ObservableSeries(
        times=times,
        n_expect=n_t,
        e_left=e_left,
        e_right=e_right,
        e_total_joint=joint_energy(bog, corr),
        long_time_avg=avg,
        e_left_avg=e_left_avg,
        e_right_avg=e_right_avg,
        n_left=N,
        n_right=spec.n_right,
    )


def fluctuation_series(series: ObservableSeries,
                       threshold=RunConfig.recurrence_threshold,
                       relaxation_skip=RunConfig.relaxation_skip
                       ) -> FluctuationSeries:
    """Normalized fluctuation of the right-chain energy around its average.

    ratio(t) = |E_M(t) - E_M_avg| / |E_M(0) - E_M_avg|.  The first
    recurrence is the earliest sample beyond the relaxation skip where the
    ratio climbs back above the threshold.
    """
    denom = abs(series.e_right[0] - series.e_right_avg)
    if denom < 1e-12:
        raise DegenerateInitial("E_M starts at its long-time average")
    ratio = np.abs(series.e_right - series.e_right_avg) / denom
    ratio[0] = 1.0
    first = None
    mask = (series.times > relaxation_skip) & (ratio >= threshold)
    hits = np.nonzero(mask)[0]
    if hits.size:
        first = float(series.times[hits[0]])
    return FluctuationSeries(
        times=series.times,
        ratio=ratio,
        first_recurrence_time=first,
        recurrence_threshold=threshold,
        relaxation_skip=relaxation_skip,
    )


def per_mode_energy(series: ObservableSeries, spec: QuenchSpec) -> PerModeEnergy:
    N, M = spec.n_left, spec.n_right
    return PerModeEnergy(
        times=series.times,
        left=series.e_left / N,
        right=series.e_right / M,
        left_avg=series.e_left_avg / N,
        right_avg=series.e_right_avg / M,
    )
