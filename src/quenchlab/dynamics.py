"""Time evolution of occupation numbers and subsystem energies.

Occupations come from the joint-mode quadrature blocks of the initial
moments (`bogoliubov.Moments`): free evolution is a real phase-space
rotation by w't in each joint mode, so each block at time t is a sum of
the t = 0 blocks times outer products of cos w't and sin w't, O(K^2) real
work per time sample, and each pre-quench occupation is read back with one
real O(K^3) product per quadrature block and sample, in chunks under a
fixed byte budget, through one workspace reused by every chunk.  No
complex K x K array is formed per sample.  Phases are e^{-i w' t};
energies are hbar w'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import QuenchSpec, RunConfig, _number, _time_grid
from .bogoliubov import (IMAG_TOL, BogoliubovMap, ConsistencyError,
                         Moments, NumericalError, joint_energy)


# Working-set budget of one kernel chunk: the workspace of `_phase_kernel`
# holds 4 K x K float64 arrays a sample (c c^T, s s^T, one quadrature block
# and a scratch for the readout product), allocated once a call and reused
# by every chunk.  Of budgets from 0.5 to 4 MiB, 1 MiB was the fastest at
# the fig1 sizes (K = 15 to 25) and at K = 200 (BENCH_16.json); it is one
# sample a chunk from K = 129 on.
_CHUNK_BYTES = 1 << 20


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


@dataclass(frozen=True)
class FluctuationSeries:
    times: np.ndarray
    ratio: np.ndarray
    first_recurrence_time: Optional[float]
    recurrence_threshold: float
    relaxation_skip: float


def _phase_kernel(bog, corr, times):
    """<n_m(t)> for all pre-quench modes m and times t.

    Free evolution rotates each joint-mode quadrature pair, x -> x c + p s
    with c = cos w't and s = sin w't, so the blocks of the moments `corr`
    at time t are s_xx = xx o (c c^T) + pp o (s s^T) + 2 px o (s c^T) and
    s_pp = pp o (c c^T) + xx o (s s^T) - 2 px o (c s^T) (only their
    symmetric parts enter below, and the px terms are skipped for real
    moments).  The readout is n_m = ((A s_xx A^T + B s_pp B^T)_mm - 1)/2,
    A = alpha + beta, B = alpha - beta: one real O(K^3) product per block
    and sample, and one fused product and row sum.
    """
    xx, pp, px = corr.xx, corr.pp, corr.px
    a, b = bog.alpha + bog.beta, bog.alpha - bog.beta
    w, times = bog.omega_joint, np.asarray(times, dtype=float)
    K = w.size
    out = np.empty((times.size, K))
    step = max(1, _CHUNK_BYTES // (4 * 8 * K ** 2))
    shape = (min(step, times.size), K, K)
    cc, ss, block, scratch = (np.empty(shape) for _ in range(4))

    def readout(rows, first, second, u, v):
        """diag(rows S rows^T) of S = first o cc + second o ss + px o u v^T
        over the n samples of the chunk."""
        x, y = block[:n], scratch[:n]
        np.multiply(first, cc[:n], out=x)
        x += np.multiply(second, ss[:n], out=y)
        if px is not None:
            np.multiply(u[:, :, None], v[:, None, :], out=y)
            y *= px
            x += y
        np.matmul(rows, x, out=y)
        return np.einsum("nmk,mk->nm", y, rows)

    for start in range(0, times.size, step):
        wt = np.multiply.outer(times[start:start + step], w)
        c, s = np.cos(wt), np.sin(wt)
        n = len(wt)
        np.multiply(c[:, :, None], c[:, None, :], out=cc[:n])
        np.multiply(s[:, :, None], s[:, None, :], out=ss[:n])
        out[start:start + n] = 0.5 * (readout(a, xx, pp, 2.0 * s, c)
                                      + readout(b, pp, xx, -2.0 * c, s)) - 0.5
    return out


def long_time_average(bog: BogoliubovMap, corr: Moments) -> np.ndarray:
    """Infinite-time average of <n_m(t)>: only the stationary terms
    survive, the joint occupancies n' = diag(xx + pp)/2 - 1/2 of `corr`
    (real or evolved) with sum_k alpha_mk^2 n'_k + beta_mk^2 (n'_k + 1)."""
    n = corr.occupations
    return (bog.alpha ** 2) @ n + (bog.beta ** 2) @ (n + 1.0)


def long_time_energies(bog: BogoliubovMap, avg: np.ndarray) -> tuple:
    """Left and right chain energies hbar sum w (n + 1/2) of the long-time
    occupancies `avg` of the pre-quench modes."""
    w, N = bog.omega_pre, bog.n_left
    return (float(bog.hbar * np.sum(w[:N] * (avg[:N] + 0.5))),
            float(bog.hbar * np.sum(w[N:] * (avg[N:] + 0.5))))


def evolve_occupations(spec: QuenchSpec, bog: BogoliubovMap, corr: Moments,
                       times=None) -> ObservableSeries:
    """Occupation numbers and subsystem energies on a time grid: the spec's,
    or `times`, finite and strictly increasing (a ConfigError otherwise)."""
    if bog.total_size != spec.total_size:
        raise ConsistencyError("spec and map sizes differ")
    if len(corr.xx) != bog.total_size:
        raise ConsistencyError(f"moments of {len(corr.xx)} modes do not fit "
                               f"a map of {bog.total_size}")
    times = spec.time_grid if times is None else _time_grid(times, "times",
                                                            from_zero=False)
    n_t = _phase_kernel(bog, corr, times)
    low = np.min(n_t)
    if not low >= -1e-8:  # nan fails it too
        raise NumericalError(f"negative or undefined occupancy {low:.3e}")

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
    )


def fluctuation_series(series: ObservableSeries,
                       threshold=RunConfig.recurrence_threshold,
                       relaxation_skip=RunConfig.relaxation_skip
                       ) -> FluctuationSeries:
    """Normalized fluctuation of the right-chain energy around its average.

    ratio(t) = |E_M(t) - E_M_avg| / |E_M(0) - E_M_avg|.  The first
    recurrence is the earliest sample beyond the relaxation skip where the
    ratio climbs back above the threshold.  Both bounds are RunConfig's:
    a finite threshold > 0 and a finite skip >= 0, and the series' times
    start at t = 0 (a ValueError otherwise).
    """
    _time_grid(series.times, "times")
    threshold = _number("threshold", threshold, float, 0.0, strict=True)
    relaxation_skip = _number("relaxation_skip", relaxation_skip, float, 0.0,
                              strict=False)
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

