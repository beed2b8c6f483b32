"""Time evolution of occupation numbers and subsystem energies.

Occupations come from the joint-mode quadrature blocks of the initial
moments (`bogoliubov.Moments`).  Free evolution splits them into two beats:
the normal part hop = (xx + pp)/2 dephases at the differences w'_j - w'_k,
the anomalous part pair = (xx - pp)/2 oscillates at the sums w'_j + w'_k,
and only the diagonal of hop survives the time average.  Each pre-quench
occupation is read back by one of two contractions, picked by the rank r
of the record's departure from the joint vacuum, the eigenpairs of
sym(xx) - I/2 and sym(pp) - I/2 above K eps times the largest:

- r < K, the factored kernel: each eigenpair rotates into a pair of
  rank-1 terms, so a sample costs one real (r x K) @ (K x K) product per
  quadrature block, O(K^2 r).  A joined bond squeezes the joint vacuum
  into a few dozen such pairs, and each quantum adds at most two.
- r >= K, the beat kernel: each beat matrix is one rank-2 product of
  c = cos w't and s = sin w't, so the blocks at time t cost O(K^2) real
  work per sample, and the readout one real O(K^3) product per block.

Either runs in chunks under a fixed byte budget, through one workspace
reused by every chunk.  No complex K x K array is formed per sample.
Phases are e^{-i w' t}; energies are hbar w'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import QuenchSpec, RunConfig, _number, _time_grid
from .bogoliubov import (IMAG_TOL, BogoliubovMap, ConsistencyError,
                         Moments, NumericalError, joint_energy)


# Working-set budget of one kernel chunk.  The beat kernel's workspace holds
# 3 K x K float64 arrays a sample (the two beats, then the blocks at time t
# and the readout product) and 6 length-K vectors (the time phases, the
# rank-2 factors [c s] and [c s]^T and one readout row); the factored
# kernel's holds 2 r x K arrays a sample (the phased eigenvector rows and
# one W/Y product that both blocks share) and 4 length-K vectors (the
# phases, c, s and one readout row).  Either is allocated once a call and
# reused by every chunk.  Of budgets from 0.5 to 4 MiB, 1 MiB was the
# fastest for the beat kernel at the fig1 sizes (K = 15 to 25) and at
# K = 200 (BENCH_28.json); it is one beat sample a chunk from K = 147 on,
# and five factored samples a chunk at K = 200, r = 62.
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
    with c = cos w't and s = sin w't, and the readout is
    n_m = ((A xx(t) A^T + B pp(t) B^T)_mm - 1)/2 with A = alpha + beta and
    B = alpha - beta.  The eigenpairs of X = sym(xx) - I/2 and
    P = sym(pp) - I/2 that `_factors` keeps, r = rx + rp of the 2K, pick
    the contraction: the factored kernel, O(K^2 r) a sample, when r < K,
    and otherwise the beat kernel, O(K^3) a sample on the record as it
    is.  The two cost about the same near r = K (measured at K = 40 to
    140).
    """
    times = np.asarray(times, dtype=float)
    factors = _factors(corr)
    if factors[0].size < bog.omega_joint.size:
        return _factored_kernel(bog, factors, times)
    return _beat_kernel(bog, corr, times)


def _factors(corr):
    """(lam, rows, rx): the eigenvalues of X = sym(xx) - I/2, then those of
    P = sym(pp) - I/2, each with |lam| > K eps max|lam| over both blocks,
    and their eigenvectors as the rows of `rows`, the first rx of X."""
    K = len(corr.xx)
    pairs = []
    for block in (corr.xx, corr.pp):
        x = np.add(block, block.T)
        x *= 0.5
        x.flat[::K + 1] -= 0.5
        pairs.append(np.linalg.eigh(x))
        del x
    top = max(float(np.max(np.abs(lam), initial=0.0)) for lam, _ in pairs)
    cut = K * np.finfo(float).eps * top
    keep = [np.abs(lam) > cut for lam, _ in pairs]
    lam = np.concatenate([lam[k] for (lam, _), k in zip(pairs, keep)])
    rows = np.concatenate([vec[:, k].T for (_, vec), k in zip(pairs, keep)])
    return lam, rows, int(np.count_nonzero(keep[0]))


def _factored_kernel(bog, factors, times):
    """The readout on the eigenpairs (lam_r, q_r) of X and P (`_factors`).

    The identity part of xx(t) and pp(t) is I/2 at every t, and each
    eigenpair of X or P rotates into a pair of rank-1 terms, so

        n_m(t) = (1/4) sum_k (A_mk^2 + B_mk^2) - 1/2
                 + (1/2) sum_r lam_r [(A (u o q_r))_m^2 + (B (v o q_r))_m^2]

    with (u, v) = (c, s) for the X eigenvectors and (s, c) for the P ones.
    That is one (r x K) @ (K x K) product per block and sample, run as a
    matmul over a leading sample axis, so that no product mixes samples
    and the bits do not depend on the chunking; W = [u o q_r] A^T and then
    Y = [v o q_r] B^T share one workspace.
    """
    lam, rows, rx = factors
    at, bt = (bog.alpha + bog.beta).T, (bog.alpha - bog.beta).T
    base = np.einsum("km,km->m", at, at)
    base += np.einsum("km,km->m", bt, bt)
    base *= 0.25
    base -= 0.5
    w = bog.omega_joint
    K, r = w.size, lam.size
    out = np.empty((times.size, K))
    step = max(1, _CHUNK_BYTES // (8 * (2 * r * K + 4 * K)))
    depth = min(step, times.size)
    phased, product = np.empty((depth, r, K)), np.empty((depth, r, K))
    wt, cos, sin, row = (np.empty((depth, K)) for _ in range(4))

    for start in range(0, times.size, step):
        n = min(step, times.size - start)
        lhs, prod, phase = phased[:n], product[:n], wt[:n]
        c, s = cos[:n, None], sin[:n, None]
        np.multiply.outer(times[start:start + n], w, out=phase)
        np.cos(phase, out=c[:, 0])
        np.sin(phase, out=s[:, 0])
        chunk = out[start:start + n]
        for u, v, mat, acc in ((c, s, at, chunk), (s, c, bt, row[:n])):
            np.multiply(rows[:rx], u, out=lhs[:, :rx])
            np.multiply(rows[rx:], v, out=lhs[:, rx:])
            np.matmul(lhs, mat, out=prod)            # W, then Y
            np.square(prod, out=prod)
            np.matmul(lam, prod, out=acc)
        chunk += row[:n]
        chunk *= 0.5
        chunk += base
    return out


def _beat_kernel(bog, corr, times):
    """The readout on the two beats of the record as it is.

    With hop = (xx + pp)/2 and pair = (xx - pp)/2 from the moments `corr`,
    whose px block vanishes, the blocks at time t are xx(t) = U + V and
    pp(t) = U - V, where

        U = hop o cos(D t),  D_jk = w'_j - w'_k,
        V = pair o cos(S t),  S_jk = w'_j + w'_k.

    Each beat matrix is one rank-2 product of the per-mode phases,
    cos(D t) = [c s][c s]^T and cos(S t) = [c -s][c s]^T, and
    pair o cos(S t) is formed as xx o cos(S t) - hop o cos(S t), so that no
    pair array is held.  The readout is one real O(K^3) product per block
    and sample, and one fused product and row sum.
    """
    xx, pp = corr.xx, corr.pp
    a, b = bog.alpha + bog.beta, bog.alpha - bog.beta
    hop = np.add(xx, pp)
    hop *= 0.5
    w = bog.omega_joint
    K = w.size
    out = np.empty((times.size, K))
    step = max(1, _CHUNK_BYTES // (8 * (3 * K * K + 6 * K)))
    depth = min(step, times.size)
    beat, other, block = (np.empty((depth, K, K)) for _ in range(3))
    left, right = np.empty((depth, K, 2)), np.empty((depth, 2, K))
    wt, row = np.empty((depth, K)), np.empty((depth, K))

    for start in range(0, times.size, step):
        n = min(step, times.size - start)
        u, v, x = beat[:n], other[:n], block[:n]
        lhs, rhs, phase = left[:n], right[:n], wt[:n]
        c, s = rhs[:, 0], rhs[:, 1]
        np.multiply.outer(times[start:start + n], w, out=phase)
        np.cos(phase, out=c)
        np.sin(phase, out=s)
        lhs[:, :, 0] = c
        np.negative(s, out=lhs[:, :, 1])
        np.matmul(lhs, rhs, out=v)                  # cos(S t)
        np.multiply(xx, v, out=x)
        v *= hop
        x -= v                                      # pair o cos(S t)
        lhs[:, :, 1] = s
        np.matmul(lhs, rhs, out=u)                  # cos(D t)
        u *= hop
        np.add(u, x, out=v)                         # xx(t) = U + V
        u -= x                                      # pp(t) = U - V
        np.matmul(a, v, out=x)
        np.einsum("nmk,mk->nm", x, a, out=row[:n])
        np.matmul(b, u, out=x)
        chunk = out[start:start + n]
        np.einsum("nmk,mk->nm", x, b, out=chunk)
        chunk += row[:n]
        chunk *= 0.5
        chunk -= 0.5
    return out


def long_time_average(bog: BogoliubovMap, corr: Moments) -> np.ndarray:
    """Infinite-time average of <n_m(t)>: only the stationary terms
    survive, the joint occupancies n' = diag(xx + pp)/2 - 1/2 of `corr`
    with sum_k alpha_mk^2 n'_k + beta_mk^2 (n'_k + 1)."""
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

