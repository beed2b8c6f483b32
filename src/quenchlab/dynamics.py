"""Time evolution of occupation numbers and subsystem energies.

Occupations come from the joint-mode quadrature blocks of the initial
moments (`bogoliubov.Moments`).  Free evolution rotates each quadrature
pair, x -> x c + p s with c = cos w't and s = sin w't, so the blocks at
time t mix xx and pp through the products c_j c_k and s_j s_k, and only
the diagonal of (xx + pp)/2 survives the time average.  Each pre-quench
occupation is read back by one of two contractions, picked by the rank r
of the record's departure from the joint vacuum, the eigenpairs of
sym(xx) - I/2 and sym(pp) - I/2 above K eps times the largest:

- r < K, the factored kernel: each eigenpair rotates into a pair of
  rank-1 terms, so a sample costs one real (r x K) @ (K x K) product per
  quadrature block, O(K^2 r).  A joined bond squeezes the joint vacuum
  into a few dozen such pairs, and each quantum adds at most two.
- r >= K, the pair kernel: n_m(t) is linear in the K(K+1) pair phases
  c_j c_k and s_j s_k (j <= k), so a chunk of samples is one real
  (K x K(K+1)) @ (K(K+1) x n) product, K^3 multiply-adds a sample, run in
  a fixed shape whose bits depend neither on the chunking nor on the BLAS
  thread count.

Either runs in chunks through one workspace allocated once a call and
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


# Working-set budget of one factored-kernel chunk: 2 r x K float64 arrays a
# sample (the phased eigenvector rows and one W/Y product that both blocks
# share) and 4 length-K vectors (the phases, c, s and one readout row),
# allocated once a call and reused by every chunk; five samples a chunk at
# K = 200, r = 62, which read the same at 512 KiB (BENCH_32.json).
_CHUNK_BYTES = 1 << 20

# The pair kernel's product shape, fixed so that its bits depend neither on
# the chunking nor on the BLAS thread count: a coefficient slice holds the
# c_j c_k and s_j s_k rows of _PAIRS pairs, so one matmul sums at most 128
# terms, and a chunk holds _SAMPLES samples (the last one padded to a
# multiple of 8), written samples-fastest so that they are the product's
# row dimension.  Forming a slice costs about as much as 100 samples'
# products with it, so the chunk is a sample count, not a byte budget: at
# 512 KiB a budget would hold fewer than 256 samples from K = 27 on, and
# full-rank records at K = 200, T = 2001 took 1.33-1.48 s with 128 samples
# a chunk against 1.00-1.15 s with 256 (K = 480, T = 401: 3.6-3.8 against
# 3.0-3.4 s).  The workspace is 8 (4K + 128) bytes a sample beside one
# 3 x _PAIRS x K slice, 0.5 MB at fig1's K = 25; over fig1's three
# configs, budgets of 512 KiB and 1 MiB read 13.9-14.4 and 14.2-14.3 ms in
# process, 256 KiB 20 ms.
_PAIRS = 64
_SAMPLES = 256


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
    and otherwise the pair kernel, K^3 multiply-adds a sample on the
    record as it is.  With one quantum at N:M = 1:2 and T = 2001 the pair
    kernel was the faster up to K = 100 (r = 54) and the factored one from
    K = 140 (r = 56); at T = 101 the factored one was the faster from
    K = 100 (BENCH_32.json).
    """
    times = np.asarray(times, dtype=float)
    factors = _factors(corr)
    if factors[0].size < bog.omega_joint.size:
        return _factored_kernel(bog, factors, times)
    del factors                      # 2K eigenvector rows the pairs never read
    return _pair_kernel(bog, corr, times)


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


def _pair_slices(K):
    """The pairs j <= k of K modes, row by row, cut into slices of `_PAIRS`
    (the last one shorter): each slice is a list of runs (r0, r1, j, k0),
    rows r0:r1 of the slice holding the pairs (j, k0), (j, k0 + 1), ..."""
    slices, runs, size = [], [], 0
    for j in range(K):
        k = j
        while k < K:
            take = min(K - k, _PAIRS - size)
            runs.append((size, size + take, j, k))
            size += take
            k += take
            if size == _PAIRS:
                slices.append(runs)
                runs, size = [], 0
    if runs:
        slices.append(runs)
    return slices


def _pair_kernel(bog, corr, times):
    """The readout on the pair phases of the record as it is.

    With xx and pp symmetrized, the blocks at time t are
    xx(t)_jk = xx_jk c_j c_k + pp_jk s_j s_k and
    pp(t)_jk = pp_jk c_j c_k + xx_jk s_j s_k, so each pair j <= k enters
    n_m(t) only through c_j c_k and s_j s_k:

        n_m(t) = sum_{j<=k} (H_jk S_mjk + Q_jk D_mjk) c_j c_k
                            + (H_jk S_mjk - Q_jk D_mjk) s_j s_k  -  1/2

    with H = e (xx + pp)/2 and Q = e (xx - pp)/2, e = 1/2 on the diagonal
    and 1 above it, and S, D = A_mj A_mk +- B_mj B_mk.  A chunk of n
    samples is one real (K x K(K+1)) @ (K(K+1) x n) product, K^3
    multiply-adds a sample, in the fixed shape of `_PAIRS` and `_SAMPLES`:
    slices of at most 128 terms, one matmul each into a (K x n) sum, added
    in slice order, and n a multiple of 8.  A slice's coefficient rows are
    formed again for every chunk, so that no O(K^3) array is held; its
    phase rows c_j c_k and s_j s_k are products of one row of c or s with
    a run of rows.
    """
    at = np.add(bog.alpha.T, bog.beta.T, order="C")       # row j: A[:, j]
    bt = np.subtract(bog.alpha.T, bog.beta.T, order="C")
    w = bog.omega_joint
    K, T = w.size, times.size
    upper = ~np.tri(K, k=-1, dtype=bool)                 # the pairs j <= k
    hop = np.add(corr.xx, corr.xx.T)[upper]
    pair = hop.copy()
    sym = np.add(corr.pp, corr.pp.T)[upper]
    hop += sym                                           # 4 H and 4 Q
    pair -= sym
    del sym, upper
    diagonal = np.cumsum(np.arange(K + 1, 1, -1)) - K - 1
    for weights in (hop, pair):
        weights[diagonal] *= 0.5
        weights *= 0.25
    slices = _pair_slices(K)
    depth = min(_SAMPLES, -(-T // 8) * 8)
    coefs, spare = np.empty(2 * _PAIRS * K), np.empty(_PAIRS * K)
    cosines, sines, products, sums = (np.empty(K * depth) for _ in range(4))
    phases, grid = np.empty(2 * _PAIRS * depth), np.zeros(depth)
    out = np.empty((T, K))

    for start in range(0, T, _SAMPLES):
        n = min(_SAMPLES, T - start)
        size = -(-n // 8) * 8
        grid[:n] = times[start:start + n]
        grid[n:size] = 0.0                     # padding, dropped below
        c, s, prod, acc = (buf[:K * size].reshape(K, size)
                           for buf in (cosines, sines, products, sums))
        np.multiply.outer(w, grid[:size], out=prod)
        np.cos(prod, out=c)
        np.sin(prod, out=s)
        for i, runs in enumerate(slices):
            q, lo = runs[-1][1], i * _PAIRS
            coef = coefs[:2 * q * K].reshape(2 * q, K)
            phase = phases[:2 * q * size].reshape(2 * q, size)
            total, diff = coef[:q], spare[:q * K].reshape(q, K)
            for r0, r1, j, k in runs:
                k1 = k + r1 - r0
                np.multiply(at[k:k1], at[j], out=total[r0:r1])
                np.multiply(bt[k:k1], bt[j], out=coef[q + r0:q + r1])
                np.multiply(c[k:k1], c[j], out=phase[r0:r1])
                np.multiply(s[k:k1], s[j], out=phase[q + r0:q + r1])
            np.subtract(total, coef[q:], out=diff)             # D
            total += coef[q:]                                  # S
            total *= hop[lo:lo + q, None]
            diff *= pair[lo:lo + q, None]
            np.subtract(total, diff, out=coef[q:])             # s_j s_k rows
            total += diff                                      # c_j c_k rows
            if i == 0:
                np.matmul(coef.T, phase, out=acc)
            else:
                np.matmul(coef.T, phase, out=prod)
                acc += prod
        np.subtract(acc[:, :n].T, 0.5, out=out[start:start + n])
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

