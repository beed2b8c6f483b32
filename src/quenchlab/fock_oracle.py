"""Truncated-Fock brute force for small joint chains.

A state is an (S, K) int16 array of unique occupation rows, one column per
joint mode, plus an (S,) amplitude vector. `_ladder` applies
sum_k x_k c+_k + y_k c_k and returns the raw rows, and `_merge` sorts rows
on packed integer keys, in the order of their bytes, and sums the
amplitudes of equal rows; rows whose amplitudes cancel are kept, so a
support counts every occupation an operator reached. The pre-quench
eigenstate is the squeezed-vacuum exponential, expanded as a power series,
with the Bogoliubov-expanded creation operators stacked on top. Every
read-out comes from one matrix of ladder images, [L R] with L_k = c_k psi
and R_k = c+_k psi (`_images`): the residuals are column norms of its
product with a coefficient matrix, the correlators its Gram matrix G, and,
as evolution only puts a phase on each image column, the occupation series
a quadratic form of G. This is the independent reference used to certify
the quadratic (correlator) route; it is only viable for a handful of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (QuenchSpec, FockExcitation, RunConfig, _number,
                    _time_grid, mode_frequencies)
from .bogoliubov import (BogoliubovMap, ConsistencyError, build_bogoliubov,
                         f_matrix)


# largest squared-norm fraction a projection to the cutoff may discard
MAX_LEAKAGE = 0.01

# most bytes the work on one state may take, by _check_size's estimate:
# 3+4 chains at order 12 come to 3.7 GiB (1.3 GB measured), 4+4 to 17.5 GiB
MAX_BYTES = 5 << 30


class CutoffExceeded(ValueError):
    """Requested operation needs occupations the truncated basis cannot hold."""


def _check_size(occ, quanta=0):
    """Refuse, before allocating, work on the rows occ with `quanta` more
    stacked on. K modes holding up to q quanta make comb(q + K, K) rows; a
    ladder on them writes 2K rows per row, of 2K bytes and some 64 more of
    amplitudes, scales and sort keys, and the matrix of its images takes
    2K complex columns on comb(q + 1 + K, K) rows, its product with a
    coefficient matrix K more."""
    K = occ.shape[1]
    q = int(occ.sum(axis=1).max()) + quanta
    rows = math.comb(q + K, K)
    need = 2 * K * rows * (2 * K + 64) + 48 * K * math.comb(q + 1 + K, K)
    if need > MAX_BYTES:
        raise CutoffExceeded(
            f"{K} joint modes with up to {q} quanta make {rows} occupation "
            f"rows, whose ladders need about {need / 2**30:.1f} GiB "
            f"(limit {MAX_BYTES / 2**30:g} GiB)")


@dataclass(frozen=True)
class ExpandedState:
    """Normalized state: unique (S, K) occupation rows and (S,) amplitudes."""

    occupations: np.ndarray
    amplitudes: np.ndarray
    leakage: float

    @property
    def modes(self):
        return self.occupations.shape[1]

    def support_size(self):
        return len(self.amplitudes)


@dataclass(frozen=True)
class CorrelationSet:
    """The oracle's four correlators of the joint modes, each measured on
    its own, so the commutator holds only as far as the truncation allows."""

    cdag_c: np.ndarray
    c_cdag: np.ndarray
    c_c: np.ndarray
    cdag_cdag: np.ndarray

    def commutator_defect(self):
        eye = np.eye(self.cdag_c.shape[0])
        return float(np.max(np.abs(self.c_cdag - self.cdag_c.T - eye)))


def _merge(*parts):
    """Stack (rows, amplitudes) parts; unique rows, sorted on their bytes,
    with the summed amplitudes (which may carry a trailing axis)."""
    occ, amp = (np.concatenate(x) if len(x) > 1 else x[0]
                for x in zip(*parts))
    occ = np.ascontiguousarray(occ)
    order, first = _groups(occ)
    return occ[order[first]], np.add.reduceat(amp[order], first, axis=0)


def _groups(occ):
    """Sort order of contiguous (S, K) int16 rows on their bytes, and where
    each run of equal rows starts in that order.

    The sort runs on packed unsigned keys. With every entry in [0, 256) the
    digits are the entries, in radix max + 1; otherwise they are the rows'
    bytes in memory order, in radix 256. Either way key order is byte order.
    Digits fill as few uint64 words as fit, first column most significant;
    a key that fits one word takes the narrowest unsigned type instead.
    """
    if not len(occ):
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    top = int(occ.max())
    if occ.min() >= 0 and top < 256:
        digits, radix = occ.view(np.uint16), top + 1
    else:
        digits, radix = occ.view(np.uint8), 256
    word_type = np.min_scalar_type(min(radix ** digits.shape[1], 1 << 64) - 1)
    words, span = [], 1
    for j in range(digits.shape[1]):
        if not words or span * radix > 1 << 64:
            words.append(digits[:, j].astype(word_type))
            span = radix
        else:
            span *= radix
            words[-1] *= radix
            words[-1] += digits[:, j]
    order = (np.lexsort(words[::-1]) if len(words) > 1
             else np.argsort(words[0], kind="stable"))
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for word in words:
        word = word[order]
        first[1:] |= word[1:] != word[:-1]
    return order, np.flatnonzero(first)


def _ladder_rows(occ, x, y):
    """Unmerged rows of (sum_k x_k c+_k + y_k c_k) applied to the rows occ,
    and the map from their amplitudes to the new rows' amplitudes.

    Modes with a zero coefficient add no rows and lowering drops rows with
    n_k = 0, so the result holds exactly the occupations the operator reaches.
    The raised rows, then the lowered rows, are written mode by mode into
    one array. The rows do not depend on the amplitudes, so one call serves
    every amplitude vector on occ.
    """
    S, K = occ.shape
    up, down = np.flatnonzero(x), np.flatnonzero(y)
    live = occ[:, down].T > 0
    raised = len(up) * S
    size = raised + np.count_nonzero(live)
    rows = np.empty((size, K), occ.dtype)
    scale = np.empty(size, np.result_type(x, y, 1.0))
    end = 0
    for k in up:
        at, end = end, end + S
        rows[at:end] = occ
        rows[at:end, k] += 1
        scale[at:end] = x[k] * np.sqrt(occ[:, k] + 1.0)
    for k, keep in zip(down, live):
        at, end = end, end + np.count_nonzero(keep)
        np.compress(keep, occ, axis=0, out=rows[at:end])
        rows[at:end, k] -= 1
        np.compress(keep, y[k] * np.sqrt(occ[:, k].astype(float)),
                    out=scale[at:end])

    def amplitudes(amp):
        out = np.empty(size, np.result_type(scale, amp))
        np.multiply(scale[:raised].reshape(len(up), S), amp,
                    out=out[:raised].reshape(len(up), S))
        np.multiply(scale[raised:], np.broadcast_to(amp, live.shape)[live],
                    out=out[raised:])
        return out

    return rows, amplitudes


def _ladder(psi, x, y):
    """Unmerged rows and amplitudes of (sum_k x_k c+_k + y_k c_k) psi."""
    rows, amplitudes = _ladder_rows(psi[0], x, y)
    return rows, amplitudes(psi[1])


def expand_squeezed_vacuum(f: np.ndarray, order: int):
    """Power series for exp(-1/2 sum_lk F_lk c+_l c+_k)|0> up to the given
    order, as (rows, amplitudes).

    Unnormalized and uncapped on purpose: callers stack creation operators
    first and project once at the end.
    """
    K = f.shape[0]
    unit, zero = np.eye(K), np.zeros(K)
    # int16 rows exhaust memory long before they wrap; uint8 would wrap at
    # occupation 256, which order 128 reaches on a 1+1 chain
    term = (np.zeros((1, K), dtype=np.int16), np.ones(1))
    _check_size(term[0], 2 * order)
    terms = [term]
    for p in range(1, order + 1):
        term = _merge(*(_ladder(_ladder(term, unit[l], zero), -0.5 * f[l] / p,
                                zero) for l in range(K)))
        terms.append(term)
    return _merge(*terms)


def expand_initial_state(spec: QuenchSpec, bog: BogoliubovMap, f: np.ndarray,
                         order: int,
                         cutoff: int = RunConfig.cutoff) -> ExpandedState:
    """Pre-quench Fock eigenstate written out in joint-mode amplitudes.

    Works uncapped so the annihilation parts of the stacked a+ operators can
    move weight back below the cutoff, then projects once at the end.
    Leakage is the squared-norm fraction the projection discards; above
    MAX_LEAKAGE the truncation is refused.
    """
    if order < 1:
        raise ValueError("expansion order must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    psi = _lift(expand_squeezed_vacuum(f, order), spec, bog)
    return _project(psi, cutoff)


def _lift(psi, spec: QuenchSpec, bog: BogoliubovMap):
    """Stack the pre-quench creation operators of spec's Fock state,
    a+_j = sum_k alpha_jk c+_k + beta_jk c_k, on the uncapped psi."""
    _check_size(psi[0], spec.initial_state.total)
    for j, nj in enumerate(spec.initial_state.occupations):
        for _ in range(nj):
            psi = _merge(_ladder(psi, bog.alpha[j], bog.beta[j]))
    return psi


def _project(psi, cutoff: int) -> ExpandedState:
    """Keep the rows with every occupation <= cutoff and renormalize;
    refuse when the discarded squared-norm fraction exceeds MAX_LEAKAGE."""
    occ, amp = psi
    kept = occ.max(axis=1) <= cutoff
    weight = np.abs(amp) ** 2
    kept_weight = weight[kept].sum()
    leakage = 1.0 - kept_weight / weight.sum()
    if leakage > MAX_LEAKAGE:
        raise CutoffExceeded(
            f"projection to cutoff {cutoff} discards {leakage:.3e} of the "
            f"squared norm (limit {MAX_LEAKAGE:.3e})")
    return ExpandedState(occ[kept], amp[kept] / np.sqrt(kept_weight),
                         float(leakage))


def delocalization_count(state: ExpandedState, floor: float) -> int:
    """Number of basis amplitudes at or above the floor, a finite float
    > 0 as in RunConfig (a ValueError otherwise)."""
    floor = _number("floor", floor, float, 0.0, strict=True)
    return int(np.count_nonzero(np.abs(state.amplitudes) >= floor))


def _images(state: ExpandedState):
    """The (S', 2K) matrix [L R] of the state's ladder images. One ladder
    and one sort find the merged rows; the rows of one image are unique, so
    each amplitude goes straight to its place."""
    occ = state.occupations
    _check_size(occ)
    S, K = occ.shape
    rows, amplitudes = _ladder_rows(occ, np.ones(K), np.ones(K))
    order, first = _groups(rows)
    place = np.empty_like(order)
    place[order] = np.repeat(np.arange(0, 2 * K * len(first), 2 * K),
                             np.diff(first, append=len(order)))
    # the ladder writes c+_k psi for every k, then c_k psi where n_k > 0
    place += np.concatenate([np.repeat(np.arange(K, 2 * K), S),
                             np.repeat(np.arange(K),
                                       np.count_nonzero(occ > 0, axis=0))])
    del rows, order  # freed before the image matrix is allocated
    out = np.zeros((len(first), 2 * K), np.result_type(1.0, state.amplitudes))
    np.put(out, place, amplitudes(state.amplitudes))
    return out


def _gram(state: ExpandedState):
    """[L R]^H [L R], the Gram matrix of the state's ladder images."""
    vecs = _images(state)
    return vecs.conj().T @ vecs


def _fits(state: ExpandedState, what, *sizes):
    """Refuse `what` unless each of its sizes is the state's mode count."""
    if any(n != state.modes for n in sizes):
        raise ConsistencyError(
            f"{what} of size {' x '.join(map(str, sizes))} does not fit a "
            f"state of {state.modes} joint modes")


def _largest_norm(state: ExpandedState, y, x):
    """max_m ||(sum_k y_mk c_k + x_mk c+_k) psi||, the largest column norm
    of [L R] [y^T; x^T], not read through `_gram`, where a norm near 1e-3
    would lose about 5 digits."""
    # no name holds the images, so they are freed before the norms' temporary
    product = _images(state) @ np.concatenate([y.T, x.T])
    return float(np.max(np.linalg.norm(product, axis=0)))


def annihilation_residual(state: ExpandedState, bog: BogoliubovMap) -> float:
    """max_m ||a_m psi|| for a_m = sum_k alpha_mk c_k + beta_mk c+_k: zero
    in exact arithmetic for the expanded vacuum."""
    _fits(state, "map", bog.total_size)
    return _largest_norm(state, bog.alpha, bog.beta)


def constraint_residual(state: ExpandedState, f: np.ndarray) -> float:
    """max_k ||(c_k + sum_l F_kl c+_l) psi||, the defining property of the
    squeezed vacuum. Creation parts are evaluated uncapped."""
    _fits(state, "F", *np.shape(f))
    return _largest_norm(state, np.eye(state.modes), f)


def oracle_correlators(state: ExpandedState) -> CorrelationSet:
    """All four quadratic correlators, the blocks of `_gram`.

    <c+_l c_k> = (L_l, L_k), <c+_l c+_k> = (L_l, R_k), <c_l c_k> = (R_l, L_k)
    and <c_l c+_k> = (R_l, R_k): the four blocks of [L R]^H [L R]. No
    ladder is capped, so the result is exact for the stored vector.
    """
    K = state.modes
    g = _gram(state)
    if np.max(np.abs(g.imag)) < 1e-14:
        g = g.real
    return CorrelationSet(cdag_c=g[:K, :K].copy(), cdag_cdag=g[:K, K:].copy(),
                          c_c=g[K:, :K].copy(), c_cdag=g[K:, K:].copy())


def occupation_series(state: ExpandedState, spec: QuenchSpec,
                      bog: BogoliubovMap, times) -> np.ndarray:
    """<n_m(t)> for every pre-quench mode m, via ||a_m psi(t)||^2.

    Evolution only rephases the image columns: c_k psi(t) and c+_k psi(t)
    are c_k psi e^{-i w'_k t} and c+_k psi e^{+i w'_k t}, each row times a
    phase no norm sees. So n_m(t) = u^H G u with G from `_gram`, formed
    once, and u = [e^{-i w' t} o alpha_m; e^{+i w' t} o beta_m]: O(K^3)
    work and no array larger than G a sample. It is accurate in absolute
    terms (about 1e-14), not relative to a small n_m: it sums entries of G
    of order 1. `times` must be finite and strictly increasing (a
    ConfigError otherwise).
    """
    _fits(state, "spec", spec.total_size)
    _fits(state, "map", bog.total_size)
    times = _time_grid(times, "times", from_zero=False)
    g = _gram(state)
    coefficients = np.concatenate([bog.alpha.T, bog.beta.T])
    w = mode_frequencies(spec.total_size, spec.omega0)
    w = np.concatenate([-w, w])[:, None]
    out = np.empty((len(times), state.modes))
    for i, t in enumerate(times):
        u = np.exp(1j * w * t) * coefficients
        out[i] = np.einsum("im,im->m", u.conj(), g @ u).real
    return out


def delocalization_table():
    """Support counts of expanded single and pair excitations vs bath size.

    The table1 geometry: N = 5 and M = 10, 16, 20, with one quantum in mode
    3 or one each in modes 3 and 4.  The expansion is first order
    (occupations never exceed four quanta there, so no projection discards
    anything), mirroring the regime where counting support by RunConfig's
    amplitude floor is meaningful.  The single is expanded once per bath
    size, and the pair is lifted from it: a+_4 a+_3|vac> = a+_4 (a+_3|vac>).
    """
    floor = RunConfig.floor
    rows = []
    grid = (0.0,)   # nothing evolves; the default grid would raise the peak
    for m_right in (10, 16, 20):
        total = 5 + m_right
        spec = QuenchSpec(5, m_right, FockExcitation.single(total, 3), grid)
        bog = build_bogoliubov(spec)
        single = expand_initial_state(spec, bog, f_matrix(bog), 1)
        pair = _merge(_ladder((single.occupations, single.amplitudes),
                              bog.alpha[3], bog.beta[3]))  # a+_4
        rows.append({
            "n_left": 5,
            "n_right": m_right,
            "single_count": delocalization_count(single, floor),
            "pair_count": delocalization_count(
                _project(pair, RunConfig.cutoff), floor),
            "floor": floor,
            "order": 1,
        })
    return rows
