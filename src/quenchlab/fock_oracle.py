"""Truncated-Fock brute force for small joint chains.

A state is an (S, K) int16 array of unique occupation rows, one column per
joint mode, plus an (S,) amplitude vector. Operators act on packed integer
keys, not on rows: `_pack` writes each row as digits in a radix above any
entry the operator can reach, so raising mode k adds a fixed place value to
a key and lowering subtracts it. `_ladder_keys` writes the unmerged keys of
sum_k x_k c+_k + y_k c_k from the S packed rows, `_pair_keys` those of
sum_lk X_lk c+_k c+_l, and `_merge` sorts them, sums the amplitudes of
equal keys in the order they were written and rebuilds an int16 row only
for each unique key, from the row it came from; rows whose amplitudes
cancel are kept, so a support counts every occupation an operator reached.
Key order is the rows' numeric lexicographic order. The pre-quench
eigenstate is the squeezed-vacuum exponential, expanded as a power series,
with the Bogoliubov-expanded creation operators stacked on top. Every
read-out comes from one matrix of ladder images, [L R] with L_k = c_k psi
and R_k = c+_k psi (`_images`, which needs the keys only): the residuals
are column norms of its product with a coefficient matrix, and the state's
second moments, a real `bogoliubov.Moments` record, two blocks of its Gram
matrix G. Under the quadratic joint Hamiltonian those moments fix
<n_m(t)>, so the occupation series is `dynamics.evolve_occupations` on
them. This is the independent reference used to certify the quadratic
(correlator) route; it is only viable for a handful of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import QuenchSpec, FockExcitation, RunConfig, _number
from .bogoliubov import (BogoliubovMap, ConsistencyError, Moments,
                         build_bogoliubov, f_matrix)
from .dynamics import evolve_occupations


# largest squared-norm fraction a projection to the cutoff may discard
MAX_LEAKAGE = 0.01

# most bytes the work on one state may take, by _check_size's estimate:
# 3+4 chains at order 12 come to 3.4 GiB (0.7 GB measured), 4+4 to 15.9 GiB
MAX_BYTES = 5 << 30

# most bytes of one row block of a residual's product with the ladder
# images: on 60+60 chains at order 1 blocks of 1 to 4 MiB keep the peak RSS
# at 0.63 GB, the images' 567 MB and the interpreter (0.94 GB with the
# whole product), 8 MiB reads 0.64 GB and 64 MiB 0.79 GB
_BLOCK_BYTES = 1 << 22


class CutoffExceeded(ValueError):
    """Requested operation needs occupations the truncated basis cannot hold."""


def _check_size(occ, quanta=0):
    """Refuse, before allocating, work on the rows occ with `quanta` more
    stacked on. K modes holding up to q quanta make comb(q + K, K) rows; a
    ladder on them writes 2K packed keys per row, budgeted at 2K + 64 bytes
    each, which covers the key words (8 bytes per 64-bit word at most), the
    amplitude, the sort order and their sorted copies, and the matrix of its
    images takes 2K complex columns on comb(q + 1 + K, K) rows, its product
    with a coefficient matrix one row block of `_BLOCK_BYTES`."""
    K = occ.shape[1]
    q = int(occ.sum(axis=1).max()) + quanta
    rows = math.comb(q + K, K)
    need = (2 * K * rows * (2 * K + 64) + 32 * K * math.comb(q + 1 + K, K)
            + _BLOCK_BYTES)
    if need > MAX_BYTES:
        raise CutoffExceeded(
            f"{K} joint modes with up to {q} quanta make {rows} occupation "
            f"rows, whose ladders need about {need / 2**30:.1f} GiB "
            f"(limit {MAX_BYTES / 2**30:g} GiB)")


@dataclass(frozen=True)
class ExpandedState:
    """Normalized state: unique (S, K) occupation rows and (S,) amplitudes.

    `leakage` is the squared-norm fraction the projection to the cutoff
    discarded, and `dropped_occupation` the largest mean occupation of one
    mode that the discarded rows carried, max_k sum_r w_r n_rk over them with
    w the squared amplitudes over the whole norm: the scale of the
    truncation's error in the read-outs, where the leakage understates it.
    """

    occupations: np.ndarray
    amplitudes: np.ndarray
    leakage: float
    dropped_occupation: float

    @property
    def modes(self):
        return self.occupations.shape[1]

    def support_size(self):
        return len(self.amplitudes)


def _pack(occ, quanta):
    """Packed keys of the rows occ, one array per key word, most significant
    first, and the place value of each column in each word, a (words, K)
    array that is zero outside the column's word.

    The digits are the entries in radix max + quanta + 1, so a key stays a
    key when any entry gains up to `quanta`: raising mode k adds its place
    value and lowering subtracts it. The first column is the most
    significant, each uint64 word takes as many columns as it holds, and a
    key of one word takes the narrowest unsigned type. Key order is the rows'
    numeric lexicographic order.
    """
    S, K = occ.shape
    radix = (int(occ.max()) if S else 0) + quanta + 1
    width = 1
    while width < K and radix ** (width + 1) <= 1 << 64:
        width += 1
    kind = (np.min_scalar_type(radix ** K - 1) if width == K
            else np.dtype(np.uint64))
    digits = np.ascontiguousarray(occ).view(np.uint16)
    words, place = [], np.zeros((-(-K // width), K), kind)
    for w, start in enumerate(range(0, K, width)):
        stop = min(start + width, K)
        key = digits[:, start].astype(kind)
        for j in range(start + 1, stop):
            key *= radix
            key += digits[:, j]
        words.append(key)
        place[w, start:stop] = [radix ** (stop - 1 - j)
                                for j in range(start, stop)]
    return words, place


def _groups(words):
    """Stable sort order of packed keys (`_pack`'s words), and where each
    run of equal keys starts in that order."""
    order = (np.lexsort(words[::-1]) if len(words) > 1
             else np.argsort(words[0], kind="stable"))
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for word in words:
        word = word[order]
        first[1:] |= word[1:] != word[:-1]
    return order, np.flatnonzero(first)


def _merge(words, amps, rows):
    """Unique rows of raw packed keys, in key order, with the amplitudes of
    equal keys summed in the order they were written (which may carry a
    trailing axis); `rows` maps the raw positions picked, one per key, to
    their int16 rows."""
    order, first = _groups(words)
    amps = np.add.reduceat(amps[order], first, axis=0)
    pick = order[first]
    del order  # freed before the rows are rebuilt
    return rows(pick), amps


def _union(*parts):
    """Merge of (rows, amplitudes) parts, rows packed as they are."""
    occ, amp = (np.concatenate(x) for x in zip(*parts))
    return _merge(_pack(occ, 0)[0], amp, occ.__getitem__)


def _ladder_keys(psi, x, y):
    """Unmerged packed keys and amplitudes of (sum_k x_k c+_k + y_k c_k) psi,
    for `_merge`.

    Modes with a zero coefficient add no keys and lowering skips rows with
    n_k = 0, so the keys are exactly the occupations the operator reaches.
    Each key word is one array, written as the rows would be: every row
    raised in each mode with x_k != 0 (one broadcast add of place values),
    then, mode by mode, the rows with n_k > 0 lowered (a compress and a
    subtraction). Only the rows `_merge` picks are rebuilt, each from the
    source row it came from with one entry moved.
    """
    occ, amp = psi
    S, K = occ.shape
    up, down = np.flatnonzero(x), np.flatnonzero(y)
    live = occ[:, down].T > 0
    base, place = _pack(occ, 1)
    raised = len(up) * S
    size = raised + np.count_nonzero(live)
    words = [np.empty(size, place.dtype) for _ in base]
    amps = np.empty(size, np.result_type(x, y, 1.0, amp))
    for key, word, step in zip(words, base, place):
        np.add(word, step[up, None], out=key[:raised].reshape(len(up), S))
    np.multiply(x[up, None] * np.sqrt(occ[:, up].T + 1.0), amp,
                out=amps[:raised].reshape(len(up), S))
    end = raised
    for k, keep in zip(down, live):
        at, end = end, end + np.count_nonzero(keep)
        for key, word, step in zip(words, base, place):
            np.compress(keep, word, out=key[at:end])
            key[at:end] -= step[k]
        scale = y[k] * np.sqrt(occ[:, k].astype(float))
        np.multiply(np.compress(keep, scale), np.compress(keep, amp),
                    out=amps[at:end])

    modes = np.concatenate([up, down])

    def rows(pick):
        # a lowered key's place on the grid of (mode, source row) pairs
        low = pick >= raised
        pick[low] = raised + np.flatnonzero(live)[pick[low] - raised]
        block, src = np.divmod(pick, S)
        out = occ[src]
        out[np.arange(len(pick)), modes[block]] += np.where(
            low, np.int16(-1), np.int16(1))
        return out

    return words, amps, rows


def _ladder(psi, x, y):
    """Merged rows and amplitudes of (sum_k x_k c+_k + y_k c_k) psi."""
    return _merge(*_ladder_keys(psi, x, y))


def _pair_keys(psi, xs):
    """Unmerged packed keys and amplitudes of sum_lk X_lk c+_k c+_l psi,
    with X the rows xs, for `_merge`: c+_l, then the ladder with x = X_l,
    written l, then k, then source row, each product in that order."""
    occ, amp = psi
    S, K = occ.shape
    base, place = _pack(occ, 2)
    ups = [np.flatnonzero(x) for x in xs]
    size = S * sum(map(len, ups))
    words = [np.empty(size, place.dtype) for _ in base]
    amps = np.empty(size, np.result_type(xs, 1.0, amp))
    end = 0
    for l, up in enumerate(ups):
        at, end = end, end + len(up) * S
        for key, word, step in zip(words, base, place):
            np.add(word, (step[l] + step[up])[:, None],
                   out=key[at:end].reshape(len(up), S))
        n = occ[:, up].T + (up == l)[:, None]   # n_k after c+_l
        np.multiply(xs[l][up, None] * np.sqrt(n + 1.0),
                    np.sqrt(occ[:, l] + 1.0) * amp,
                    out=amps[at:end].reshape(len(up), S))
    ls = np.repeat(np.arange(K), list(map(len, ups)))
    ks = np.concatenate(ups)

    def rows(pick):
        pair, src = np.divmod(pick, S)
        out, at = occ[src], np.arange(len(pick))
        out[at, ls[pair]] += 1
        out[at, ks[pair]] += 1
        return out

    return words, amps, rows


def expand_squeezed_vacuum(f: np.ndarray, order: int):
    """Power series for exp(-1/2 sum_lk F_lk c+_l c+_k)|0> up to the given
    order, as (rows, amplitudes).

    Unnormalized and uncapped on purpose: callers stack creation operators
    first and project once at the end.
    """
    K = f.shape[0]
    # int16 rows exhaust memory long before they wrap; uint8 would wrap at
    # occupation 256, which order 128 reaches on a 1+1 chain
    term = (np.zeros((1, K), dtype=np.int16), np.ones(1))
    _check_size(term[0], 2 * order)
    terms = [term]
    for p in range(1, order + 1):
        term = _merge(*_pair_keys(term, -0.5 * f / p))
        terms.append(term)
    return _union(*terms)


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
            psi = _ladder(psi, bog.alpha[j], bog.beta[j])
    return psi


def _project(psi, cutoff: int) -> ExpandedState:
    """Keep the rows with every occupation <= cutoff and renormalize;
    refuse when the discarded squared-norm fraction exceeds MAX_LEAKAGE.
    The occupation the discarded rows carry is stated, not checked."""
    occ, amp = psi
    kept = occ.max(axis=1) <= cutoff
    weight = np.abs(amp) ** 2
    kept_weight = weight[kept].sum()
    leakage = 1.0 - kept_weight / weight.sum()
    if leakage > MAX_LEAKAGE:
        raise CutoffExceeded(
            f"projection to cutoff {cutoff} discards {leakage:.3e} of the "
            f"squared norm (limit {MAX_LEAKAGE:.3e})")
    dropped = weight[~kept] @ occ[~kept] / weight.sum()
    return ExpandedState(occ[kept], amp[kept] / np.sqrt(kept_weight),
                         float(leakage), float(np.max(dropped)))


def delocalization_count(state: ExpandedState, floor: float) -> int:
    """Number of basis amplitudes at or above the floor, a finite float
    > 0 as in RunConfig (a ValueError otherwise)."""
    floor = _number("floor", floor, float, 0.0, strict=True)
    return int(np.count_nonzero(np.abs(state.amplitudes) >= floor))


def _images(state: ExpandedState):
    """The (S', 2K) matrix [L R] of the state's ladder images. One ladder
    and one sort of its packed keys place every amplitude, and no row is
    rebuilt; the keys of one image are unique, so each amplitude goes
    straight to its place."""
    occ = state.occupations
    _check_size(occ)
    S, K = occ.shape
    words, amps, _ = _ladder_keys((occ, state.amplitudes), np.ones(K),
                                  np.ones(K))
    order, first = _groups(words)
    place = np.empty_like(order)
    place[order] = np.repeat(np.arange(0, 2 * K * len(first), 2 * K),
                             np.diff(first, append=len(order)))
    # the ladder writes c+_k psi for every k, then c_k psi where n_k > 0
    place += np.concatenate([np.repeat(np.arange(K, 2 * K), S),
                             np.repeat(np.arange(K),
                                       np.count_nonzero(occ > 0, axis=0))])
    del words, order  # freed before the image matrix is allocated
    out = np.zeros((len(first), 2 * K), amps.dtype)
    np.put(out, place, amps)
    return out


def _gram(images):
    """[L R]^H [L R], the Gram matrix of the ladder images [L R]."""
    return images.conj().T @ images


def _moments(images) -> Moments:
    """Second moments of the state with the real ladder images [L R], from
    two blocks of their Gram matrix G: <c+_l c_k> = (L_l, L_k) is G[:K, :K]
    and <c_l c_k> = (R_l, L_k) is G[K:, :K], so xx = <c+c> + <cc> + 1/2 and
    pp = <c+c> - <cc> + 1/2."""
    K = images.shape[1] // 2
    g = _gram(images)
    cdag_c, c_c = g[:K, :K], g[K:, :K]
    half = 0.5 * np.eye(K)
    return Moments(xx=cdag_c + c_c + half, pp=cdag_c - c_c + half)


def _fits(state: ExpandedState, what, *sizes):
    """Refuse `what` unless each of its sizes is the state's mode count."""
    if any(n != state.modes for n in sizes):
        raise ConsistencyError(
            f"{what} of size {' x '.join(map(str, sizes))} does not fit a "
            f"state of {state.modes} joint modes")


def _largest_norm(images, y, x):
    """max_m ||(sum_k y_mk c_k + x_mk c+_k) psi||, the largest column norm
    of [L R] [y^T; x^T] for the ladder images [L R], not read through
    `_gram`, where a norm near 1e-3 would lose about 5 digits. The product
    is formed in row blocks of at most `_BLOCK_BYTES`, its one temporary:
    each block's squares are summed column by column, a complex entry as
    its real and imaginary parts, and added to the running column sums."""
    coeff = np.concatenate([y.T, x.T])
    width = np.result_type(images, coeff).itemsize * coeff.shape[1]
    rows = max(1, _BLOCK_BYTES // width)
    squares = 0.0
    for start in range(0, len(images), rows):
        parts = (images[start:start + rows] @ coeff).view(float)
        squares = squares + np.einsum("ij,ij->j", parts, parts)
    return float(np.sqrt(np.max(squares.reshape(len(y), -1).sum(axis=1))))


def annihilation_residual(state: ExpandedState, bog: BogoliubovMap) -> float:
    """max_m ||a_m psi|| for a_m = sum_k alpha_mk c_k + beta_mk c+_k: zero
    in exact arithmetic for the expanded vacuum."""
    _fits(state, "map", bog.total_size)
    return _largest_norm(_images(state), bog.alpha, bog.beta)


def constraint_residual(state: ExpandedState, f: np.ndarray) -> float:
    """max_k ||(c_k + sum_l F_kl c+_l) psi||, the defining property of the
    squeezed vacuum. Creation parts are evaluated uncapped."""
    _fits(state, "F", *np.shape(f))
    return _largest_norm(_images(state), np.eye(state.modes), f)


def oracle_correlators(state: ExpandedState) -> Moments:
    """The state's second moments from its ladder images (`_moments`). No
    ladder is capped, so they are exact for the stored vector, and the
    commutator [c_l, c+_k] = delta_lk that the record assumes holds for it
    to rounding (4.4e-15 at most on seeded 2+2 quenches at cutoff 8). The
    record is real, so a state with complex amplitudes, such as an evolved
    one, is refused."""
    if np.iscomplexobj(state.amplitudes):
        raise ConsistencyError("the moments record is real; a state with "
                               "complex amplitudes has none")
    return _moments(_images(state))


def occupation_series(state: ExpandedState, spec: QuenchSpec,
                      bog: BogoliubovMap, times) -> np.ndarray:
    """<n_m(t)> for every pre-quench mode m: the occupation kernel of
    `dynamics.evolve_occupations` on the state's moments, which fix
    <n_m(t)> under the quadratic joint Hamiltonian. `times` must be finite
    and strictly increasing (a ConfigError otherwise), and the amplitudes
    real (`oracle_correlators`)."""
    _fits(state, "spec", spec.total_size)
    _fits(state, "map", bog.total_size)
    return evolve_occupations(spec, bog, oracle_correlators(state),
                              times).n_expect


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
        pair = _ladder((single.occupations, single.amplitudes),
                       bog.alpha[3], bog.beta[3])  # a+_4
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
