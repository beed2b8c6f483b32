"""Truncated-Fock brute force for small joint chains.

A state is an (S, K) int16 array of unique occupation rows, one column per
joint mode, plus an (S,) amplitude vector. Two helpers do all the work:
`_ladder` applies sum_k x_k c+_k + y_k c_k and returns the raw rows, and
`_merge` sorts rows on their bytes and sums the amplitudes of equal rows.
Their row halves, `_ladder_rows` and `_groups`, depend on the rows alone,
so the occupation series finds them once and reuses them at every sample.
Merged rows whose amplitudes cancel are kept, so a support counts every
occupation an operator reached. The pre-quench eigenstate is reconstructed
in the joint basis by expanding the squeezed-vacuum exponential as a power
series and applying the Bogoliubov-expanded creation operators on top.
Evolution is a diagonal phase. This is the independent reference used to
certify the quadratic (correlator) route; it is only viable for a handful
of modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import QuenchSpec, FockExcitation, RunConfig, mode_frequencies
from .bogoliubov import BogoliubovMap, CorrelationSet, build_bogoliubov, f_matrix


# largest squared-norm fraction a projection to the cutoff may discard
MAX_LEAKAGE = 0.01


class CutoffExceeded(ValueError):
    """Requested operation needs occupations the truncated basis cannot hold."""


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


def _merge(*parts):
    """Stack (rows, amplitudes) parts; unique rows, sorted on their bytes,
    with the summed amplitudes (which may carry a trailing axis)."""
    if len(parts) > 1:  # a lone part is not copied: the rows dominate memory
        parts = [(np.concatenate([o for o, _ in parts]),
                  np.concatenate([a for _, a in parts]))]
    occ, amp = parts[0]
    occ = np.ascontiguousarray(occ)
    order, first = _groups(occ)
    return occ[order[first]], np.add.reduceat(amp[order], first, axis=0)


def _groups(occ):
    """Sort order of contiguous (S, K) rows on their bytes, and where each
    run of equal rows starts in that order."""
    key = occ.view(np.dtype((np.void, occ.dtype.itemsize * occ.shape[1])))
    key = key.ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return order, np.flatnonzero(first)


def _ladder_rows(occ, x, y):
    """Unmerged rows of (sum_k x_k c+_k + y_k c_k) applied to the rows occ,
    and the map from their amplitudes to the new rows' amplitudes.

    Modes with a zero coefficient add no rows and lowering drops rows with
    n_k = 0, so the result holds exactly the occupations the operator reaches.
    The rows do not depend on the amplitudes, so one call serves every
    amplitude vector on occ.
    """
    shift = np.eye(occ.shape[1], dtype=occ.dtype)
    up, down = np.flatnonzero(x), np.flatnonzero(y)
    n_up, n_down = occ[:, up].T + 1.0, occ[:, down].T.astype(float)
    live = n_down > 0
    rows = np.concatenate([(occ + shift[up, None]).reshape(-1, occ.shape[1]),
                           (occ - shift[down, None])[live]])
    raise_by = x[up, None] * np.sqrt(n_up)
    lower_by = y[down, None] * np.sqrt(n_down)

    def amplitudes(amp):
        return np.concatenate([(raise_by * amp).ravel(),
                               (lower_by * amp)[live]])

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
    terms = [term]
    for p in range(1, order + 1):
        term = _merge(*(_ladder(_ladder(term, unit[l], zero), -0.5 * f[l] / p,
                                zero) for l in range(K)))
        terms.append(term)
    return _merge(*terms)


def expand_initial_state(spec: QuenchSpec, bog: BogoliubovMap, f: np.ndarray,
                         order: int, cutoff: int = 8,
                         max_leakage: float = MAX_LEAKAGE) -> ExpandedState:
    """Pre-quench Fock eigenstate written out in joint-mode amplitudes.

    Works uncapped so the annihilation parts of the stacked a+ operators can
    move weight back below the cutoff, then projects once at the end.
    Leakage is the squared-norm fraction the projection discards; above
    max_leakage the truncation is refused.
    """
    if order < 1:
        raise ValueError("expansion order must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    psi = _lift(expand_squeezed_vacuum(f, order), spec, bog)
    return _project(psi, cutoff, max_leakage)


def _lift(psi, spec: QuenchSpec, bog: BogoliubovMap):
    """Stack the pre-quench creation operators of spec's Fock state,
    a+_j = sum_k alpha_jk c+_k + beta_jk c_k, on the uncapped psi."""
    for j, nj in enumerate(spec.initial_state.occupations):
        for _ in range(nj):
            psi = _merge(_ladder(psi, bog.alpha[j], bog.beta[j]))
    return psi


def _project(psi, cutoff: int,
             max_leakage: float = MAX_LEAKAGE) -> ExpandedState:
    """Keep the rows with every occupation <= cutoff and renormalize;
    refuse when the discarded squared-norm fraction exceeds max_leakage."""
    occ, amp = psi
    kept = occ.max(axis=1) <= cutoff
    weight = np.abs(amp) ** 2
    kept_weight = weight[kept].sum()
    leakage = 1.0 - kept_weight / weight.sum()
    if leakage > max_leakage:
        raise CutoffExceeded(
            f"projection to cutoff {cutoff} discards {leakage:.3e} of the "
            f"squared norm (limit {max_leakage:.3e})")
    return ExpandedState(occ[kept], amp[kept] / np.sqrt(kept_weight),
                         float(leakage))


def delocalization_count(state: ExpandedState, floor: float) -> int:
    """Number of basis amplitudes at or above the floor."""
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    return int(np.count_nonzero(np.abs(state.amplitudes) >= floor))


def exact_evolve(state: ExpandedState, spec: QuenchSpec, t: float) -> ExpandedState:
    """Diagonal evolution: each amplitude picks up e^{-i sum w'_k (n_k+1/2) t}."""
    w = mode_frequencies(spec.total_size, spec.omega0)
    phase = np.exp(-1j * ((state.occupations + 0.5) @ w) * t)
    return replace(state, amplitudes=state.amplitudes * phase)


def _pre_annihilated_norms(state: ExpandedState, bog: BogoliubovMap):
    """||a_m psi|| for a_m = sum_k alpha_mk c_k + beta_mk c+_k, uncapped."""
    psi = state.occupations, state.amplitudes
    return [np.linalg.norm(_merge(_ladder(psi, bog.beta[m], bog.alpha[m]))[1])
            for m in range(bog.alpha.shape[0])]


def annihilation_residual(state: ExpandedState, bog: BogoliubovMap) -> float:
    """max_m ||a_m psi||: zero in exact arithmetic for the expanded vacuum."""
    return float(max(_pre_annihilated_norms(state, bog)))


def constraint_residual(state: ExpandedState, f: np.ndarray) -> float:
    """max_k ||(c_k + sum_l F_kl c+_l) psi||, the defining property of the
    squeezed vacuum. Creation parts are evaluated uncapped."""
    psi = state.occupations, state.amplitudes
    unit = np.eye(state.modes)
    return float(max(np.linalg.norm(_merge(_ladder(psi, f[k], unit[k]))[1])
                     for k in range(state.modes)))


def oracle_correlators(state: ExpandedState) -> CorrelationSet:
    """All four quadratic correlators as one Gram matrix of ladder images.

    With L_k = c_k psi and R_k = c+_k psi merged onto common rows,
    <c+_l c_k> = (L_l, L_k), <c+_l c+_k> = (L_l, R_k), <c_l c_k> = (R_l, L_k)
    and <c_l c+_k> = (R_l, R_k): the four blocks of [L R]^H [L R]. No
    ladder is capped, so the result is exact for the stored vector.
    """
    K = state.modes
    psi = state.occupations, state.amplitudes
    unit, zero, onehot = np.eye(K), np.zeros(K), np.eye(2 * K)
    images = ([_ladder(psi, zero, unit[k]) for k in range(K)]
              + [_ladder(psi, unit[k], zero) for k in range(K)])
    _, vecs = _merge(*((o, a[:, None] * onehot[j])
                       for j, (o, a) in enumerate(images)))
    g = vecs.conj().T @ vecs
    if np.max(np.abs(g.imag)) < 1e-14:
        g = g.real
    return CorrelationSet(cdag_c=g[:K, :K].copy(), cdag_cdag=g[:K, K:].copy(),
                          c_c=g[K:, :K].copy(), c_cdag=g[K:, K:].copy())


def occupation_series(state: ExpandedState, spec: QuenchSpec,
                      bog: BogoliubovMap, times) -> np.ndarray:
    """<n_m(t)> for every pre-quench mode m, via ||a_m psi(t)||^2.

    Evolution only rephases the amplitudes, so the rows a_m reaches and the
    way equal rows merge are found once per mode; each sample then maps and
    sums its evolved amplitudes.
    """
    times = np.asarray(times, dtype=float)
    ladders = []
    for m in range(bog.alpha.shape[0]):
        rows, amplitudes = _ladder_rows(state.occupations, bog.beta[m],
                                        bog.alpha[m])
        ladders.append((amplitudes, *_groups(rows)))
    out = np.empty((len(times), len(ladders)))
    for i, t in enumerate(times):
        amp = exact_evolve(state, spec, t).amplitudes
        out[i] = np.square([
            np.linalg.norm(np.add.reduceat(amplitudes(amp)[order], first))
            for amplitudes, order, first in ladders])
    return out


def delocalization_table(floor: float = RunConfig.floor):
    """Support counts of expanded single and pair excitations vs bath size.

    The table1 geometry: N = 5 and M = 10, 16, 20, with one quantum in mode
    3 or one each in modes 3 and 4.  The expansion is first order and
    uncapped (occupations never exceed four quanta there), mirroring the
    regime where counting support by an amplitude floor is meaningful.
    """
    rows = []
    grid = (0.0,)   # nothing evolves; the default grid would raise the peak
    for m_right in (10, 16, 20):
        total = 5 + m_right
        spec_s = QuenchSpec(5, m_right, FockExcitation.single(total, 3), grid)
        spec_p = QuenchSpec(5, m_right,
                            FockExcitation.from_modes(total, [3, 4]), grid)
        bog = build_bogoliubov(spec_s)
        f = f_matrix(bog)
        single = expand_initial_state(spec_s, bog, f, order=1, cutoff=8)
        pair = expand_initial_state(spec_p, bog, f, order=1, cutoff=8)
        rows.append({
            "n_left": 5,
            "n_right": m_right,
            "single_count": delocalization_count(single, floor),
            "pair_count": delocalization_count(pair, floor),
            "floor": floor,
            "order": 1,
        })
    return rows
