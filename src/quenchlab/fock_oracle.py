"""Truncated-Fock brute force for small joint chains.

Everything here represents states as sparse dictionaries mapping occupation
tuples (one entry per joint mode) to amplitudes. The pre-quench eigenstate
is reconstructed in the joint basis by expanding the squeezed-vacuum
exponential as a power series and applying the Bogoliubov-expanded creation
operators on top. Evolution is a diagonal phase. This is the independent
reference implementation used to certify the quadratic (correlator) route;
it is deliberately simple and only viable for a handful of modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .model import QuenchSpec, FockExcitation, normal_modes
from .bogoliubov import BogoliubovMap, FMatrix, CorrelationSet

Amplitudes = Dict[Tuple[int, ...], complex]

MAX_BASIS_STATES = 500_000


class CutoffExceeded(Exception):
    """Requested operation needs occupations the truncated basis cannot hold."""


@dataclass(frozen=True)
class TruncatedBasis:
    """Explicit occupation-tuple enumeration with per-mode and total caps."""

    modes: int
    cutoff: int
    max_total: Optional[int] = None
    states: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 0:
            raise ValueError("modes must be >= 1 and cutoff >= 0")
        if self.max_total is not None and self.max_total < 0:
            raise ValueError("max_total must be nonnegative")
        nominal = (self.cutoff + 1) ** self.modes
        if self.max_total is None and nominal > MAX_BASIS_STATES:
            raise CutoffExceeded(
                f"basis of {nominal} states exceeds the {MAX_BASIS_STATES} cap")
        out = []
        self._walk((), 0, out)
        if len(out) > MAX_BASIS_STATES:
            raise CutoffExceeded(
                f"basis of {len(out)} states exceeds the {MAX_BASIS_STATES} cap")
        object.__setattr__(self, "states", tuple(out))

    def _walk(self, prefix, total, out):
        if len(prefix) == self.modes:
            out.append(prefix)
            return
        top = self.cutoff
        if self.max_total is not None:
            top = min(top, self.max_total - total)
        for n in range(top + 1):
            self._walk(prefix + (n,), total + n, out)

    @property
    def size(self):
        return len(self.states)

    def __contains__(self, occ):
        if len(occ) != self.modes or any(n < 0 or n > self.cutoff for n in occ):
            return False
        return self.max_total is None or sum(occ) <= self.max_total

    def index(self):
        """Occupation tuple -> position in the lexicographic enumeration."""
        return {occ: i for i, occ in enumerate(self.states)}


@dataclass(frozen=True)
class ExpandedState:
    """Normalized sparse state vector over joint-mode occupation tuples."""

    amplitudes: Amplitudes
    modes: int
    cutoff: int
    truncation_order: int
    leakage: float
    source: Optional[FockExcitation] = None
    max_total: Optional[int] = None

    def norm(self):
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.amplitudes.values())))

    def amplitude(self, occ):
        return self.amplitudes.get(tuple(occ), 0.0)

    def support_size(self):
        return len(self.amplitudes)


def _add_scaled(dst: Amplitudes, src: Amplitudes, s) -> None:
    for occ, v in src.items():
        dst[occ] = dst.get(occ, 0.0) + s * v


def _norm(amps: Amplitudes) -> float:
    return float(np.sqrt(sum(abs(v) ** 2 for v in amps.values())))


def _inner(x: Amplitudes, y: Amplitudes):
    if len(x) <= len(y):
        return sum(np.conj(v) * y.get(occ, 0.0) for occ, v in x.items())
    return sum(np.conj(x.get(occ, 0.0)) * v for occ, v in y.items())


def _apply_cdag(amps: Amplitudes, k, cutoff=None, max_total=None) -> Amplitudes:
    out: Amplitudes = {}
    for occ, amp in amps.items():
        n = occ[k]
        if cutoff is not None and n + 1 > cutoff:
            continue
        if max_total is not None and sum(occ) + 1 > max_total:
            continue
        key = occ[:k] + (n + 1,) + occ[k + 1:]
        out[key] = out.get(key, 0.0) + amp * np.sqrt(n + 1.0)
    return out


def _apply_c(amps: Amplitudes, k) -> Amplitudes:
    out: Amplitudes = {}
    for occ, amp in amps.items():
        n = occ[k]
        if n == 0:
            continue
        key = occ[:k] + (n - 1,) + occ[k + 1:]
        out[key] = out.get(key, 0.0) + amp * np.sqrt(float(n))
    return out


def expand_squeezed_vacuum(f: np.ndarray, order: int,
                           cutoff=None, max_total=None) -> Amplitudes:
    """Power series for exp(-1/2 sum_lk F_lk c+_l c+_k)|0> up to the given order.

    The pair-creation operator only raises occupations, so applying the caps
    during the recursion drops exactly the terms an end projection would.
    Unnormalized on purpose: callers stack creation operators first.
    """
    K = f.shape[0]
    vac = (0,) * K
    psi: Amplitudes = {vac: 1.0}
    term: Amplitudes = {vac: 1.0}
    for p in range(1, order + 1):
        new: Amplitudes = {}
        for l in range(K):
            tl = _apply_cdag(term, l, cutoff, max_total)
            for k in range(K):
                if f[l, k] == 0.0:
                    continue
                _add_scaled(new, _apply_cdag(tl, k, cutoff, max_total),
                            -0.5 * f[l, k] / p)
        term = new
        _add_scaled(psi, term, 1.0)
    return psi


def expand_initial_state(spec: QuenchSpec, bog: BogoliubovMap, f: FMatrix,
                         order: int, cutoff: int = 8, max_total=None,
                         max_leakage: float = 0.01) -> ExpandedState:
    """Pre-quench Fock eigenstate written out in joint-mode amplitudes.

    Works in an uncapped scratch space so the annihilation parts of the
    stacked a+ operators can move weight back below the cutoff, then
    projects once at the end. Leakage is the squared-norm fraction the
    projection discards; above max_leakage the truncation is refused.
    """
    if order < 1:
        raise ValueError("expansion order must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    psi = expand_squeezed_vacuum(f.f, order)
    for j, nj in enumerate(spec.initial_state.occupations):
        for _ in range(nj):
            lifted: Amplitudes = {}
            for k in range(spec.total_size):
                if bog.alpha[j, k] != 0.0:
                    _add_scaled(lifted, _apply_cdag(psi, k), bog.alpha[j, k])
                if bog.beta[j, k] != 0.0:
                    _add_scaled(lifted, _apply_c(psi, k), bog.beta[j, k])
            psi = lifted
    total = sum(abs(v) ** 2 for v in psi.values())
    kept = {occ: v for occ, v in psi.items()
            if max(occ) <= cutoff
            and (max_total is None or sum(occ) <= max_total)}
    kept_weight = sum(abs(v) ** 2 for v in kept.values())
    leakage = 1.0 - kept_weight / total
    if leakage > max_leakage:
        raise CutoffExceeded(
            f"projection to cutoff {cutoff} discards {leakage:.3e} of the "
            f"squared norm (limit {max_leakage:.3e})")
    scale = 1.0 / np.sqrt(kept_weight)
    amps = {occ: v * scale for occ, v in kept.items()}
    return ExpandedState(amplitudes=amps, modes=spec.total_size, cutoff=cutoff,
                         truncation_order=order, leakage=leakage,
                         source=spec.initial_state, max_total=max_total)


def delocalization_count(state: ExpandedState, floor: float) -> int:
    """Number of basis amplitudes at or above the floor."""
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    return sum(1 for v in state.amplitudes.values() if abs(v) >= floor)


def exact_evolve(state: ExpandedState, spec: QuenchSpec, t: float) -> ExpandedState:
    """Diagonal evolution: each amplitude picks up e^{-i sum w'_k (n_k+1/2) t}."""
    w = normal_modes(spec.joint_chain).frequencies
    amps = {occ: v * np.exp(-1j * np.dot(w, np.asarray(occ) + 0.5) * t)
            for occ, v in state.amplitudes.items()}
    return ExpandedState(amplitudes=amps, modes=state.modes, cutoff=state.cutoff,
                         truncation_order=state.truncation_order,
                         leakage=state.leakage, source=state.source,
                         max_total=state.max_total)


def apply_joint_annihilation(state: ExpandedState, k: int) -> Amplitudes:
    """c_k on the state; annihilation never leaves the truncated basis."""
    return _apply_c(state.amplitudes, k)


def apply_joint_creation(state: ExpandedState, k: int, strict: bool = True,
                         departure_tol: float = 1e-10) -> Amplitudes:
    """c+_k on the state, kept inside the cutoff.

    The component pushed past the cutoff is dropped; in strict mode a dropped
    norm above departure_tol raises instead of silently truncating.
    """
    full = _apply_cdag(state.amplitudes, k)
    kept = {occ: v for occ, v in full.items() if occ[k] <= state.cutoff
            and (state.max_total is None or sum(occ) <= state.max_total)}
    if strict:
        lost = np.sqrt(sum(abs(v) ** 2 for occ, v in full.items()
                           if occ not in kept))
        if lost > departure_tol:
            raise CutoffExceeded(
                f"creation on mode {k + 1} leaves the basis with amplitude "
                f"{lost:.3e} (tolerance {departure_tol:.1e})")
    return kept


def apply_pre_annihilation(state_amps: Amplitudes, bog: BogoliubovMap,
                           m: int) -> Amplitudes:
    """a_m = sum_k alpha_mk c_k + beta_mk c+_k, applied without any cap.

    The creation half may exceed the nominal cutoff; that is intentional,
    the result is exact for the truncated input vector.
    """
    out: Amplitudes = {}
    for k in range(bog.alpha.shape[1]):
        if bog.alpha[m, k] != 0.0:
            _add_scaled(out, _apply_c(state_amps, k), bog.alpha[m, k])
        if bog.beta[m, k] != 0.0:
            _add_scaled(out, _apply_cdag(state_amps, k), bog.beta[m, k])
    return out


def annihilation_residual(state: ExpandedState, bog: BogoliubovMap) -> float:
    """max_m ||a_m psi||: zero in exact arithmetic for the expanded vacuum."""
    n_pre = bog.alpha.shape[0]
    return max(_norm(apply_pre_annihilation(state.amplitudes, bog, m))
               for m in range(n_pre))


def constraint_residual(state: ExpandedState, f: FMatrix) -> float:
    """max_k ||(c_k + sum_l F_kl c+_l) psi||, the defining property of the
    squeezed vacuum. Creation parts are evaluated uncapped."""
    K = f.f.shape[0]
    worst = 0.0
    for k in range(K):
        r = _apply_c(state.amplitudes, k)
        for l in range(K):
            if f.f[k, l] != 0.0:
                _add_scaled(r, _apply_cdag(state.amplitudes, l), f.f[k, l])
        worst = max(worst, _norm(r))
    return worst


def oracle_correlators(state: ExpandedState) -> CorrelationSet:
    """All four quadratic correlators by direct ladder matrix elements.

    Every entry reduces to inner products of annihilated vectors:
    <c+_l c_k> = (c_l psi, c_k psi), <c_l c_k> = (psi, c_l c_k psi), and
    <c_l c+_k> = <c+_k c_l> + delta_lk, whose diagonal is the exact weight
    sum (n_l + 1)|amp|^2. No ladder ever leaves the truncated basis, so
    the result is exact for the stored vector.
    """
    K = state.modes
    lowered = [apply_joint_annihilation(state, k) for k in range(K)]
    c1 = np.zeros((K, K), dtype=complex)
    c3 = np.zeros((K, K), dtype=complex)
    for l in range(K):
        for k in range(K):
            c1[l, k] = _inner(lowered[l], lowered[k])
            c3[l, k] = _inner(state.amplitudes, _apply_c(lowered[k], l))
    c2 = np.conj(c3).T
    c4 = c1.T.copy()
    for l in range(K):
        c4[l, l] = sum((occ[l] + 1) * abs(v) ** 2
                       for occ, v in state.amplitudes.items())
    if max(np.max(np.abs(x.imag)) for x in (c1, c2, c3, c4)) < 1e-14:
        c1, c2, c3, c4 = (x.real.copy() for x in (c1, c2, c3, c4))
    return CorrelationSet(cdag_c=c1, cdag_cdag=c2, c_c=c3, c_cdag=c4)


def occupation_series(state: ExpandedState, spec: QuenchSpec,
                      bog: BogoliubovMap, times) -> np.ndarray:
    """<n_m(t)> for every pre-quench mode m, via ||a_m psi(t)||^2."""
    times = np.asarray(times, dtype=float)
    n_pre = bog.alpha.shape[0]
    out = np.empty((len(times), n_pre))
    for i, t in enumerate(times):
        psit = exact_evolve(state, spec, t)
        for m in range(n_pre):
            am = apply_pre_annihilation(psit.amplitudes, bog, m)
            out[i, m] = sum(abs(v) ** 2 for v in am.values())
    return out


def delocalization_table(n_left: int = 5, right_sizes=(10, 16, 20),
                         single_mode: int = 3, pair_modes=(3, 4),
                         floor: float = 1e-12, order: int = 1):
    """Support counts of expanded single and pair excitations vs bath size.

    The expansion is first order and uncapped (occupations never exceed
    four quanta there), mirroring the regime where counting support by an
    amplitude floor is meaningful.
    """
    from .model import ChainSpec, default_time_grid
    from .bogoliubov import build_bogoliubov, f_matrix

    rows = []
    for m_right in right_sizes:
        left = ChainSpec(n_left)
        right = ChainSpec(m_right)
        grid = default_time_grid(1.0, 2)
        total = n_left + m_right
        spec_s = QuenchSpec(left, right,
                            FockExcitation.from_modes(total, [single_mode]),
                            grid)
        spec_p = QuenchSpec(left, right,
                            FockExcitation.from_modes(total, list(pair_modes)),
                            grid)
        bog = build_bogoliubov(spec_s)
        f = f_matrix(bog)
        big = 4 * order + 4
        single = expand_initial_state(spec_s, bog, f, order=order, cutoff=big)
        pair = expand_initial_state(spec_p, bog, f, order=order, cutoff=big)
        rows.append({
            "n_left": n_left,
            "n_right": m_right,
            "single_count": delocalization_count(single, floor),
            "pair_count": delocalization_count(pair, floor),
            "floor": floor,
            "order": order,
        })
    return rows
