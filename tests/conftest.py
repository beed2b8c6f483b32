import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from quenchlab.covariance import (CovarianceMatrix, _check_symmetric,
                                  _from_moments, _half_phases, _moments,
                                  _occupations, _residual, _tile_means)
from quenchlab.fock_oracle import ExpandedState, _gram, _images
from quenchlab.model import (FockExcitation, QuenchSpec, RunConfig,
                             default_time_grid, disjoint_frequencies,
                             disjoint_transform, mode_frequencies,
                             sine_transform)


def make_spec(N, M, modes=(), t_max=2000.0, t_steps=2001, mass=RunConfig.mass,
              omega0=RunConfig.omega0, hbar=RunConfig.hbar):
    """QuenchSpec with quanta in the given 1-based pre-chain modes."""
    state = FockExcitation.from_modes(N + M, list(modes))
    return QuenchSpec(N, M, state, default_time_grid(t_max, t_steps), mass,
                      omega0, hbar)


def stiffness_matrix(n, mass=RunConfig.mass, omega0=RunConfig.omega0):
    """Potential quadratic form of a fixed-end chain of n sites."""
    return mass * omega0 ** 2 * (2.0 * np.eye(n) - np.eye(n, k=1)
                                 - np.eye(n, k=-1))


def eigh_bogoliubov(spec):
    """Independent route to the Bogoliubov coefficients.

    Diagonalizes the stiffness matrices numerically instead of using the
    closed-form sine basis, fixes the eigenvector sign by making the first
    component positive, and assembles alpha and beta from the frequency
    mismatch factors. Shares no code with the package implementation.
    """
    m, w0 = spec.mass, spec.omega0
    N, M, K = spec.n_left, spec.n_right, spec.total_size

    def modes_of(kmat):
        evals, vecs = np.linalg.eigh(kmat)
        order = np.argsort(evals)
        evals, vecs = evals[order], vecs[:, order]
        for j in range(vecs.shape[1]):
            lead = vecs[np.nonzero(np.abs(vecs[:, j]) > 1e-12)[0][0], j]
            if lead < 0:
                vecs[:, j] = -vecs[:, j]
        return np.sqrt(evals / m), vecs

    w_left, v_left = modes_of(stiffness_matrix(N, m, w0))
    w_right, v_right = modes_of(stiffness_matrix(M, m, w0))
    w_pre = np.concatenate([w_left, w_right])
    v_pre = np.zeros((K, K))
    v_pre[:N, :N] = v_left
    v_pre[N:, N:] = v_right

    w_joint, v_joint = modes_of(stiffness_matrix(K, m, w0))

    overlap = v_pre.T @ v_joint
    ratio = np.sqrt(np.outer(w_pre, 1.0 / w_joint))
    alpha = overlap * 0.5 * (ratio + 1.0 / ratio)
    beta = overlap * 0.5 * (ratio - 1.0 / ratio)
    return alpha, beta, w_pre, w_joint, overlap


def map_factors(spec):
    """The overlap O of the disjoint and joint sine modes and the rapidity
    gamma = log(w/w')/2, formed as `bogoliubov.build_bogoliubov` forms them
    before it keeps alpha = O cosh gamma and beta = O sinh gamma only."""
    overlap = disjoint_transform(spec) @ sine_transform(spec.total_size)
    joint = mode_frequencies(spec.total_size, spec.omega0)
    gamma = 0.5 * np.log(disjoint_frequencies(spec)[:, None] / joint[None, :])
    return overlap, gamma


def initial_correlations_four(bog, state):
    """The four correlators of a disjoint-mode Fock state, each its own
    pair of products: from c_k = sum_l alpha[l,k] a_l - beta[l,k] a_l^dag
    with <a^dag a> = diag(n), <a a^dag> = diag(n+1) and no anomalous
    pre-quench moments.  A reference for the quadrature blocks of
    `bogoliubov.initial_correlations` and their derived correlators."""
    a, b = bog.alpha, bog.beta
    n = state.as_array()
    an = a * n[:, None]
    bn = b * n[:, None]
    a1 = a * (1.0 + n)[:, None]
    b1 = b * (1.0 + n)[:, None]
    cdag_c = b.T @ b1 + a.T @ an
    c_cdag = a.T @ a1 + b.T @ bn
    c_c = -(a.T @ b1 + b.T @ an)
    return SimpleNamespace(cdag_c=cdag_c, c_cdag=c_cdag, c_c=c_c,
                           cdag_cdag=c_c.T.copy())


def evolve_occupations_direct(bog, corr, times):
    """Direct evaluation of the mode sums, a slow reference for the kernel."""
    K = bog.total_size
    a, b = bog.alpha, bog.beta
    w = bog.omega_joint
    times = np.asarray(times, dtype=float)
    out = np.zeros((times.size, K))
    for it, t in enumerate(times):
        for m in range(K):
            acc = 0.0 + 0.0j
            for l in range(K):
                for k in range(K):
                    acc += a[m, l] * a[m, k] * np.exp(1j * (w[l] - w[k]) * t) * corr.cdag_c[l, k]
                    acc += a[m, l] * b[m, k] * np.exp(1j * (w[l] + w[k]) * t) * corr.cdag_cdag[l, k]
                    acc += b[m, l] * a[m, k] * np.exp(-1j * (w[l] + w[k]) * t) * corr.c_c[l, k]
                    acc += b[m, l] * b[m, k] * np.exp(-1j * (w[l] - w[k]) * t) * corr.c_cdag[l, k]
            out[it, m] = acc.real
    return out


def occupations_closed_form(bog, n, times):
    """<n_m(t)> of a pre-quench Fock state with occupations n, from the
    time-dependent map a_m(t) = sum_j U_mj a_j + V_mj a_j^dag:
    n_m = sum_j |U_mj|^2 n_j + |V_mj|^2 (n_j + 1), with
    U = alpha E* alpha^T - beta E beta^T, V = beta E alpha^T - alpha E* beta^T
    and E = diag(e^{i w' t}).  A reference for the kernel that shares no
    step with it."""
    a, b = bog.alpha, bog.beta
    n = np.asarray(n, dtype=float)
    out = []
    for t in np.asarray(times, dtype=float):
        e = np.exp(1j * bog.omega_joint * t)
        u = (a * e.conj()) @ a.T - (b * e) @ b.T
        v = (b * e) @ a.T - (a * e.conj()) @ b.T
        out.append(np.abs(u) ** 2 @ n + np.abs(v) ** 2 @ (n + 1.0))
    return np.array(out)


def random_specs(seed, count, max_size=40):
    """Seeded QuenchSpecs: N, M <= max_size, random Fock occupations (0 to 3
    quanta, about a third of the modes excited) and mass, omega0 and hbar
    drawn from [0.5, 2]."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        N, M = (int(x) for x in rng.integers(1, max_size + 1, size=2))
        occ = rng.integers(0, 4, size=N + M) * (rng.random(N + M) < 0.35)
        mass, omega0, hbar = rng.uniform(0.5, 2.0, size=3)
        t_max = float(rng.uniform(10.0, 50.0))
        specs.append(QuenchSpec(N, M, FockExcitation(tuple(int(k) for k in occ)),
                                default_time_grid(t_max, 9), float(mass),
                                float(omega0), float(hbar)))
    return specs


@dataclass(frozen=True)
class Sigma:
    """The three K x K blocks xx, xp and pp of an evolved or window-mean
    covariance, whose xp block is nonzero for t > 0 (px is xp^T): the record
    of the references below.  A `CovarianceMatrix` holds only the t = 0
    blocks xx and pp.  xx and pp pass the package's 1e-10 symmetry guard."""
    xx: np.ndarray
    xp: np.ndarray
    pp: np.ndarray

    def __post_init__(self):
        _check_symmetric((self.xx, self.xx), (self.pp, self.pp))

    @property
    def n_modes(self):
        return self.xx.shape[0]


def sigma_matrix(cov):
    """The 2K x 2K matrix [[xx, xp], [xp^T, pp]] of a `Sigma`, or of a
    `CovarianceMatrix` with xp = 0."""
    xp = getattr(cov, "xp", np.zeros_like(cov.xx))
    return np.block([[cov.xx, xp], [xp.T, cov.pp]])


def evolve_covariance(cov, spec, t):
    """Free evolution in the joint modes, every moment times its phase: a
    single-time reference for the window means of `thermal_form_check`.

    z_j evolves as exp(-i w_j t) z_j, so the normal moments pick up
    exp(i (w_j - w_k) t) and the anomalous ones exp(-i (w_j + w_k) t):
    each exp(2i r) with its half phase r of `_half_phases` at dt = t, the
    phase source of the window means.
    """
    w = mode_frequencies(spec.total_size, spec.omega0)
    a = spec.mass * w
    moments = _moments(cov, a) * np.exp(2j * _half_phases(w, t))
    out = np.empty((3,) + moments.shape[1:])
    return Sigma(*_from_moments(*moments, np.outer(a, a), a[:, None], out))


def occupations_from_covariance(cov, spec):
    """Mode occupancies off the covariance diagonal in the joint basis."""
    return _occupations(np.diagonal(cov.xx), np.diagonal(cov.pp), spec)


def symplectic_eigenvalues(cov, hbar=RunConfig.hbar):
    """Williamson spectrum in units of hbar (vacuum modes give 1/2).

    Uses the Hermitian similarity sqrt(sigma) (i Omega) sqrt(sigma), whose
    spectrum is +-nu_k, instead of the non-normal i Omega sigma.
    """
    sig = sigma_matrix(cov) / hbar
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
    return np.sort(ev[ev > 0])


def rotate_covariance_dense(sigma, w, mass, t):
    """R(t) sigma R(t)^T with the explicit 2K x 2K free rotation
    R = (cos wt, sin wt/(m w); -m w sin wt, cos wt), a reference for the
    package's moment rephasing."""
    c, s, mw = np.cos(w * t), np.sin(w * t), mass * w
    rot = np.block([[np.diag(c), np.diag(s / mw)],
                    [np.diag(-mw * s), np.diag(c)]])
    return rot @ sigma @ rot.T


def disjoint_covariance(spec):
    """Second moments of the pre-quench Fock state in the disjoint normal
    modes, in closed form: sigma_xx = (n + 1/2) hbar / (m w), sigma_pp =
    (n + 1/2) hbar m w with w each chain's own mode frequencies, and no
    cross correlations.  A reference for the input of `joint_covariance`'s
    rotations."""
    n = spec.initial_state.as_array()
    w = np.concatenate([mode_frequencies(spec.n_left, spec.omega0),
                        mode_frequencies(spec.n_right, spec.omega0)])
    m, hbar = spec.mass, spec.hbar
    return CovarianceMatrix(np.diag((n + 0.5) * hbar / (m * w)),
                            np.diag((n + 0.5) * hbar * m * w))


def conjugate_dense(sigma, mat):
    """F sigma F^T with the explicit 2K x 2K F = blockdiag(mat, mat), a
    reference for the per-block rotations of `joint_covariance`."""
    K = mat.shape[0]
    full = np.zeros((2 * K, 2 * K))
    full[:K, :K] = mat
    full[K:, K:] = mat
    return full @ sigma @ full.T


def _samples(window, dt):
    """Length of the grid t = j dt in [0, window), len(np.arange(0, window, dt))."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (np.isfinite(window) and window > 0):
        raise ValueError(f"window must be finite and > 0 so that the grid "
                         f"holds a sample, got {window!r}")
    return math.ceil(window / dt)


def mean_evolved_covariance(cov, spec, window, dt=0.5):
    """Mean of sigma(t) over the grid t = j dt in [0, window), in closed
    form, as one untiled `Sigma`: a reference for the tiles that
    `thermal_form_check` folds.  A sequence of windows, each of twice the
    previous window's samples, gives one record per window from one pass,
    as the check forms them."""
    windows = np.atleast_1d(window)
    samples = [_samples(T, dt) for T in windows]
    if any(b != 2 * a for a, b in zip(samples, samples[1:])):
        raise ValueError(f"windows of {samples} samples do not double")
    w = mode_frequencies(spec.total_size, spec.omega0)
    means = [Sigma(*blocks[:, 0].copy())
             for blocks in _tile_means(cov, spec.mass * w, w, dt, samples)]
    return means if np.ndim(window) else means[0]


def max_offdiagonal(cov):
    """Largest |entry| of a `Sigma` outside its diagonal: off the diagonal
    of xx or pp, or anywhere in xp."""
    return _residual(np.array([cov.xx, cov.xp, cov.pp]))


def exact_evolve(state, spec, t) -> ExpandedState:
    """Diagonal evolution of an oracle state: each amplitude picks up
    e^{-i E t}, E = sum_k w'_k (n_k + 1/2) of its occupation row."""
    energies = (state.occupations + 0.5) @ mode_frequencies(spec.total_size,
                                                            spec.omega0)
    return replace(state, amplitudes=state.amplitudes
                   * np.exp(-1j * energies * t))


def ladder_norms(state, x, y):
    """||(sum_k x_mk c+_k + y_mk c_k) psi|| for every row m of x and y, each
    ladder applied and merged on its own: the per-mode reference for the
    oracle's image matrix. (bog.beta, bog.alpha) gives the ||a_m psi||."""
    psi = state.occupations, state.amplitudes
    return np.array([np.linalg.norm(
        merge_concatenate(ladder_concatenate(psi, xm, ym))[1])
        for xm, ym in zip(x, y)])


def occupation_series_per_sample(state, spec, bog, times):
    """The oracle's <n_m(t)> as the squared column norms of the ladder
    images of `exact_evolve`'s state times [alpha^T; beta^T], rebuilt at
    each sample: the Schroedinger-picture reference for `occupation_series`,
    which runs the occupation kernel on the state's moments."""
    coefficients = np.concatenate([bog.alpha.T, bog.beta.T])
    out = []
    for t in times:
        images = _images(exact_evolve(state, spec, t))
        out.append(np.square(np.linalg.norm(images @ coefficients, axis=0)))
    return np.array(out)


def occupation_series_gram(state, spec, bog, times):
    """The oracle's <n_m(t)> as a quadratic form of the Gram matrix G of its
    ladder images, formed once: evolution only rephases the image columns,
    c_k psi(t) and c+_k psi(t) are c_k psi e^{-i w'_k t} and c+_k psi
    e^{+i w'_k t}, each row times a phase no norm sees, so n_m(t) = u^H G u
    with u = [e^{-i w' t} o alpha_m; e^{+i w' t} o beta_m]. A reference for
    `occupation_series`, which runs the occupation kernel on the moments
    that two blocks of G give."""
    g = _gram(_images(state))
    coefficients = np.concatenate([bog.alpha.T, bog.beta.T])
    w = mode_frequencies(spec.total_size, spec.omega0)
    w = np.concatenate([-w, w])[:, None]
    out = np.empty((len(times), state.modes))
    for i, t in enumerate(times):
        u = np.exp(1j * w * t) * coefficients
        out[i] = np.einsum("im,im->m", u.conj(), g @ u).real
    return out


def gram_onehot(state):
    """The Gram matrix of the ladder images with every image merged as a
    (S_j, 2K) amplitude block that is zero outside column j: a reference
    for `fock_oracle._images`, which writes the images straight into their
    columns."""
    K = state.modes
    psi = state.occupations, state.amplitudes
    unit, zero, onehot = np.eye(K), np.zeros(K), np.eye(2 * K)
    images = ([ladder_concatenate(psi, zero, unit[k]) for k in range(K)]
              + [ladder_concatenate(psi, unit[k], zero) for k in range(K)])
    _, vecs = merge_concatenate(*((o, a[:, None] * onehot[j])
                                  for j, (o, a) in enumerate(images)))
    return vecs.conj().T @ vecs


def groups_numeric(occ):
    """Stable sort order of (S, K) rows in numeric lexicographic order, first
    column first (`np.lexsort`), and where each run of equal rows starts: a
    reference for the packed keys of `fock_oracle._groups`."""
    order = np.lexsort(occ.T[::-1])
    occ = occ[order]
    first = np.ones(len(occ), dtype=bool)
    first[1:] = np.any(occ[1:] != occ[:-1], axis=1)
    return order, np.flatnonzero(first)


def merge_concatenate(*parts):
    """Stacked rows and amplitudes grouped by `groups_numeric`: a reference
    for `fock_oracle._merge`, which sorts packed keys and rebuilds only the
    unique rows."""
    occ = np.ascontiguousarray(np.concatenate([o for o, _ in parts]))
    amp = np.concatenate([a for _, a in parts])
    order, first = groups_numeric(occ)
    return occ[order[first]], np.add.reduceat(amp[order], first, axis=0)


def ladder_rows_concatenate(occ, x, y):
    """Rows of (sum_k x_k c+_k + y_k c_k) on occ built as (modes, S, K)
    blocks, masked and concatenated, and their amplitude map: the row
    reference for the packed keys that `fock_oracle._ladder_keys` writes,
    in the same order."""
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


def ladder_concatenate(psi, x, y):
    """Unmerged rows and amplitudes of (sum_k x_k c+_k + y_k c_k) psi."""
    rows, amplitudes = ladder_rows_concatenate(psi[0], x, y)
    return rows, amplitudes(psi[1])


def pairs_concatenate(psi, xs):
    """Unmerged rows and amplitudes of sum_lk X_lk c+_k c+_l psi, with X the
    rows xs: c+_l, then the ladder with x = X_l, stacked for every l; the row
    reference for `fock_oracle._pair_keys`."""
    K = psi[0].shape[1]
    unit, zero = np.eye(K), np.zeros(K)
    parts = [ladder_concatenate(ladder_concatenate(psi, unit[l], zero), x,
                                zero) for l, x in enumerate(xs)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def squeezed_vacuum_rows(f, order):
    """`fock_oracle.expand_squeezed_vacuum` on raw rows: each order is
    `pairs_concatenate` with X = -F/2p, merged by `merge_concatenate`."""
    term = (np.zeros((1, f.shape[0]), dtype=np.int16), np.ones(1))
    terms = [term]
    for p in range(1, order + 1):
        term = merge_concatenate(pairs_concatenate(term, -0.5 * f / p))
        terms.append(term)
    return merge_concatenate(*terms)


def images_rows(state):
    """`fock_oracle._images` from raw rows: the rows of every ladder image
    (`ladder_rows_concatenate`, raised then lowered), sorted by
    `groups_numeric`, each amplitude put in its row and column."""
    occ = state.occupations
    S, K = occ.shape
    rows, amplitudes = ladder_rows_concatenate(occ, np.ones(K), np.ones(K))
    order, first = groups_numeric(rows)
    row = np.empty_like(order)
    row[order] = np.repeat(np.arange(len(first)),
                           np.diff(first, append=len(order)))
    col = np.concatenate([np.repeat(np.arange(K, 2 * K), S),
                          np.repeat(np.arange(K),
                                    np.count_nonzero(occ > 0, axis=0))])
    out = np.zeros((len(first), 2 * K), np.result_type(1.0, state.amplitudes))
    out[row, col] = amplitudes(state.amplitudes)
    return out


@pytest.fixture(scope="session")
def spec22():
    return make_spec(2, 2, t_max=50.0, t_steps=51)


@pytest.fixture(scope="session")
def spec_5_10():
    return make_spec(5, 10, modes=(3, 4))
