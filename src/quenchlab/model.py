"""Chain definitions, normal-mode bases and quench geometry.

Two fixed-end harmonic chains of N and M sites are joined at t = 0 by a
single harmonic coupling between sites N and N+1.  Everything downstream
(Bogoliubov maps, dynamics, covariance evolution) is built on the sine
normal-mode bases constructed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ChainSpec:
    """A uniform harmonic chain with fixed (static) ends.

    Parameters
    ----------
    size : int
        Number of dynamical lattice sites.
    mass : float
        Oscillator mass.
    omega0 : float
        Natural frequency of the individual oscillator.
    hbar : float
        Reduced Planck constant (kept configurable; 1 by default).
    """

    size: int
    mass: float = 1.0
    omega0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or self.size < 1:
            raise ConfigError(f"chain size must be a positive integer, got {self.size!r}")
        for name in ("mass", "omega0", "hbar"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class FockExcitation:
    """Occupation numbers of the pre-quench (disjoint) normal modes.

    Mode numbering is 1-based in all documentation and file formats;
    ``occupations[i]`` stores mode i+1.
    """

    occupations: tuple

    def __post_init__(self):
        occ = tuple(int(n) for n in self.occupations)
        if any(n < 0 for n in occ):
            raise ConfigError("occupations must be non-negative integers")
        object.__setattr__(self, "occupations", occ)

    @classmethod
    def vacuum(cls, total_size):
        return cls((0,) * total_size)

    @classmethod
    def single(cls, total_size, mode):
        """One quantum in 1-based pre-quench mode `mode`."""
        return cls.from_modes(total_size, [mode])

    @classmethod
    def from_modes(cls, total_size, modes):
        occ = [0] * total_size
        for m in modes:
            if not 1 <= m <= total_size:
                raise ConfigError(f"mode index {m} outside 1..{total_size}")
            occ[m - 1] += 1
        return cls(tuple(occ))

    @property
    def total(self):
        return sum(self.occupations)

    def as_array(self):
        return np.asarray(self.occupations, dtype=float)


def default_time_grid(t_max=2000.0, samples=2001):
    return np.linspace(0.0, float(t_max), int(samples))


@dataclass(frozen=True)
class QuenchSpec:
    """Full experiment definition: two chains, initial Fock state, time grid."""

    left: ChainSpec
    right: ChainSpec
    initial_state: FockExcitation
    time_grid: np.ndarray = field(default_factory=default_time_grid)

    def __post_init__(self):
        for name in ("mass", "omega0", "hbar"):
            if getattr(self.left, name) != getattr(self.right, name):
                raise ConfigError(f"left and right chains must share {name}")
        if len(self.initial_state.occupations) != self.total_size:
            raise ConfigError(
                f"initial state has {len(self.initial_state.occupations)} occupations, "
                f"expected N+M = {self.total_size}")
        grid = np.asarray(self.time_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
            raise ConfigError("time grid must be 1-d and start at t = 0")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ConfigError("time grid must be strictly increasing")
        object.__setattr__(self, "time_grid", grid)

    @property
    def n_left(self):
        return self.left.size

    @property
    def n_right(self):
        return self.right.size

    @property
    def total_size(self):
        return self.left.size + self.right.size

    @property
    def joint_chain(self):
        return ChainSpec(self.total_size, self.left.mass, self.left.omega0, self.left.hbar)

    @classmethod
    def build(cls, N, M, occupations=None, mass=1.0, omega0=1.0, hbar=1.0,
              t_max=2000.0, t_steps=2001):
        """Convenience constructor from plain parameters."""
        left = ChainSpec(N, mass, omega0, hbar)
        right = ChainSpec(M, mass, omega0, hbar)
        if occupations is None:
            state = FockExcitation.vacuum(N + M)
        else:
            state = FockExcitation(tuple(occupations))
        return cls(left, right, state, default_time_grid(t_max, t_steps))


@dataclass(frozen=True)
class NormalModeBasis:
    """Sine normal modes of a fixed-end chain: frequencies and transform."""

    size: int
    frequencies: np.ndarray
    transform: np.ndarray
    omega0: float = 1.0

    def __post_init__(self):
        if np.any(self.frequencies <= 0):
            raise ConfigError("normal-mode frequencies must be strictly positive")


def sine_transform(K):
    """The K x K sine matrix S_K with entries sqrt(2/(K+1)) sin(pi k l/(K+1)).

    S_K is symmetric and orthogonal, hence its own inverse.
    """
    k = np.arange(1, K + 1)
    return np.sqrt(2.0 / (K + 1)) * np.sin(np.pi * np.outer(k, k) / (K + 1))


def mode_frequencies(K, omega0=1.0):
    k = np.arange(1, K + 1)
    return 2.0 * omega0 * np.sin(np.pi * k / (2.0 * (K + 1)))


def normal_modes(chain: ChainSpec) -> NormalModeBasis:
    """Normal-mode basis of a fixed-end chain of `chain.size` sites."""
    K = chain.size
    return NormalModeBasis(
        size=K,
        frequencies=mode_frequencies(K, chain.omega0),
        transform=sine_transform(K),
        omega0=chain.omega0,
    )


def beat_frequencies(basis: NormalModeBasis) -> np.ndarray:
    """Matrix of |omega_k - omega_j| for all mode pairs of one basis.

    Equals the closed product form
    4 omega0 |sin(pi (k-j) / (4(K+1))) cos(pi (k+j) / (4(K+1)))|
    by the sine difference identity; `beat_frequencies_product` evaluates
    that form directly for cross-checking.
    """
    w = basis.frequencies
    return np.abs(w[:, None] - w[None, :])


def beat_frequencies_product(basis: NormalModeBasis) -> np.ndarray:
    K = basis.size
    k = np.arange(1, K + 1)
    diff = np.pi * (k[:, None] - k[None, :]) / (4.0 * (K + 1))
    summ = np.pi * (k[:, None] + k[None, :]) / (4.0 * (K + 1))
    return 4.0 * basis.omega0 * np.abs(np.sin(diff) * np.cos(summ))


def stiffness_matrix(chain: ChainSpec) -> np.ndarray:
    """Stiffness (potential quadratic form) of a fixed-end chain, units m omega0^2."""
    K = chain.size
    c = chain.mass * chain.omega0 ** 2
    mat = np.zeros((K, K))
    np.fill_diagonal(mat, 2.0 * c)
    idx = np.arange(K - 1)
    mat[idx, idx + 1] = -c
    mat[idx + 1, idx] = -c
    return mat


def joint_hamiltonian_check(spec: QuenchSpec) -> float:
    """Max entrywise difference between H0 + H_int and the joint-chain stiffness.

    The coupling term -m omega0^2 q_N q_{N+1} contributes exactly the two
    off-diagonal entries that the disjoint block stiffness is missing, so
    the difference is zero by construction; this verifies the assembly.
    """
    N, M = spec.n_left, spec.n_right
    c = spec.left.mass * spec.left.omega0 ** 2
    disjoint = np.zeros((N + M, N + M))
    disjoint[:N, :N] = stiffness_matrix(spec.left)
    disjoint[N:, N:] = stiffness_matrix(spec.right)
    disjoint[N - 1, N] = -c
    disjoint[N, N - 1] = -c
    return float(np.max(np.abs(disjoint - stiffness_matrix(spec.joint_chain))))


_CONFIG_KEYS = {"N", "M", "mass", "omega0", "hbar", "occupations", "t_max",
                "t_steps", "analyses", "preset", "sweep", "floor", "cutoff",
                "order", "recurrence_threshold", "relaxation_skip"}


def parse_config(text):
    """Parse a plain `key = value` config document into a dict of strings.

    Lines starting with # are comments.  Unknown keys raise ConfigError.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def quench_from_config(cfg) -> QuenchSpec:
    """Build a QuenchSpec from a parsed config dict (strings allowed)."""
    try:
        N = int(cfg["N"])
        M = int(cfg["M"])
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"bad integer: {exc}") from None
    num = {}
    for key, default, kind in (("mass", 1.0, float), ("omega0", 1.0, float),
                               ("hbar", 1.0, float), ("t_max", 2000.0, float),
                               ("t_steps", 2001, int)):
        try:
            num[key] = kind(cfg.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{key}: bad numeric value: {exc}") from None
    occ_raw = cfg.get("occupations")
    occ_raw = "" if occ_raw is None else str(occ_raw).strip()
    try:
        occupations = ([int(tok) for tok in occ_raw.split(",")]
                       if occ_raw else None)
    except ValueError as exc:
        raise ConfigError(f"occupations: bad integer: {exc}") from None
    t_max, t_steps = num["t_max"], num["t_steps"]
    if not np.isfinite(t_max):
        raise ConfigError(f"t_max must be finite, got {t_max!r}")
    if t_steps < 1:
        raise ConfigError(f"t_steps must be >= 1, got {t_steps}")
    if t_steps > 1 and t_max <= 0.0:
        raise ConfigError(f"t_max must be > 0 when t_steps > 1, got {t_max!r}")
    return QuenchSpec.build(N, M, occupations=occupations, mass=num["mass"],
                            omega0=num["omega0"], hbar=num["hbar"],
                            t_max=t_max, t_steps=t_steps)
