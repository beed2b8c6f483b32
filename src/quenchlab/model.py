"""Chain definitions, normal-mode bases and quench geometry.

Two fixed-end harmonic chains of N and M sites are joined at t = 0 by a
single harmonic coupling between sites N and N+1.  Everything downstream
(Bogoliubov maps, dynamics, covariance evolution) is built on the sine
normal-mode bases constructed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _occupation(n):
    """n as an occupation number; a ConfigError unless it is a non-negative
    integer (an integral float or a string of digits counts, 1.7 does not)."""
    try:
        k = int(n)
        ok = k >= 0 and k == float(n)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError("occupations must be non-negative integers, "
                          f"got {n!r}")
    return k


@dataclass(frozen=True)
class FockExcitation:
    """Occupation numbers of the pre-quench (disjoint) normal modes.

    Mode numbering is 1-based in all documentation and file formats;
    ``occupations[i]`` stores mode i+1.
    """

    occupations: tuple

    def __post_init__(self):
        object.__setattr__(self, "occupations",
                           tuple(map(_occupation, self.occupations)))

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


ANALYSES = ("dynamics", "gge", "covariance", "fock-oracle", "delocalization",
            "sweep")


def _key(default, kind, low=None, strict=False):
    """A numeric config key: its default, its type and its lower bound."""
    return field(default=default,
                 metadata={"kind": kind, "low": low, "strict": strict})


def _number(key, value, kind, low, strict):
    """value as a finite `kind`, >= low (> low when strict, unbounded when
    low is None); a ConfigError naming `key` otherwise.  An int key takes
    what `_occupation` takes: an integral float or a string of digits,
    not 5.9 or "100.7"."""
    try:
        val = kind(value)
        if kind is int and val != float(value):
            val = None
    except (TypeError, ValueError, OverflowError):
        val = None
    # nan fails every comparison; inf is named
    ok = val is not None and val != float("inf") and (
        low is None or (val > low if strict else val >= low))
    if not ok:
        bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
        raise ConfigError(f"{key} must be a finite {kind.__name__}{bound}, "
                          f"got {value!r}")
    return val


def _items(value):
    """The items of a comma-separated string (none if it is blank), or of a
    sequence, as a tuple; an empty item stays and fails its key's check."""
    if isinstance(value, str):
        value = [tok.strip() for tok in value.split(",")] if value.strip() else []
    return tuple(value)


@dataclass(frozen=True)
class RunConfig:
    """One run of the command line: every config key, typed, with its default.

    Values given as strings (as `parse_config` passes them) are converted
    and range-checked here, so every RunConfig is valid.  N and M may be
    left out when only the sweep runs; their range is QuenchSpec's to check.
    Empty `occupations` mean the vacuum.  Library functions that take one
    of these settings default to the value here.
    """

    N: int | None = _key(None, int)
    M: int | None = _key(None, int)
    mass: float = _key(1.0, float, 0.0, strict=True)
    omega0: float = _key(1.0, float, 0.0, strict=True)
    hbar: float = _key(1.0, float, 0.0, strict=True)
    occupations: tuple = ()
    t_max: float = _key(2000.0, float, 0.0, strict=True)
    t_steps: int = _key(2001, int, 1)
    analyses: tuple = ("dynamics",)
    cutoff: int = _key(8, int, 1)
    order: int = _key(12, int, 1)
    floor: float = _key(1e-12, float, 0.0, strict=True)
    recurrence_threshold: float = _key(0.5, float, 0.0, strict=True)
    relaxation_skip: float = _key(50.0, float, 0.0)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata and value is not None:
                object.__setattr__(self, f.name,
                                   _number(f.name, value, **f.metadata))
        occ = tuple(map(_occupation, _items(self.occupations)))
        names = _items(self.analyses)
        for name in names:
            if name not in ANALYSES:
                raise ConfigError(f"analyses: unknown analysis {name!r}")
        if len(set(names)) < len(names):
            raise ConfigError(f"analyses: repeated analysis in {names}")
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "analyses", names)


def default_time_grid(t_max=RunConfig.t_max, samples=RunConfig.t_steps):
    """`samples` uniform times on [0, t_max]; the defaults are RunConfig's."""
    return np.linspace(0.0, float(t_max), int(samples))


def _time_grid(times, name="time grid", from_zero=True):
    """times as a 1-d float array of finite, strictly increasing values that
    starts at t = 0 (anywhere when not `from_zero`); a ConfigError naming
    `name` otherwise."""
    grid = np.asarray(times, dtype=float)
    first = "start at t = 0" if from_zero else "hold a sample"
    if grid.ndim != 1 or grid.size < 1 or (from_zero and grid[0] != 0.0):
        raise ConfigError(f"{name} must be 1-d and {first}")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"{name} must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{name} must be strictly increasing")
    return grid


def _size(n):
    """n as a chain size; a ConfigError unless it is a positive integer."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigError(f"chain size must be a positive integer, got {n!r}")
    return n


@dataclass(frozen=True)
class QuenchSpec:
    """Full experiment definition: chains of N and M sites, the initial Fock
    state, the time grid, and the mass, omega0 and hbar that both chains and
    the joined chain share (RunConfig's values by default)."""

    n_left: int
    n_right: int
    initial_state: FockExcitation
    time_grid: np.ndarray = field(default_factory=default_time_grid)
    mass: float = RunConfig.mass
    omega0: float = RunConfig.omega0
    hbar: float = RunConfig.hbar

    def __post_init__(self):
        _size(self.n_left)
        _size(self.n_right)
        for name in ("mass", "omega0", "hbar"):
            _number(name, getattr(self, name), float, 0.0, strict=True)
        if len(self.initial_state.occupations) != self.total_size:
            raise ConfigError(
                f"initial state has {len(self.initial_state.occupations)} occupations, "
                f"expected N+M = {self.total_size}")
        object.__setattr__(self, "time_grid", _time_grid(self.time_grid))

    @property
    def total_size(self):
        return self.n_left + self.n_right

    @classmethod
    def build(cls, N, M, occupations=None, mass=RunConfig.mass,
              omega0=RunConfig.omega0, hbar=RunConfig.hbar,
              t_max=RunConfig.t_max, t_steps=RunConfig.t_steps):
        """Convenience constructor from plain parameters."""
        if occupations is None:
            state = FockExcitation.vacuum(_size(N) + _size(M))
        else:
            state = FockExcitation(tuple(occupations))
        return cls(N, M, state, default_time_grid(t_max, t_steps), mass,
                   omega0, hbar)


def sine_transform(K):
    """The K x K sine matrix S_K with entries sqrt(2/(K+1)) sin(pi k l/(K+1)).

    S_K is symmetric and orthogonal, hence its own inverse.  k l is reduced
    mod 2(K+1), the sine's period, in integers before it is scaled by pi,
    so that no argument carries the K eps rounding of pi k l/(K+1).
    """
    k = np.arange(1, K + 1)
    kl = np.outer(k, k) % (2 * (K + 1))
    return np.sqrt(2.0 / (K + 1)) * np.sin(np.pi * kl / (K + 1))


def mode_frequencies(K, omega0=RunConfig.omega0):
    k = np.arange(1, K + 1)
    return 2.0 * omega0 * np.sin(np.pi * k / (2.0 * (K + 1)))


def disjoint_frequencies(spec: QuenchSpec) -> np.ndarray:
    """Pre-quench (disjoint) mode frequencies, left chain first."""
    return np.concatenate([mode_frequencies(spec.n_left, spec.omega0),
                           mode_frequencies(spec.n_right, spec.omega0)])


def disjoint_transform(spec: QuenchSpec) -> np.ndarray:
    """Block-diagonal sine transform of the two disjoint chains."""
    N, K = spec.n_left, spec.total_size
    blocks = np.zeros((K, K))
    blocks[:N, :N] = sine_transform(N)
    blocks[N:, N:] = sine_transform(spec.n_right)
    return blocks


def parse_config(text) -> RunConfig:
    """Parse a plain `key = value` config document into a RunConfig.

    Lines starting with # are comments.  Unknown and repeated keys raise
    ConfigError.  Keys the text leaves out keep their RunConfig default.
    """
    keys = {f.name for f in fields(RunConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return RunConfig(**out)


def quench_from_config(cfg: RunConfig) -> QuenchSpec:
    """Build the QuenchSpec of a parsed config."""
    for key in ("N", "M"):
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required key {key!r}")
    return QuenchSpec.build(cfg.N, cfg.M, occupations=cfg.occupations or None,
                            mass=cfg.mass, omega0=cfg.omega0, hbar=cfg.hbar,
                            t_max=cfg.t_max, t_steps=cfg.t_steps)
