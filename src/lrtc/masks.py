"""Synthetic missing-data patterns: random (RM) and non-random (NM).

RM drops individual entries independently; NM drops whole time-of-day fibers,
one per selected (location, day) pair, which mimics a sensor being dark for an
entire day. Both generators return the mask of RETAINED entries and are pure
functions of (pattern, rate, seed, dims).
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError

PATTERNS = ("rm", "nm")


def _check_rate(rate):
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"missing rate must lie strictly in (0, 1), got {rate}")


def check_seed(seed):
    """A random seed must be a nonnegative integer (``numpy`` rejects the rest)."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class MissingScenario:
    """Pattern + rate + seed; fully determines a synthetic mask for given dims."""

    pattern: str
    rate: float
    seed: int

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ConfigError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        _check_rate(self.rate)
        check_seed(self.seed)


def generate_rm_mask(dims, rate, seed):
    """Each entry goes missing independently with probability ``rate``."""
    _check_rate(rate)
    rng = np.random.default_rng(seed)
    return rng.random(tuple(dims)) >= rate


def generate_nm_mask(dims, rate, seed):
    """Each (location, day) pair loses its whole mode-3 fiber with probability ``rate``."""
    _check_rate(rate)
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    dropped = rng.random(dims[:2]) < rate
    return np.broadcast_to(~dropped[:, :, None], dims).copy()


def scenario_mask(dims, scenario):
    """Mask of retained entries for a scenario; deterministic in all arguments."""
    if scenario.pattern == "rm":
        return generate_rm_mask(dims, scenario.rate, scenario.seed)
    return generate_nm_mask(dims, scenario.rate, scenario.seed)
