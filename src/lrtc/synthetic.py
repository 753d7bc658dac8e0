"""Desk-scale synthetic low-rank tensors for recovery experiments."""

import numpy as np

from .errors import ConfigError
from .masks import check_seed


def synth_lowrank(dims, rank, value_offset=10.0, seed=0, ones_factors=False):
    """Sum of ``rank`` outer products of seeded standard-normal factors, plus an offset.

    The offset keeps values away from zero so percentage errors stay
    well defined on synthetic runs (it adds one rank to the result unless it
    is 0). ``ones_factors=True`` overrides the random factors with all-ones,
    which makes every entry exactly ``rank + value_offset``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ConfigError(f"dims must be three positive integers, got {dims}")
    if not 1 <= rank <= min(dims):
        raise ConfigError(f"rank must lie in [1, {min(dims)}] for dims {dims}, got {rank}")
    check_seed(seed)
    if not np.isfinite(value_offset):
        raise ConfigError(f"offset must be finite, got {value_offset}")
    if ones_factors:
        a = np.ones((dims[0], rank))
        b = np.ones((dims[1], rank))
        c = np.ones((dims[2], rank))
    else:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dims[0], rank))
        b = rng.standard_normal((dims[1], rank))
        c = rng.standard_normal((dims[2], rank))
    return np.einsum("ir,jr,kr->ijk", a, b, c) + float(value_offset)
