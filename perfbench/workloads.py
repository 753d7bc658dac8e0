"""Workload definitions shared by the driver, the input generator and the child.

Each workload is a synthetic stand-in at one of the shapes the paper evaluates
on, plus the lrtc calls that run on it. The thread settings keep Python
threads x BLAS threads at the two cores the sizing was measured on; the driver
refuses to run when that product exceeds the cores available.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: tuple
    rank: int
    offset: float
    noise: float
    native_rate: float
    # NM rate of the fiber holes written into the input file itself (st only).
    file_nm_rate: float
    theta: float
    # Fixed iteration count for capped workloads; None runs the default config.
    max_iter: object
    jobs: int
    blas_threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gz-rm-solve",
            why="paper headline config at Guangzhou scale: SVT-bound, 15 MB tensors far beyond cache",
            shape=(214, 61, 144),
            rank=10,
            offset=40.0,
            noise=1.0,
            native_rate=0.05,
            file_nm_rate=0.0,
            theta=0.30,
            max_iter=5,
            jobs=1,
            blas_threads=2,
        ),
        Workload(
            name="st-nm-impute",
            why="impute path at Seattle scale: real file load/save, 28x93024 unfolding, low theta",
            shape=(323, 28, 288),
            rank=10,
            offset=40.0,
            noise=1.0,
            native_rate=0.05,
            file_nm_rate=0.40,
            theta=0.05,
            max_iter=3,
            jobs=1,
            blas_threads=2,
        ),
        Workload(
            name="acc-grid",
            why="benchmark grid and theta CV at a cache-resident shape: per-call overhead and convergence",
            shape=(30, 20, 40),
            rank=3,
            offset=10.0,
            noise=0.3,
            native_rate=0.05,
            file_nm_rate=0.0,
            theta=0.10,
            max_iter=None,
            jobs=2,
            blas_threads=1,
        ),
    )
}

# Tiny shapes with pairwise distinct dims (the trace maps an unfolding's row
# count back to its mode) that run every workload path in well under a second.
_SMOKE_SHAPES = {
    "gz-rm-solve": (12, 7, 10),
    "st-nm-impute": (13, 6, 11),
    "acc-grid": (9, 7, 8),
}


def get_workload(name, smoke=False):
    workload = WORKLOADS[name]
    if smoke:
        workload = replace(workload, shape=_SMOKE_SHAPES[name], rank=min(workload.rank, 2))
    return workload
