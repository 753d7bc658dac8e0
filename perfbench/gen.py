"""Seeded stand-in inputs for the workloads, made with numpy only before timing.

For each (workload, shape, seed) a cache directory holds

``input.txt``
    the dense-format file the program reads: header ``n1 n2 n3``, then one
    line of ``n3`` values per (i1, i2), ``nan`` where an entry is missing;
``truth.npz``
    the full ground truth plus the ``native`` mask (entries the data set
    itself observed) and the ``visible`` mask (entries written into the file).

The same seed always gives byte-identical files. Only the newest
``KEEP_PER_WORKLOAD`` seeds of each workload stay cached, because the
real-scale files run to tens of megabytes.
"""

import os
import shutil
import zlib

import numpy as np

KEEP_PER_WORKLOAD = 3


def _cache_dir(cache_root, workload, seed):
    shape = "x".join(str(n) for n in workload.shape)
    return os.path.join(cache_root, f"{workload.name}-{shape}-seed{seed}")


def make_arrays(workload, seed):
    """Ground truth, native mask and file-visible mask for one seed."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    # Orthonormal factor columns (scaled to the size of Gaussian ones) fix the
    # spectrum across seeds, so the iterations to converge, and with them the
    # work of an uncapped run, hardly depend on the seed.
    factors = [
        np.linalg.qr(rng.standard_normal((n, workload.rank)))[0] * np.sqrt(n)
        for n in workload.shape
    ]
    truth = np.einsum("ir,jr,kr->ijk", *factors) + workload.offset
    truth += workload.noise * rng.standard_normal(workload.shape)
    native = rng.random(workload.shape) >= workload.native_rate
    visible = native
    if workload.file_nm_rate:
        dropped = rng.random(workload.shape[:2]) < workload.file_nm_rate
        visible = native & ~dropped[:, :, None]
    return truth, native, visible


def write_dense(path, tensor, visible):
    n1, n2, n3 = tensor.shape
    rows = tensor.reshape(-1, n3).tolist()
    keep = visible.reshape(-1, n3).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n1} {n2} {n3}\n")
        for row, ok in zip(rows, keep):
            fh.write(" ".join(repr(v) if k else "nan" for v, k in zip(row, ok)))
            fh.write("\n")


def ensure_inputs(cache_root, workload, seed):
    """Return the cache directory for (workload, seed), generating it if absent."""
    directory = _cache_dir(cache_root, workload, seed)
    truth_path = os.path.join(directory, "truth.npz")
    if not os.path.exists(truth_path):
        os.makedirs(directory, exist_ok=True)
        truth, native, visible = make_arrays(workload, seed)
        tmp = os.path.join(directory, "input.txt.tmp")
        write_dense(tmp, truth, visible)
        os.replace(tmp, os.path.join(directory, "input.txt"))
        # truth.npz is written last: its presence marks a complete entry.
        tmp = os.path.join(directory, "truth.tmp.npz")
        np.savez(tmp, truth=truth, native=native, visible=visible)
        os.replace(tmp, truth_path)
    os.utime(directory)
    _evict(cache_root, workload, directory)
    return directory


def _evict(cache_root, workload, current):
    prefix = f"{workload.name}-"
    entries = [
        os.path.join(cache_root, name)
        for name in os.listdir(cache_root)
        if name.startswith(prefix) and os.path.join(cache_root, name) != current
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_PER_WORKLOAD - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
