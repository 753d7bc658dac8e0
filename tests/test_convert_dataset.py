import subprocess
import sys
from pathlib import Path

import numpy as np

from lrtc import load_tensor

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "convert_dataset.py"


def _convert(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, timeout=60
    )


def test_npy_tensor_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    array = rng.uniform(10, 60, (4, 3, 5))
    array[1, 2, 3] = np.nan
    np.save(tmp_path / "in.npy", array)
    done = _convert(tmp_path / "in.npy", tmp_path / "out.txt")
    assert done.returncode == 0, done.stderr
    tensor, mask = load_tensor(tmp_path / "out.txt")
    expected_mask = np.isfinite(array)
    assert np.array_equal(mask, expected_mask)
    assert np.array_equal(tensor, np.where(expected_mask, array, 0.0))


def test_npz_matrix_is_split_into_days_and_intervals(tmp_path):
    # a (day*interval) x location matrix, as some sources store it
    rng = np.random.default_rng(2)
    matrix = rng.uniform(10, 60, (3 * 4, 5))
    matrix[0, 1] = 0.0
    matrix[5, 2] = np.nan
    matrix[11, 0] = 0.0  # on the third day, which --days-limit drops
    # a 1-d array is no candidate, so no --key is needed
    np.savez(tmp_path / "in.npz", speed=matrix, ids=np.arange(5))
    flags = ["--dims", 3, 4, "--days-limit", 2, "--transpose", "--zero-as-missing"]
    done = _convert(tmp_path / "in.npz", tmp_path / "out.txt", *flags)
    assert done.returncode == 0, done.stderr
    assert "dims (5, 2, 4)" in done.stdout
    full = matrix.T.reshape(5, 3, 4)[:, :2, :]
    expected_mask = np.isfinite(full) & (full != 0.0)
    assert np.count_nonzero(~expected_mask) == 2
    tensor, mask = load_tensor(tmp_path / "out.txt")
    assert np.array_equal(mask, expected_mask)
    assert np.array_equal(tensor, np.where(expected_mask, full, 0.0))


def test_ambiguous_npz_without_key_names_the_candidates(tmp_path):
    np.savez(tmp_path / "in.npz", speed=np.ones((2, 6)), volume=np.ones((2, 3, 2)))
    done = _convert(tmp_path / "in.npz", tmp_path / "out.txt", "--dims", 3, 2)
    assert done.returncode != 0
    assert "--key" in done.stderr and "'speed'" in done.stderr and "'volume'" in done.stderr
    assert not (tmp_path / "out.txt").exists()
