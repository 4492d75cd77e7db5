"""The bitmask op tables against their `einsum` oracles, their size bound
and their memory; the subset table against the elementwise subset test.

`compose_table` and `fork_kernel_table` are built from rows with integer
bit arithmetic.  The oracles here build the same tables the literal way:
every relation as a 0/1 matrix (`bitrel.mats`), the operator as an
`einsum` contraction over the matrices, and the result packed back into
masks (`bitrel.pack`).
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relfd import bitrel
from relfd.bitrel import mats, pack
from relfd.errors import ResourceLimitError

SRC = Path(__file__).resolve().parents[1] / "src"
SIZES = list(itertools.product((1, 2, 3), repeat=3))


def compose_oracle(si: int, sm: int, so: int) -> np.ndarray:
    """T[r, s] = mask of r.s for r: mid->out, s: in->mid."""
    prod = np.einsum("sim,rmo->rsio", mats(si, sm), mats(sm, so))
    return pack(prod > 0, si, so).astype(np.int32)


def fork_kernel_oracle(sc: int, sa: int, sb: int) -> np.ndarray:
    """T[r, s] = mask of ker(fork(r, s)): F[(x,y), c] = r[c,x] and s[c,y],
    then the kernel contraction over the paired outputs."""
    F = np.einsum("rcx,scy->rscxy", mats(sc, sa), mats(sc, sb))
    K = np.einsum("rscxy,rsdxy->rscd", F, F)  # counts <= 9, uint8 is safe
    return pack(K > 0, sc, sc).astype(np.int32)


def kernel_oracle(m: int, n: int) -> np.ndarray:
    """ker(r) = converse(r) . r, through the composition oracle."""
    idx = np.arange(1 << (m * n))
    return compose_oracle(m, n, m)[bitrel.converse_table(m, n), idx]


@pytest.mark.parametrize("sizes", SIZES)
def test_op_tables_equal_their_einsum_oracles(sizes):
    for table, oracle in ((bitrel.compose_table, compose_oracle),
                          (bitrel.fork_kernel_table, fork_kernel_oracle)):
        got = table(*sizes)
        assert got.dtype == np.int32
        assert np.array_equal(got, oracle(*sizes)), table.__name__
    m, n = sizes[:2]
    assert np.array_equal(bitrel.kernel_table(m, n), kernel_oracle(m, n))


@pytest.mark.parametrize("m, n", list(itertools.product((1, 2, 3), repeat=2)))
def test_subset_table_equals_subset_on_every_pair_of_masks(m, n):
    masks = bitrel.all_masks(m, n)
    table = bitrel.subset_table(m, n)
    assert table.shape == (len(masks), len(masks)) and table.dtype == bool
    assert np.array_equal(table, bitrel.subset(masks[:, None], masks[None, :]))


@pytest.mark.parametrize("table", [bitrel.compose_table,
                                   bitrel.fork_kernel_table])
@pytest.mark.parametrize("sizes", [(4, 1, 1), (1, 4, 1), (1, 1, 4),
                                   (0, 1, 1), (1, 1, 0), (40, 40, 40)])
def test_op_tables_reject_sizes_outside_the_bound(table, sizes):
    # (40, 40, 40) would ask for 2^3200 rows: the bound must come first.
    with pytest.raises(ResourceLimitError, match=r"1\.\.3"):
        table(*sizes)


# Peak RSS is read as VmHWM, not ru_maxrss: Linux carries the forking
# process's resident size into a child's ru_maxrss across exec, so under
# pytest ru_maxrss would read the test runner's size, not the probe's.
MEMORY_PROBE = """
import relfd.bitrel as B

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) / 1024

before = peak_mb()
B.compose_table(3, 3, 3)
B.fork_kernel_table(3, 3, 3)
print(peak_mb() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc/self/status")
def test_carrier_3_tables_stay_small():
    """Peak RSS of a fresh interpreter grows by under 20 MB while it builds
    both carrier-3 tables (about 8 MB; the einsum builds took about 33)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert float(done.stdout) < 20
