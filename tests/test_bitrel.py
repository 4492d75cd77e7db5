"""The bitmask op tables against their `einsum` oracles, their size bound
and their memory; the subset table against the elementwise subset test;
the memory of each carrier-3 law sweep.

`compose_table` and `fork_kernel_table` are built from rows with integer
bit arithmetic.  The oracles here build the same tables the literal way:
every relation as a 0/1 matrix (`bitrel.mats`), the operator as an
`einsum` contraction over the matrices, and the result packed back into
masks (`bitrel.pack`).
"""

import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from relfd import bitrel
from relfd.bitrel import mats, pack
from relfd.errors import ResourceLimitError
from relfd.laws import LAW_REGISTRY

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
    # packed, bit y % 8 of byte y // 8; the padding bits of a short row are 0
    packed = bitrel.subset_table(m, n, packed=True)
    assert packed.dtype == np.uint8
    assert np.array_equal(packed,
                          np.packbits(table, axis=1, bitorder="little"))


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
    """Peak RSS of a fresh interpreter grows by under 4.5 MB while it builds
    both carrier-3 tables: about 3.0 MB in row blocks, 7.3 MB when each
    table was built whole, and about 33 MB by the einsum builds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert float(done.stdout) < 4.5


# Traced peaks in MiB (`tracemalloc`), measured with numpy 2.4: each
# registered law's sweep with every carrier at 3, its tables built
# beforehand and a memo of its own, and each uncached carrier-3 build of
# the two tables over pairs of relations, whose 1 MiB result is part of
# its peak, and of the subset table (0.25 MiB).  Before the row blocks of
# `bitrel.BLOCK_ROWS` rows, union_injectivity peaked at 7.0,
# union_typing_corrupted at 7.1, union_fd_typing at 6.2, fd_consequent_pairing
# at 2.6, fork_least_upper_bound at 2.5, converse_of_compose and
# fork_lub_corrupted at 2.25, both shunting laws at 1.75, and the builds at
# 3.0 and 6.0.  Before the per-search memo and the packed and class-judged
# sweeps, union_fd_typing peaked at 1.62, fd_trading at 1.52,
# union_typing_corrupted at 0.62, fd_consequent_pairing at 0.33,
# join_fd_typing at 0.28, join_converse_corrupted and both
# fork_least_upper_bound laws at 0.25, both shunting laws at 0.23, and the
# subset table, doubled by `np.concatenate`, at 0.50; the rest were as now.
TRACED_PEAK_MIB = {
    "converse_of_compose": 0.38, "converse_involution": 0.01,
    "shunt_function_left": 0.10, "shunt_function_right": 0.10,
    "injectivity_galois": 0.86, "fd_trading": 0.96,
    "union_injectivity": 0.89, "fork_least_upper_bound": 0.11,
    "fd_consequent_pairing": 0.29, "union_fd_typing": 0.77,
    "mutual_dependency_self": 0.25, "join_fd_typing": 0.19,
    "galois_corrupted": 0.86, "fork_lub_corrupted": 0.11,
    "union_typing_corrupted": 0.52, "join_converse_corrupted": 0.22,
    "compose_table": 1.28, "fork_kernel_table": 1.89, "subset_table": 0.26,
}
PEAK_MARGIN_MIB = 0.5
BUILD_SIZES = {"compose_table": (3, 3, 3), "fork_kernel_table": (3, 3, 3),
               "subset_table": (3, 3)}


def _traced_peak_mib(call) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", [*LAW_REGISTRY, *BUILD_SIZES])
def test_carrier_3_sweeps_and_builds_stay_under_their_traced_peaks(name):
    if name in LAW_REGISTRY:
        law = LAW_REGISTRY[name]
        sizes = dict.fromkeys(law.slots(), 3)
        law.sweep(sizes)  # builds and caches its tables
        call = partial(law.sweep, sizes)
    else:
        call = partial(getattr(bitrel, name).__wrapped__, *BUILD_SIZES[name])
    peak = _traced_peak_mib(call)
    assert peak < TRACED_PEAK_MIB[name] + PEAK_MARGIN_MIB, peak
