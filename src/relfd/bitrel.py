"""Dense bitmask tables for exhaustive sweeps over small relations.

A relation between carriers of sizes (m, n) is a mask in [0, 2^(m*n)):
bit ``i*n + j`` is set iff source element i maps to target element j.  Mask
order is therefore the canonical enumeration order of relation assignments.
Row i of a mask, ``mask >> (i*n) & (2^n - 1)``, is the set of targets of i.
Op tables are precomputed with numpy so that law sweeps reduce to integer
gathers and bitwise comparisons; sizes are capped at MAX_SIZE because the
tables grow as 4^(m*n).

The two tables over pairs of relations, `compose_table` and
`fork_kernel_table`, are built from rows with integer shifts, ORs and
gathers, so no table holds more than one int32 per (r, s) pair.

Block rule: an array over pairs of relations is built and swept
BLOCK_ROWS rows of its first (r) axis at a time (`row_blocks`).  At
carrier 3 such an array is 512 x 512, so one int32 temporary over it is
1 MiB, and numpy gathers by an int32 index array through an intp copy
twice that size; a table build or a law sweep over whole arrays held
several of them at once.  A table of at most BLOCK_ROWS rows, every table
of carrier 2, is one block.

The honest construction matters: every table is derived from the pointwise
definition of its operator (fork kernels in particular are computed from the
fork itself, not from any algebraic shortcut), and the test suite checks
each table against the plain relation algebra.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .rel import Carrier, Rel

MAX_SIZE = 3
# 64 rows of a 512-wide int32 array is 128 KiB.  Measured on the carrier-3
# law suite, warm: 32 rows lowered the largest traced peak of a sweep or a
# build from 1.9 to 1.5 MiB and took about 8 % longer; 128 rows raised it
# to 2.6 MiB.
BLOCK_ROWS = 64


def check_size(n: int) -> None:
    if not 1 <= n <= MAX_SIZE:
        raise ResourceLimitError(
            f"bitmask sweeps support carrier sizes 1..{MAX_SIZE}, got {n}")


@lru_cache(maxsize=None)
def canonical_carrier(n: int) -> Carrier:
    return Carrier(f"U{n}", tuple(f"u{i}" for i in range(n)))


def mask_to_rel(mask: int, m: int, n: int) -> Rel:
    src = canonical_carrier(m)
    tgt = canonical_carrier(n)
    pairs = set()
    for i in range(m):
        for j in range(n):
            if mask >> (i * n + j) & 1:
                pairs.add((src.elements[i], tgt.elements[j]))
    return Rel(src, tgt, frozenset(pairs))


@lru_cache(maxsize=None)
def mats(m: int, n: int) -> np.ndarray:
    """All 2^(m*n) relations as (count, m, n) 0/1 matrices, mask order."""
    check_size(m)
    check_size(n)
    count = 1 << (m * n)
    bits = (np.arange(count, dtype=np.int64)[:, None]
            >> np.arange(m * n, dtype=np.int64)) & 1
    return bits.reshape(count, m, n).astype(np.uint8)


def pack(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of `mats` over the trailing two axes."""
    flat = mat.reshape(*mat.shape[:-2], m * n).astype(np.int64)
    weights = np.left_shift(1, np.arange(m * n, dtype=np.int64))
    return flat @ weights


@lru_cache(maxsize=None)
def row_blocks(n: int) -> tuple[slice, ...]:
    """The blocks of BLOCK_ROWS rows that cover an axis of n rows, in order;
    the last may be shorter.  Cached: the sweeps of carrier 2 ask for one
    block in every loop iteration."""
    return tuple(slice(lo, min(lo + BLOCK_ROWS, n))
                 for lo in range(0, n, BLOCK_ROWS))


def _rows(m: int, n: int) -> list[np.ndarray]:
    """Row i of every mask over m -> n, in mask order, for each i < m."""
    masks = np.arange(1 << (m * n), dtype=np.int32)
    return [masks >> (i * n) & ((1 << n) - 1) for i in range(m)]


@lru_cache(maxsize=None)
def compose_table(si: int, sm: int, so: int) -> np.ndarray:
    """T[r, s] = mask of r.s for r: mid->out, s: in->mid (apply s first).

    Row i of r.s is the union of r's rows over the mids that s reaches from
    i.  U[r, mids] holds that union for every set of mids, each column one
    row of r ORed onto the column without its lowest mid; row i of the
    result is then the gather U[:, row i of s].
    """
    for n in (si, sm, so):
        check_size(n)
    r_rows = _rows(sm, so)
    unions = np.zeros((1 << (sm * so), 1 << sm), dtype=np.int32)
    for mids in range(1, 1 << sm):
        low = mids & -mids
        unions[:, mids] = unions[:, mids ^ low] | r_rows[low.bit_length() - 1]
    s_rows = _rows(si, sm)
    out = np.zeros((1 << (sm * so), 1 << (si * sm)), dtype=np.int32)
    for rows in row_blocks(len(out)):
        block = out[rows]
        for i, s_row in enumerate(s_rows):
            block |= unions[rows][:, s_row] << (i * so)
    return out


@lru_cache(maxsize=None)
def converse_table(m: int, n: int) -> np.ndarray:
    M = mats(m, n)
    return pack(M.transpose(0, 2, 1), n, m).astype(np.int32)


@lru_cache(maxsize=None)
def kernel_table(m: int, n: int) -> np.ndarray:
    """ker(r) = converse(r) . r as a mask over m -> m."""
    conv = converse_table(m, n)
    ct = compose_table(m, n, m)
    idx = np.arange(1 << (m * n))
    return ct[conv, idx].astype(np.int32)


@lru_cache(maxsize=None)
def domain_table(m: int, n: int) -> np.ndarray:
    """Partial-identity mask (over m -> m) of each relation's domain."""
    M = mats(m, n)
    has = M.any(axis=2)
    weights = np.left_shift(
        1, (np.arange(m, dtype=np.int64) * m + np.arange(m, dtype=np.int64)))
    return (has.astype(np.int64) @ weights).astype(np.int32)


@lru_cache(maxsize=None)
def function_masks(m: int, n: int) -> np.ndarray:
    """Masks of all total functions m -> n, lex order of output tuples."""
    check_size(m)
    check_size(n)
    out = []
    for outs in itertools.product(range(n), repeat=m):
        mask = 0
        for i, j in enumerate(outs):
            mask |= 1 << (i * n + j)
        out.append(mask)
    return np.array(out, dtype=np.int32)


@lru_cache(maxsize=None)
def fork_kernel_table(sc: int, sa: int, sb: int) -> np.ndarray:
    """T[r, s] = mask of ker(fork(r, s)) over sc -> sc.

    Computed from the fork itself: row c of fork(r, s) is the pair bitset
    F_c = outer[row c of r, row c of s], bit ``x*sb + y`` set iff x is in
    the first set and y in the second, and bit (c, d) of the kernel is set
    iff F_c & F_d != 0.  Never as ker r & ker s: the law sweep
    `fork_least_upper_bound` would then check that shortcut against itself.
    """
    for n in (sc, sa, sb):
        check_size(n)
    a_sets = np.arange(1 << sa, dtype=np.int32)[:, None]
    b_sets = np.arange(1 << sb, dtype=np.int32)[None, :]
    outer = np.zeros((1 << sa, 1 << sb), dtype=np.int32)
    for x in range(sa):
        outer |= np.where(a_sets >> x & 1, b_sets << (x * sb), 0)
    r_rows, s_rows = _rows(sc, sa), _rows(sc, sb)
    out = np.zeros((1 << (sc * sa), 1 << (sc * sb)), dtype=np.int32)
    for rows in row_blocks(len(out)):
        forks = [outer[r[rows, None], s[None, :]]
                 for r, s in zip(r_rows, s_rows)]
        block = out[rows]
        for c, d in itertools.product(range(sc), repeat=2):
            block |= (((forks[c] & forks[d]) != 0).astype(np.int32)
                      << (c * sc + d))
    return out


def all_masks(m: int, n: int) -> np.ndarray:
    check_size(m)
    check_size(n)
    return np.arange(1 << (m * n), dtype=np.int32)


def subset(x, y):
    """Elementwise mask test: every bit of x is set in y."""
    return (x & ~y) == 0


@lru_cache(maxsize=None)
def subset_table(m: int, n: int, packed: bool = False) -> np.ndarray:
    """T[x, y] = subset(x, y) for every pair of masks over m -> n, built
    in place from the mask bits alone: row 0 is all true, and row
    x | 1 << i, for x < 2^i, is row x and bit i of y.  Packed, row x is
    the bitset of those y: bit y % 8 of byte y // 8 (`np.packbits`,
    little-endian)."""
    masks = all_masks(m, n)

    def column(bits):
        return (np.packbits(bits, bitorder="little") if packed
                else bits.astype(bool))

    row = column(masks >= 0)
    out = np.empty((len(masks), len(row)), dtype=row.dtype)
    out[0] = row
    for i in range(m * n):
        half = 1 << i
        np.bitwise_and(out[:half], column(masks >> i & 1),
                       out=out[half:2 * half])
    return out


def fit_table(n: int, kernels: np.ndarray) -> np.ndarray:
    """T[m] = bitset of the j with subset(m, kernels[j]), for every mask m
    over n -> n; kernels are masks over n -> n.  The bitsets are int32, for
    up to 31 kernels: a function list at carrier sizes up to 3 holds at
    most 27, and `union_injectivity` passes at most 18 distinct kernels."""
    if len(kernels) > 31:
        raise ResourceLimitError(
            f"kernel bitsets hold at most 31 kernels, got {len(kernels)}")
    ok = subset(all_masks(n, n)[:, None], kernels[None, :])
    return ok.astype(np.int32) @ np.left_shift(
        1, np.arange(len(kernels), dtype=np.int32))
