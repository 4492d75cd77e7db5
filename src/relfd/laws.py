"""Registered algebraic laws and their exhaustive small-scope sweeps.

Each law carries two independent routes:

* `holds(assignment)` evaluates the law body pointwise on concrete `Rel`
  values through the plain algebra; it is the oracle, and every witness a
  sweep finds is re-verified against it before being reported.
* `sweep(sizes, memo=None)` checks the law over *all* assignments at the
  given carrier sizes using the bitmask tables, returning the first
  falsifying assignment in the law's fixed nesting order, or None.

Carrier-size combinations: only slots that are sources of function-typed
variables vary from 1 to the bound; all other slots sit at the bound.  Any
falsifying assignment at smaller sizes is also one when those carriers are
enlarged (pair sets and all the operators used here are unaffected by unused
elements; only function sources constrain their carrier), so nothing in
scope is missed.

Each deliberately broken variant keeps the engine honest: the sweep must
find a witness and the oracle must confirm it.  A variant is its sound
twin's `holds` and `sweep` called with ``corrupted=True``, which edits one
term of the law (drops a converse or a conjunct, or swaps premises and
conclusion) on top of the same op tables.

Each sweep judges each distinct mask once.  A judgement that depends on an
assignment only through one mask (often a kernel: a 3x3 relation has 18
distinct kernels out of 512) is computed per distinct value and looked up
per assignment: a law whose sides read T or f only through its kernel skips
a T or f whose kernel is already judged, and "m is in ker g" for all g at
once is a bitset over g (`bitrel.fit_table`), tabulated over every mask m,
so one comparison covers both sides for every g.  `_first_bit` reads the
first witness from those bitsets in the same C order as `_first_false` on
the unpacked boolean array, so every sweep keeps its nesting order and its
first witness.

Likewise each sweep judges each distinct computed term once: a function
whose rows of computed terms (say ker(f.R~) for every R, which
`_ker_through` tabulates) are byte-equal to an earlier one's gets the same
judgement, so `_distinct` keeps the first of each class and the nesting
order and first witness stay.  A skip needs computed rows that are
byte-equal; an algebraic identity ("ker(f.R~) depends only on ker f") must
never justify one, the same caution as `bitrel.fork_kernel_table`'s: the
identity holds of the true tables, so resting on it would hide a wrong
table from the sweep that is meant to expose it.

A sweep judges on the smallest form of its computed terms and spreads
back only to locate a witness.  Where a side reads a variable only
through computed values, the judgement is made once per class of equal
values (the R and S of `injectivity_galois`, the R of
`fork_least_upper_bound`, the ker(f.R~) of `fd_consequent_pairing`) or
per class of a mask that side reads (`join_fd_typing`'s domain classes,
judged by `_join_violation`), and only a class that fails is spread back
over its members, as booleans.  Each sweep tests "no witness" first (a
whole comparison, say `np.array_equal`) and searches for the first
witness only when there is one.  Past one row block of R, the shunting
laws test it on S-bitsets (`_shunt`): per f, a row of the left side, the
S that hold a computed mask, is a row of the packed `bitrel.subset_table`,
and the right side puts each S in the row of its computed mask, then ORs
each row into those of its subsets (`_down_or`); only an f whose sides
differ is searched, as before.

What a search keeps: `search_law` gives the sweeps of its size
combinations one memo (`_memo`), which holds each computed term under its
name and the carrier sizes it reads, so a combination that reads the same
sizes reuses it (at carrier 3 `fd_trading` runs 81 combinations, and its
ker(y.z) reads only B, Z and CY, 9 of them).  The memo is dropped when the
call returns, and a bare `sweep(sizes)` builds its own.  A table cached
across calls is tabulated from mask bits alone (`bitrel.subset_table`);
nothing derived from `compose_table` or `kernel_table` outlives one
`search_law` call, so a wrong op table always reaches the sweep that
reads it.

A sweep over pairs of relations takes the R axis in blocks
(`bitrel.row_blocks`), for the reason the bitrel docstring gives: at
carrier 3 one int32 array over every (R, S) is 1 MiB, and numpy gathers by
an int32 index array through an intp copy twice that size.  Where R leads
the nesting order, the first block with a false holds the first witness
(`_first_false_by_rows`); where a bit leads it (X in `union_injectivity`,
g in `union_fd_typing`), the lowest bit set in any block is taken first,
then its first (R, S) (`_first_bit_by_rows`).  A table of at most
`bitrel.BLOCK_ROWS` rows is one block.

`search_law_bruteforce` is a slow pointwise mirror of the sweep machinery
used by the tests to cross-validate the vectorized engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Optional

import numpy as np

from . import bitrel as B
from . import rel
from .fd import satisfies_typed
from .typed import fd_trade, join_verdicts, mutual_dependency, union_verdicts


class LawVariable(rel.Frozen):
    __slots__ = _fields = ("name", "source", "target", "function")

    def __init__(self, name: str, source: str, target: str,
                 function: bool = False):
        super().__init__(name, source, target, function)


# The one dataclass of relfd: bench/tracer.py wraps each registered law's
# `holds` and `sweep` through `dataclasses.replace`.
@dataclass(frozen=True)
class Law:
    law_id: str
    summary: str
    variables: tuple[LawVariable, ...]
    holds: Callable[[dict], bool]
    sweep: Callable[..., Optional[dict]]  # (sizes, memo=None)

    def slots(self) -> tuple[str, ...]:
        seen: dict = {}
        for v in self.variables:
            seen.setdefault(v.source, None)
            seen.setdefault(v.target, None)
        return tuple(seen)

    def size_combos(self, max_carrier: int) -> Iterator[dict]:
        """Size assignments, smallest first: the source slots of function
        variables vary, the others stay at the bound."""
        slots = self.slots()
        fn_sources = {v.source for v in self.variables if v.function}
        varying = [s for s in slots if s in fn_sources]
        for sizes in itertools.product(range(1, max_carrier + 1),
                                       repeat=len(varying)):
            combo = dict.fromkeys(slots, max_carrier)
            combo.update(zip(varying, sizes))
            yield combo

    def assignment_from_masks(self, sizes: dict, masks: dict) -> dict:
        out = {}
        for v in self.variables:
            out[v.name] = B.mask_to_rel(masks[v.name], sizes[v.source],
                                        sizes[v.target])
        return out


def _first_false(ok: np.ndarray) -> Optional[tuple[int, ...]]:
    if ok.all():
        return None
    flat = int(np.argmax(~ok))
    return tuple(int(i) for i in np.unravel_index(flat, ok.shape))


def _firsts(*terms: np.ndarray) -> np.ndarray:
    """For each i, the first index whose tuple of rows of `terms`, along
    axis 0, equals row i's byte for byte.  One term is read in place."""
    rows = [np.ascontiguousarray(t).reshape(len(t), -1).view(np.uint8)
            for t in terms]
    rows = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)
    first: dict = {}
    return np.array([first.setdefault(row.tobytes(), i)
                     for i, row in enumerate(rows)], dtype=np.intp)


def _distinct(*terms: np.ndarray) -> np.ndarray:
    """The first index of each distinct tuple of rows, ascending: the i
    that `_firsts` maps to i.  Unlike `np.unique`, it compares tuples of
    rows from several arrays byte for byte and keeps the first of each in
    order."""
    firsts = _firsts(*terms)
    return np.flatnonzero(firsts == np.arange(len(firsts)))


def _classes(high: np.ndarray, low: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs of masks (high, low), broadcast together, as
    their highs and their lows, and the index of each pair among them."""
    key = high.astype(np.int64) << 32 | low
    pairs, at = np.unique(key, return_inverse=True)
    return pairs >> 32, pairs & 0xFFFFFFFF, at.reshape(key.shape)


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _first_bit(bits: np.ndarray, lead: int = 0) -> Optional[tuple[int, ...]]:
    """First set position, in C order, of the boolean array that unpacks
    each bitset of `bits` into a new axis after its first `lead`
    axes; the bit index sits in that place of the returned index."""
    rows = bits.reshape(int(np.prod(bits.shape[:lead])), -1)
    hits = np.flatnonzero(rows.any(axis=1))
    if not hits.size:
        return None
    row = rows[hits[0]]
    bit = _low_bit(int(np.bitwise_or.reduce(row)))
    at = int(np.argmax(row >> bit & 1))
    return (*(int(i) for i in np.unravel_index(hits[0], bits.shape[:lead])),
            bit, *(int(i) for i in np.unravel_index(at, bits.shape[lead:])))


def _first_false_by_rows(ok: Callable[[slice], np.ndarray],
                         n: int) -> Optional[tuple[int, ...]]:
    """`_first_false` of an array of n rows given block by block: ok(rows)
    is its block of `rows` (`bitrel.row_blocks`).  The first block with a
    false holds the first false, shifted by the block's first row."""
    for rows in B.row_blocks(n):
        hit = _first_false(ok(rows))
        if hit is not None:
            return (rows.start + hit[0], *hit[1:])
    return None


def _first_bit_by_rows(bits: Callable[[slice], np.ndarray],
                       n: int) -> Optional[tuple[int, ...]]:
    """`_first_bit` (lead 0) of an array of n rows of bitsets given block by
    block: bits(rows) is its block of `rows`.  The bit comes first in that
    order, so the lowest bit set in any block is taken first, then its
    first position, in the first block that holds it (computed again)."""
    blocks = B.row_blocks(n)
    ors = [int(np.bitwise_or.reduce(bits(rows), axis=None))
           for rows in blocks]
    if not any(ors):
        return None
    low = min(_low_bit(x) for x in ors if x)
    rows = next(rows for rows, x in zip(blocks, ors) if x >> low & 1)
    bit, ri, *rest = _first_bit(bits(rows))
    return (bit, rows.start + ri, *rest)


def _ker_through(funcs: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """[f, R] = ker(f.R~) over b -> b, for each f: a -> n of `funcs` and
    every R: a -> b.  R : f -> g holds when this is in ker g.  Built from
    the op tables on every call, never cached."""
    return B.kernel_table(b, n)[B.compose_table(b, a, n)[
        funcs[:, None], B.converse_table(a, b)[None, :]]]


def _memo(memo: dict, key: tuple, build: Callable):
    """memo[key], built on first use; the key is the term's name and the
    carrier sizes it reads."""
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _kernel_classes(memo: dict, n: int, m: int):
    """The first g of each distinct kernel among the functions g: n -> m,
    for a judgement that reads g only through ker g, and
    `bitrel.fit_table` over those kernels, one byte for at most 8."""
    def build():
        kernels = B.kernel_table(n, m)[B.function_masks(n, m)]
        gs = _distinct(kernels)
        fits = B.fit_table(n, kernels[gs])
        return gs, fits.astype(np.uint8) if len(gs) <= 8 else fits
    return _memo(memo, ("ker g", n, m), build)


def _premises(memo: dict, a: int, c: int, b: int, d: int):
    """[f, R] = the bitset of the g for which f -> g holds on R, for every
    f: A -> C, R: A -> B and the first g: B -> D of each kernel class
    (`_kernel_classes`), and `_firsts` of its rows."""
    def build():
        fits = _kernel_classes(memo, b, d)[1]
        p = fits[_ker_through(B.function_masks(a, c), a, b, c)]
        return p, _firsts(p)
    return _memo(memo, ("premises", a, c, b, d), build)


def _down_or(right: np.ndarray, bits: int) -> np.ndarray:
    """[R] = the bitset of the S with R in right[S], for every mask R of
    `bits` bits, packed as the rows of `bitrel.subset_table`: each S is put
    in the row of right[S], then, one bit at a time, each row with the bit
    is ORed into the row without it."""
    s = np.arange(len(right))
    out = np.zeros((1 << bits, (len(right) + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(out, (right, s >> 3), (1 << (s & 7)).astype(np.uint8))
    for i in range(bits):
        pairs = out.reshape(-1, 2, out.shape[1] << i)
        pairs[:, 0] |= pairs[:, 1]
    return out


# ---------------------------------------------------------------------------
# Converse laws


def _holds_converse_compose(a: dict) -> bool:
    r, s = a["R"], a["S"]
    return (rel.converse(rel.compose(r, s))
            == rel.compose(rel.converse(s), rel.converse(r)))


def _sweep_converse_compose(sz: dict, memo=None) -> Optional[dict]:
    a, b, c = sz["A"], sz["B"], sz["C"]
    ct = B.compose_table(a, b, c)
    conv_rs = B.converse_table(a, c)
    ct2 = B.compose_table(c, b, a)
    conv_s = B.converse_table(a, b)
    conv_r = B.converse_table(b, c)
    # [R, S] = S~.R~: the columns R~ of ct2, then their rows S~; two
    # gathers by one small index each are faster than one by both
    hit = _first_false_by_rows(
        lambda rows: (conv_rs[ct[rows]] == ct2.take(conv_r[rows], axis=1)
                      .take(conv_s, axis=0).T), len(ct))
    if hit is None:
        return None
    ri, si = hit
    return {"R": ri, "S": si}


def _holds_converse_involution(a: dict) -> bool:
    return rel.converse(rel.converse(a["R"])) == a["R"]


def _sweep_converse_involution(sz: dict, memo=None) -> Optional[dict]:
    a, b = sz["A"], sz["B"]
    idx = B.all_masks(a, b)
    ok = B.converse_table(b, a)[B.converse_table(a, b)] == idx
    hit = _first_false(ok)
    return None if hit is None else {"R": hit[0]}


# ---------------------------------------------------------------------------
# Shunting rules (f ranges over functions)


def _shunt(sides, r_bits: int, m: int, n: int) -> Optional[dict]:
    """The first (f, R, S), for each (f, left, right) of `sides` in turn,
    where "S holds left[R]" and "right[S] holds R" differ; the masks S and
    left[R] are over m -> n and R is one of `r_bits` bits.  Past one row
    block the two sides are compared first as S-bitsets, each row of the
    left side read from the packed `bitrel.subset_table` and the right
    side built by `_down_or`; only a pair that differs is searched."""
    r_all = np.arange(1 << r_bits, dtype=np.int32)
    for f, left, right in sides:
        if len(r_all) > B.BLOCK_ROWS and np.array_equal(
                B.subset_table(m, n, packed=True).take(left, axis=0),
                _down_or(right, r_bits)):
            continue
        sub = B.subset_table(m, n)
        hit = _first_false_by_rows(
            lambda rows: (sub.take(left[rows], axis=0)
                          == B.subset(r_all[rows, None], right[None, :])),
            len(r_all))
        if hit is not None:
            return {"f": int(f), "R": hit[0], "S": hit[1]}
    return None


def _holds_shunt_left(a: dict) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    return (rel.includes(s, rel.compose(f, r))
            == rel.includes(rel.compose(rel.converse(f), s), r))


def _sweep_shunt_left(sz: dict, memo=None) -> Optional[dict]:
    a, b, c = sz["A"], sz["B"], sz["C"]
    conv_f = B.converse_table(b, c)
    ct_fr = B.compose_table(a, b, c)
    ct_cfs = B.compose_table(a, c, b)
    # f.R in S, and R in f~.S
    return _shunt(((f, ct_fr[f], ct_cfs[conv_f[f]])
                   for f in B.function_masks(b, c)), a * b, a, c)


def _holds_shunt_right(a: dict) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    return (rel.includes(s, rel.compose(r, rel.converse(f)))
            == rel.includes(rel.compose(s, f), r))


def _sweep_shunt_right(sz: dict, memo=None) -> Optional[dict]:
    x, y, w = sz["X"], sz["Y"], sz["W"]
    conv_f = B.converse_table(x, y)
    ct_rcf = B.compose_table(y, x, w)
    ct_sf = B.compose_table(x, y, w)
    # R.f~ in S, and R in S.f
    return _shunt(((f, ct_rcf[:, conv_f[f]], ct_sf[:, f])
                   for f in B.function_masks(x, y)), x * w, y, w)


# ---------------------------------------------------------------------------
# Injectivity-preorder laws


def _holds_galois(a: dict, corrupted: bool = False) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    back = f if corrupted else rel.converse(f)
    return (rel.leq(rel.compose(r, f), s)
            == rel.leq(r, rel.compose(s, back)))


def _sweep_galois(sz: dict, memo=None,
                  corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule composes S with f instead of f~, so f: A -> A.

    The law reads R only through the pair (ker(R.f), ker R) and S only
    through (ker S, ker(S.f~)), so it is judged once per class of equal
    pairs, over every f at once: bad[u, v] for R-class u and S-class v,
    and f fails when one of its R is in a u and one of its S in a v with
    bad[u, v]."""
    a, c, d = sz["A"], sz["C"], sz["D"]
    b = a if corrupted else sz["B"]
    funcs = B.function_masks(a, b)
    backs = funcs if corrupted else B.converse_table(a, b)[funcs]
    krf = B.kernel_table(a, c)[B.compose_table(a, b, c)[:, funcs].T]
    ksf = B.kernel_table(b, d)[B.compose_table(b, a, d)[:, backs].T]
    krf_u, kr_u, r_at = _classes(krf, B.kernel_table(b, c))  # [f, R]
    ks_u, ksf_u, s_at = _classes(B.kernel_table(a, d), ksf)  # [f, S]
    bad = B.subset(ks_u, krf_u[:, None]) != B.subset(ksf_u, kr_u[:, None])
    at_f = np.arange(len(funcs))[:, None]
    r_in = np.zeros((len(funcs), len(krf_u)), dtype=bool)
    r_in[at_f, r_at] = True
    s_in = np.zeros((len(funcs), len(ks_u)), dtype=bool)
    s_in[at_f, s_at] = True
    fails = np.flatnonzero((r_in @ bad & s_in).any(axis=1))
    if not fails.size:
        return None
    fi = fails[0]
    ri = int(np.argmax((bad @ s_in[fi])[r_at[fi]]))
    si = int(np.argmax(bad[r_at[fi, ri], s_at[fi]]))
    return {"f": int(funcs[fi]), "R": ri, "S": si}


def _holds_fd_trading(a: dict) -> bool:
    return fd_trade(a["x"], a["z"], a["R"], a["k"], a["y"])


def _sweep_fd_trading(sz: dict, memo=None) -> Optional[dict]:
    """The y axis is packed into bitsets: lb[x, m] holds the y for which
    x -> y holds on m = z.R.k~, tabulated over every K -> Z mask m, and
    rb[x, k, R] the y for which k2[x, k, R] = ker(x.k.R~) is in ker(y.z),
    per z.  An x whose lb and k2 rows equal an earlier x's is judged as
    that x, and every k of one z is judged in one array operation.  lb is
    gathered per z, through the masks w.k~ of every w = z.R, and rb once
    per distinct list of kernels ker(y.z); each z is tested for equality
    first, and the first z that fails is searched for its witness."""
    a, kk, b, zz = sz["A"], sz["K"], sz["B"], sz["Z"]
    cx, cy = sz["CX"], sz["CY"]
    memo = {} if memo is None else memo
    zf = B.function_masks(b, zz)
    kf = B.function_masks(a, kk)
    xf = B.function_masks(kk, cx)
    yf = B.function_masks(zz, cy)

    def lb_classes():  # lb, and the first x of each distinct lb row
        lb = B.fit_table(zz, B.kernel_table(zz, cy)[yf])[
            _ker_through(xf, kk, zz, cx)]
        return lb, _firsts(lb)

    def x_classes():  # the values of x.k, at most CX^A, and each (x, k)'s
        xk = B.compose_table(a, kk, cx)[xf[:, None], kf[None, :]]
        xk, at = np.unique(xk, return_inverse=True)
        return xk, at.reshape(len(xf), len(kf))

    def k2_classes():  # k2[x] is k2s[at[x]]: equal rows share one index
        k2s = _ker_through(xk, a, b, cx)
        return k2s, _firsts(k2s)

    def z_groups():  # the z of each distinct list ker(y.z), and its fits
        kyz = B.kernel_table(b, cy)[B.compose_table(b, zz, cy)[
            yf[None, :], zf[:, None]]]
        groups: dict = {}
        for zi, row in enumerate(kyz):
            groups.setdefault(row.tobytes(), []).append(zi)
        return [(zis, B.fit_table(b, kyz[zis[0]])) for zis in groups.values()]

    lb, lb_firsts = _memo(memo, ("lb", kk, zz, cx, cy), lb_classes)
    xk, at = _memo(memo, ("x.k", a, kk, cx), x_classes)
    k2s, k2_firsts = _memo(memo, ("k2", a, kk, b, cx), k2_classes)
    # wk[k, w] = w.k~ for every w: A -> Z; z.R is such a w
    wk = _memo(memo, ("w.k~", kk, a, zz), lambda: B.compose_table(kk, a, zz)[
        :, B.converse_table(a, kk)[kf]].T.astype(np.intp))
    zr = _memo(memo, ("z.R", a, b, zz), lambda: B.compose_table(a, b, zz)[zf])
    groups = _memo(memo, ("ker(y.z)", b, zz, cy), z_groups)
    xs = _distinct(lb_firsts, k2_firsts[at])
    lb, at = lb[xs], at[xs]
    # the z of one kernel list are judged a block's worth of elements at once
    step = max(1, (B.BLOCK_ROWS << 9) // (len(xs) * len(kf) * zr.shape[1]))
    failed = []  # the first failing z of each kernel list, with its fits
    for zis, fits in groups:
        rb = fits.take(k2s)[at][:, :, None]
        for lo in range(0, len(zis), step):
            part = zis[lo:lo + step]
            bad = (lb.take(wk.take(zr[part], axis=1), axis=1) != rb).any(
                axis=(0, 1, 3))
            if bad.any():
                failed.append((part[int(np.argmax(bad))], fits))
                break
    if not failed:
        return None
    zi, fits = min(failed, key=lambda t: t[0])
    differ = lb.take(wk.take(zr[zi], axis=1), axis=1) ^ fits.take(k2s)[at]
    ki = np.flatnonzero(differ.any(axis=(0, 2)))[0]
    # the first (x, y, R) where the y-bitsets of the sides differ
    xi, yi, ri = _first_bit(differ[:, ki], lead=1)
    return {"x": int(xf[xs[xi]]), "z": int(zf[zi]), "R": ri,
            "k": int(kf[ki]), "y": int(yf[yi])}


def _holds_union_injectivity(a: dict) -> bool:
    x, r, s = a["X"], a["R"], a["S"]
    lhs = rel.leq(x, rel.union(r, s))
    rhs = (rel.leq(x, r) and rel.leq(x, s)
           and rel.includes(rel.kernel(x),
                            rel.compose(rel.converse(r), s)))
    return lhs == rhs


def _sweep_union_injectivity(sz: dict, memo=None) -> Optional[dict]:
    """X is judged once per distinct kernel, each judgement an int32 bitset
    over them (`bitrel.fit_table`): carriers up to 3 have at most 18."""
    a, b = sz["A"], sz["B"]
    ker_ab = B.kernel_table(a, b)
    ct = B.compose_table(a, b, a)
    conv = B.converse_table(a, b)
    masks = np.arange(1 << (a * b), dtype=np.int64)
    xs = _distinct(ker_ab)
    fits = B.fit_table(a, ker_ab[xs])
    single = fits[ker_ab]

    def differ(rows):
        ku = ker_ab.take(masks[rows, None] | masks[None, :])  # ker(R|S)
        crs = ct[conv[rows]]  # R~.S
        return (fits.take(ku)
                ^ single[rows, None] & single[None, :] & fits.take(crs))

    hit = _first_bit_by_rows(differ, len(masks))
    if hit is None:
        return None
    xi, ri, si = hit
    return {"X": int(xs[xi]), "R": ri, "S": si}


def _holds_fork_lub(a: dict, corrupted: bool = False) -> bool:
    r, s, t = a["R"], a["S"], a["T"]
    return (rel.leq(rel.fork(r, s), t)
            == (rel.leq(r, t) and (corrupted or rel.leq(s, t))))


def _sweep_fork_lub(sz: dict, memo=None,
                    corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule drops the S <= T conjunct.  The law reads R only
    through its row of fork kernels and ker R, and T only through ker T,
    so the first R of each class of equal pairs is judged, per distinct
    ker T, and the first R that fails is the first of its class."""
    c, a, b, d = sz["C"], sz["A"], sz["B"], sz["D"]
    fk = B.fork_kernel_table(c, a, b)
    ker_t = B.kernel_table(c, d)
    ker_r = B.kernel_table(c, a)
    ker_s = B.kernel_table(c, b)
    rs = _distinct(_firsts(fk), ker_r)
    fk, ker_r = fk[rs], ker_r[rs]
    for ti in _distinct(ker_t):
        kt = int(ker_t[ti])
        s_ok = True if corrupted else B.subset(kt, ker_s)[None, :]
        hit = _first_false(B.subset(kt, fk)
                           == (B.subset(kt, ker_r)[:, None] & s_ok))
        if hit is not None:
            return {"R": int(rs[hit[0]]), "S": hit[1], "T": int(ti)}
    return None


def _holds_consequent_pairing(a: dict) -> bool:
    r, f, g, h = a["R"], a["f"], a["g"], a["h"]
    return (satisfies_typed(r, f, rel.fork(g, h))
            == (satisfies_typed(r, f, g) and satisfies_typed(r, f, h)))


def _sweep_consequent_pairing(sz: dict, memo=None) -> Optional[dict]:
    """The law reads f and R only through m = ker(f.R~), so it is judged
    once per distinct m, for every g at once, each side a bitset over h:
    the h with m in ker fork(g, h), and the h with m in ker h when m is in
    ker g.  The first (f, R) whose m fails is spread back."""
    a, b = sz["A"], sz["B"]
    ff, gg, hh = sz["F"], sz["G"], sz["H"]
    funcs_f = B.function_masks(a, ff)
    funcs_g = B.function_masks(b, gg)
    funcs_h = B.function_masks(b, hh)
    fk = B.fork_kernel_table(b, gg, hh)[np.ix_(funcs_g, funcs_h)]
    kg = B.kernel_table(b, gg)[funcs_g]
    kh = B.kernel_table(b, hh)[funcs_h]
    kfrs = _ker_through(funcs_f, a, b, ff)
    # the distinct m, ascending, and the index of each among them
    index = np.bincount(kfrs.ravel())
    m = np.flatnonzero(index)
    index[m] = np.arange(len(m))
    h_bits = np.left_shift(1, np.arange(len(funcs_h)))
    okh = B.subset(m[:, None], kh[None, :]) @ h_bits
    bad = ((B.subset(m[:, None, None], fk[None, :, :]) @ h_bits)  # [m, g]
           ^ np.where(B.subset(m[:, None], kg[None, :]), okh[:, None], 0))
    fails = np.flatnonzero(bad.any(axis=1)[index][kfrs])
    if not fails.size:
        return None
    fi, ri = divmod(int(fails[0]), kfrs.shape[1])
    row = bad[index[kfrs[fi, ri]]]
    gi = int(np.argmax(row != 0))
    return {"R": ri, "f": int(funcs_f[fi]), "g": int(funcs_g[gi]),
            "h": int(funcs_h[_low_bit(int(row[gi]))])}


# ---------------------------------------------------------------------------
# Database-operation typing rules


def _holds_union_fd_typing(a: dict, corrupted: bool = False) -> bool:
    merged, left, right, mutual = union_verdicts(a["R"], a["S"], a["f"],
                                                 a["g"])
    return merged == (left and right and (corrupted or mutual))


def _union_terms(sz: dict):
    """Setup shared by the merge laws over f: A -> C, g: B -> D, R, S: A -> B.

    Returns the g masks, the table composing R after a relation B -> A,
    and an iterator that yields, per function f, its mask,
    ker(f.R~) for every R (`_ker_through`) and ker(f).S~ for every S.
    f -> g holds on R when ker(f.R~) is in ker g, and mutually on (R, S)
    when R.ker(f).S~ is.  An f whose two rows equal an earlier f's is not
    yielded.
    """
    a, b, c, d = sz["A"], sz["B"], sz["C"], sz["D"]
    conv_ab = B.converse_table(a, b)
    funcs_f = B.function_masks(a, c)
    kfus = _ker_through(funcs_f, a, b, c)
    m1s = B.compose_table(b, a, a)[B.kernel_table(a, c)[funcs_f][:, None],
                                   conv_ab[None, :]]
    per_f = ((int(funcs_f[fi]), kfus[fi], m1s[fi])
             for fi in _distinct(kfus, m1s))
    return B.function_masks(b, d), B.compose_table(b, a, b), per_f


def _sweep_union_fd_typing(sz: dict, memo=None,
                           corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule drops the mutual conjunct.  Each judgement is a
    bitset over the first g of each distinct ker g (g is read only through
    it), one byte for at most 8 of them, so one comparison per f covers
    every g; the bitsets of R.m for every R and every B -> A mask m are
    gathered once, not per f, and each f's differences are ORed over every
    block of R before its witness is searched."""
    masks = np.arange(1 << (sz["A"] * sz["B"]), dtype=np.int64)
    memo = {} if memo is None else memo
    funcs_g, ct_r_mid, per_f = _union_terms(sz)
    gs, fits = _kernel_classes(memo, sz["B"], sz["D"])
    if not corrupted:
        fits_mid = np.empty(ct_r_mid.shape, dtype=fits.dtype)  # [R, m]
        for rows in B.row_blocks(len(ct_r_mid)):
            fits_mid[rows] = fits[ct_r_mid[rows]]
    for f, kfu, m1 in per_f:
        single = fits[kfu]

        def differ(rows):
            rhs = single[rows, None] & single[None, :]
            if not corrupted:
                # take() keeps C order; fits_mid[rows][:, m1] is F order, and
                # mixing the orders makes the elementwise ops several times
                # slower
                rhs &= fits_mid[rows].take(m1, axis=1)
            return single[masks[rows, None] | masks[None, :]] ^ rhs

        hit = _first_bit_by_rows(differ, len(masks))
        if hit is not None:
            gi, ri, si = hit
            return {"R": ri, "S": si, "f": f, "g": int(funcs_g[gs[gi]])}
    return None


def _holds_mutual_self(a: dict) -> bool:
    r, f, g = a["R"], a["f"], a["g"]
    return mutual_dependency(r, r, f, g) == satisfies_typed(r, f, g)


def _sweep_mutual_self(sz: dict, memo=None) -> Optional[dict]:
    funcs_g, ct_r_mid, per_f = _union_terms(sz)
    kg_all = B.kernel_table(sz["B"], sz["D"])[funcs_g]
    for f, kfu, m1 in per_f:
        mut = ct_r_mid[np.arange(len(m1)), m1]
        lhs = B.subset(mut[:, None], kg_all[None, :])
        rhs = B.subset(kfu[:, None], kg_all[None, :])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"R": hit[0], "f": f, "g": int(funcs_g[hit[1]])}
    return None


def _holds_join_fd_typing(a: dict, corrupted: bool = False) -> bool:
    left, right, conclusion = join_verdicts(a["R"], a["S"], a["f"], a["g"],
                                            a["h"])
    premises = left and right
    if corrupted:
        premises, conclusion = conclusion, premises
    return not premises or conclusion


def _join_violation(prem1, prem2, conc1, conc2, in_s, at_r):
    """First (f, R, S, g, h), f, R and S outermost, with g in prem1 and h in
    prem2 but not both g in conc1 and h in conc2 at (f, R, S), or None.

    The arguments are bitsets in compressed form, each with a leading axis
    over f.  prem1 and conc1 (over g) are given per (f, R, class of S),
    shaped (f|1, R|1, class|1), and prem2 and conc2 (over h) per (f, class
    of R, S), shaped (f|1, class|1, S|1); an axis of length 1 broadcasts.
    S is in class c when in_s[S, c], and R in class at_r[R].  Booleans are
    judged on these forms: (f, R) is violated when, for a class c of S, a
    g breaks conc1 at (f, R, c) and an S in c has an h in prem2, or the
    same with the two sides swapped.  Only the first violated (f, R) is
    spread back over S.  Among the (g, h) of the first violated (f, R, S),
    the first g breaking conc1 is preferred, paired with the first h
    meeting prem2; failing that, the first g meeting prem1 with the first
    h breaking conc2.
    """
    breaks1, meets1 = (prem1 & ~conc1) != 0, prem1 != 0
    breaks2, meets2 = (prem2 & ~conc2) != 0, prem2 != 0

    def by_class(t):  # [f, R, c]: an S in class c has t[f, class of R, S]
        t = t @ in_s if t.shape[2] > 1 else t
        return t[:, at_r] if t.shape[1] > 1 else t

    viol = breaks1 & by_class(meets2) | meets1 & by_class(breaks2)
    hits = np.flatnonzero(viol.any(axis=2))
    if not hits.size:
        return None
    fi, ri = (int(i) for i in np.unravel_index(hits[0], viol.shape[:2]))
    # (f, R) spread over S: the g-side through S's class, the h-side as is
    at_s, n = in_s.argmax(axis=1), len(viol)
    b1, m1, p1, c1 = (np.broadcast_to(t, (n, len(at_r), in_s.shape[1]))[
        fi, ri, at_s] for t in (breaks1, meets1, prem1, conc1))
    b2, m2, p2, c2 = (np.broadcast_to(t, (n, at_r.max() + 1, len(at_s)))[
        fi, at_r[ri]] for t in (breaks2, meets2, prem2, conc2))
    si = int(np.argmax(b1 & m2 | m1 & b2))
    p1, c1, p2, c2 = (int(t[si]) for t in (p1, c1, p2, c2))
    if p1 & ~c1 and p2:
        return fi, ri, si, _low_bit(p1 & ~c1), _low_bit(p2)
    return fi, ri, si, _low_bit(p1), _low_bit(p2 & ~c2)


@lru_cache(maxsize=None)
def _domains(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The distinct domain masks of the relations m -> n, the index of each
    relation's domain among them, and the same as a boolean matrix:
    [r, c] is true when relation r has the c-th domain."""
    dom, at = np.unique(B.domain_table(m, n), return_inverse=True)
    return dom, at, at[:, None] == np.arange(len(dom))


def _sweep_join_fd_typing(sz: dict, memo=None,
                          corrupted: bool = False) -> Optional[dict]:
    """Premises p1[R] = {g : f -> g on R} and p2[S] = {h : f -> h on S};
    the conclusion f -> gxh on fork(R,S) is factored as ok1[R,S] (over g)
    and ok2[R,S] (over h).  All four are bitsets, over the first g (h) of
    each distinct ker g (ker h), which is all they read of it; the
    conclusion reads f only through ker f, so an f whose p1, p2 and ker f
    rows equal an earlier f's is judged as that f, and the rest are judged
    at once.  ok1 reads S only through its domain mask, so l1 is built per
    distinct domain mask (at most 2^A of them) and judged in that form by
    `_join_violation`; likewise ok2 over R.  The corrupted rule swaps
    premises and conclusion."""
    a, b, c = sz["A"], sz["B"], sz["C"]
    ff, gg, hh = sz["F"], sz["G"], sz["H"]
    memo = {} if memo is None else memo
    funcs_f = B.function_masks(a, ff)
    funcs_g = B.function_masks(b, gg)
    funcs_h = B.function_masks(c, hh)
    conv_ab = B.converse_table(a, b)
    conv_ac = B.converse_table(a, c)
    (gs, fits_g), (hs, fits_h) = (_kernel_classes(memo, b, gg),
                                  _kernel_classes(memo, c, hh))
    p1s, p1_firsts = _premises(memo, a, ff, b, gg)
    p2s, p2_firsts = _premises(memo, a, ff, c, hh)
    kfs = B.kernel_table(a, ff)[funcs_f]
    ct_aaa = B.compose_table(a, a, a)
    ct_r_mid = B.compose_table(a, a, b)
    ct_rm_cr = B.compose_table(b, a, b)
    ct_s_mid = B.compose_table(a, a, c)
    ct_sm_cs = B.compose_table(c, a, c)
    rm = np.arange(1 << (a * b), dtype=np.int64)[:, None]
    sm = np.arange(1 << (a * c), dtype=np.int64)[None, :]
    dom_ac, _, in_s = _domains(a, c)
    dom_ab, at_r, _ = _domains(a, b)
    fis = _distinct(p1_firsts, p2_firsts, kfs)  # every f judged at once
    kf = kfs[fis][:, None]
    p1, p2 = p1s[fis][:, :, None], p2s[fis][:, None, :]
    mid1 = ct_aaa[ct_aaa[dom_ac, kf], dom_ac]
    mid2 = ct_aaa[ct_aaa[dom_ab, kf], dom_ab]
    # l1 and l2 are masks, built per f and kept only as bitsets
    ok1 = np.stack([fits_g[ct_rm_cr[ct_r_mid[rm, m[None, :]], conv_ab[:, None]]]
                    for m in mid1])
    ok2 = np.stack([fits_h[ct_sm_cs[ct_s_mid[sm, m[:, None]], conv_ac[None, :]]]
                    for m in mid2])
    terms = (ok1, ok2, p1, p2) if corrupted else (p1, p2, ok1, ok2)
    hit = _join_violation(*terms, in_s, at_r)
    if hit is None:
        return None
    fi, ri, si, gi, hi = hit
    return {"R": ri, "S": si, "f": int(funcs_f[fis[fi]]),
            "g": int(funcs_g[gs[gi]]), "h": int(funcs_h[hs[hi]])}


# ---------------------------------------------------------------------------
# Registry


def _law(law_id, summary, variables, holds, sweep) -> Law:
    return Law(law_id, summary, tuple(LawVariable(*v) for v in variables),
               holds, sweep)


# The sound laws, in report order: the suite.  The corrupted laws after
# them are registered, to show that the sweeps refute, but not run.
_SOUND = (
    _law("converse_of_compose",
         "(R.S)~ = S~.R~",
         [("R", "B", "C"), ("S", "A", "B")],
         _holds_converse_compose, _sweep_converse_compose),
    _law("converse_involution",
         "(R~)~ = R",
         [("R", "A", "B")],
         _holds_converse_involution, _sweep_converse_involution),
    _law("shunt_function_left",
         "f.R included in S  iff  R included in f~.S",
         [("f", "B", "C", True), ("R", "A", "B"), ("S", "A", "C")],
         _holds_shunt_left, _sweep_shunt_left),
    _law("shunt_function_right",
         "R.f~ included in S  iff  R included in S.f",
         [("f", "X", "Y", True), ("R", "X", "W"), ("S", "Y", "W")],
         _holds_shunt_right, _sweep_shunt_right),
    _law("injectivity_galois",
         "R.f <= S  iff  R <= S.f~",
         [("f", "A", "B", True), ("R", "B", "C"), ("S", "A", "D")],
         _holds_galois, _sweep_galois),
    _law("fd_trading",
         "x -> y on z.R.k~  iff  x.k -> y.z on R",
         [("z", "B", "Z", True), ("k", "A", "K", True),
          ("x", "K", "CX", True), ("y", "Z", "CY", True),
          ("R", "A", "B")],
         _holds_fd_trading, _sweep_fd_trading),
    _law("union_injectivity",
         "X <= R|S  iff  X <= R and X <= S and R~.S in ker X",
         [("X", "A", "B"), ("R", "A", "B"), ("S", "A", "B")],
         _holds_union_injectivity, _sweep_union_injectivity),
    _law("fork_least_upper_bound",
         "fork(R,S) <= T  iff  R <= T and S <= T",
         [("R", "C", "A"), ("S", "C", "B"), ("T", "C", "D")],
         _holds_fork_lub, _sweep_fork_lub),
    _law("fd_consequent_pairing",
         "f -> fork(g,h) on R  iff  f -> g and f -> h on R",
         [("f", "A", "F", True), ("g", "B", "G", True),
          ("h", "B", "H", True), ("R", "A", "B")],
         _holds_consequent_pairing, _sweep_consequent_pairing),
    _law("union_fd_typing",
         "f -> g on R|S  iff  on R, on S, and mutually on (R,S)",
         [("f", "A", "C", True), ("g", "B", "D", True),
          ("R", "A", "B"), ("S", "A", "B")],
         _holds_union_fd_typing, _sweep_union_fd_typing),
    _law("mutual_dependency_self",
         "mutual dependency of R with itself is the plain dependency",
         [("f", "A", "C", True), ("g", "B", "D", True),
          ("R", "A", "B")],
         _holds_mutual_self, _sweep_mutual_self),
    _law("join_fd_typing",
         "f -> g on R and f -> h on S  imply  f -> gxh on fork(R,S)",
         [("f", "A", "F", True), ("g", "B", "G", True),
          ("h", "C", "H", True), ("R", "A", "B"), ("S", "A", "C")],
         _holds_join_fd_typing, _sweep_join_fd_typing),
)
LAW_SUITE: tuple[str, ...] = tuple(law.law_id for law in _SOUND)
LAW_REGISTRY: dict[str, Law] = {law.law_id: law for law in _SOUND + (
    _law("galois_corrupted",
         "deliberately broken galois rule (converse dropped)",
         [("f", "A", "A", True), ("R", "A", "C"), ("S", "A", "D")],
         partial(_holds_galois, corrupted=True),
         partial(_sweep_galois, corrupted=True)),
    _law("fork_lub_corrupted",
         "deliberately broken bound rule (one conjunct dropped)",
         [("R", "C", "A"), ("S", "C", "B"), ("T", "C", "D")],
         partial(_holds_fork_lub, corrupted=True),
         partial(_sweep_fork_lub, corrupted=True)),
    _law("union_typing_corrupted",
         "deliberately broken merge rule (mutual conjunct dropped)",
         [("f", "A", "C", True), ("g", "B", "D", True),
          ("R", "A", "B"), ("S", "A", "B")],
         partial(_holds_union_fd_typing, corrupted=True),
         partial(_sweep_union_fd_typing, corrupted=True)),
    _law("join_converse_corrupted",
         "deliberately reversed join rule (conclusion implies premises)",
         [("f", "A", "F", True), ("g", "B", "G", True),
          ("h", "C", "H", True), ("R", "A", "B"), ("S", "A", "C")],
         partial(_holds_join_fd_typing, corrupted=True),
         partial(_sweep_join_fd_typing, corrupted=True)),
)}


def search_law_bruteforce(law: Law, max_carrier: int) -> Optional[dict]:
    """Pointwise mirror of the sweeps; slow, for cross-validation."""
    for sizes in law.size_combos(max_carrier):
        spaces = [(B.function_masks if v.function else B.all_masks)(
            sizes[v.source], sizes[v.target]) for v in law.variables]
        for combo in itertools.product(*spaces):
            masks = {v.name: int(m)
                     for v, m in zip(law.variables, combo)}
            assignment = law.assignment_from_masks(sizes, masks)
            if not law.holds(assignment):
                return assignment
    return None
