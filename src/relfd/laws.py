"""Registered algebraic laws and their exhaustive small-scope sweeps.

Each law carries two independent routes:

* `holds(assignment)` evaluates the law body pointwise on concrete `Rel`
  values through the plain algebra; it is the oracle, and every witness a
  sweep finds is re-verified against it before being reported.
* `sweep(sizes)` checks the law over *all* assignments at the given carrier
  sizes using the bitmask tables, returning the first falsifying assignment
  in the law's fixed nesting order, or None.

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
whose rows of computed terms (say ker(f.R~) for every R) are byte-equal to
an earlier one's gets the same judgement, so `_distinct` keeps the first
of each class and the nesting order and first witness stay.  A skip needs
computed rows that are byte-equal; an algebraic identity ("ker(f.R~)
depends only on ker f") must never justify one, the same caution as
`bitrel.fork_kernel_table`'s: the identity holds of the true tables, so
resting on it would hide a wrong table from the sweep that is meant to
expose it.

A sweep judges on the smallest form of its computed terms and spreads
back only to locate a witness.  Where a side reads a variable only
through computed values, the judgement is made once per class of equal
values (the R and S of `injectivity_galois`) or per class of a mask that
side reads (`join_fd_typing`'s domain classes, judged by
`_join_violation`), and only a class that fails is spread back over its
members, as booleans.  Each sweep tests "no witness" first (a whole
comparison, say `np.array_equal`) and searches for the first witness only
when there is one.  A table cached across calls is tabulated from mask
bits alone (`bitrel.subset_table`); nothing derived from `compose_table`
or `kernel_table` is kept between calls, so a wrong op table always
reaches the sweep that reads it.

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
from .fd import mutual_dependency, satisfies_typed
from .infer import fd_trade


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
    sweep: Callable[[dict], Optional[dict]]

    def slots(self) -> tuple[str, ...]:
        seen: dict = {}
        for v in self.variables:
            seen.setdefault(v.source, None)
            seen.setdefault(v.target, None)
        return tuple(seen)

    def iterated_slots(self) -> tuple[str, ...]:
        fn_sources = {v.source for v in self.variables if v.function}
        return tuple(s for s in self.slots() if s in fn_sources)

    def size_combos(self, max_carrier: int) -> Iterator[dict]:
        """Size assignments, smallest first; non-varying slots at the bound."""
        slots, varying = self.slots(), self.iterated_slots()
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


def _rows(terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """Row i holds the bytes of row i, along axis 0, of every term."""
    return np.concatenate([np.ascontiguousarray(t).reshape(len(t), -1)
                           .view(np.uint8) for t in terms], axis=1)


def _distinct(*terms: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row, along axis 0, of each distinct
    tuple of rows of `terms`; rows are compared byte for byte."""
    first: dict = {}
    for i, row in enumerate(_rows(terms)):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def _firsts(term: np.ndarray) -> np.ndarray:
    """For each i, the first index whose row of `term`, along axis 0,
    equals row i byte for byte, as `_distinct` compares rows."""
    first: dict = {}
    return np.array([first.setdefault(row.tobytes(), i)
                     for i, row in enumerate(_rows((term,)))], dtype=np.intp)


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


# ---------------------------------------------------------------------------
# Converse laws


def _holds_converse_compose(a: dict) -> bool:
    r, s = a["R"], a["S"]
    return (rel.converse(rel.compose(r, s))
            == rel.compose(rel.converse(s), rel.converse(r)))


def _sweep_converse_compose(sz: dict) -> Optional[dict]:
    a, b, c = sz["A"], sz["B"], sz["C"]
    ct = B.compose_table(a, b, c)
    lhs = B.converse_table(a, c)[ct]
    ct2 = B.compose_table(c, b, a)
    conv_s = B.converse_table(a, b)
    conv_r = B.converse_table(b, c)
    rhs = ct2[conv_s[None, :], conv_r[:, None]]
    hit = _first_false(lhs == rhs)
    if hit is None:
        return None
    ri, si = hit
    return {"R": ri, "S": si}


def _holds_converse_involution(a: dict) -> bool:
    return rel.converse(rel.converse(a["R"])) == a["R"]


def _sweep_converse_involution(sz: dict) -> Optional[dict]:
    a, b = sz["A"], sz["B"]
    idx = B.all_masks(a, b)
    ok = B.converse_table(b, a)[B.converse_table(a, b)] == idx
    hit = _first_false(ok)
    return None if hit is None else {"R": hit[0]}


# ---------------------------------------------------------------------------
# Shunting rules (f ranges over functions)


def _holds_shunt_left(a: dict) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    return (rel.includes(s, rel.compose(f, r))
            == rel.includes(rel.compose(rel.converse(f), s), r))


def _sweep_shunt_left(sz: dict) -> Optional[dict]:
    a, b, c = sz["A"], sz["B"], sz["C"]
    funcs = B.function_masks(b, c)
    conv_f = B.converse_table(b, c)
    ct_fr = B.compose_table(a, b, c)
    ct_cfs = B.compose_table(a, c, b)
    r_all = B.all_masks(a, b)
    sub = B.subset_table(a, c)
    for f in funcs:
        cfs = ct_cfs[conv_f[f]]
        lhs = sub.take(ct_fr[f], axis=0)  # f.R in S, row f.R of the table
        rhs = B.subset(r_all[:, None], cfs[None, :])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"f": int(f), "R": hit[0], "S": hit[1]}
    return None


def _holds_shunt_right(a: dict) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    return (rel.includes(s, rel.compose(r, rel.converse(f)))
            == rel.includes(rel.compose(s, f), r))


def _sweep_shunt_right(sz: dict) -> Optional[dict]:
    x, y, w = sz["X"], sz["Y"], sz["W"]
    funcs = B.function_masks(x, y)
    conv_f = B.converse_table(x, y)
    ct_rcf = B.compose_table(y, x, w)
    ct_sf = B.compose_table(x, y, w)
    r_all = B.all_masks(x, w)
    sub = B.subset_table(y, w)
    for f in funcs:
        sf = ct_sf[:, f]
        lhs = sub.take(ct_rcf[:, conv_f[f]], axis=0)  # R.f~ in S
        rhs = B.subset(r_all[:, None], sf[None, :])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"f": int(f), "R": hit[0], "S": hit[1]}
    return None


# ---------------------------------------------------------------------------
# Injectivity-preorder laws


def _holds_galois(a: dict, corrupted: bool = False) -> bool:
    f, r, s = a["f"], a["R"], a["S"]
    back = f if corrupted else rel.converse(f)
    return (rel.leq(rel.compose(r, f), s)
            == rel.leq(r, rel.compose(s, back)))


def _sweep_galois(sz: dict, corrupted: bool = False) -> Optional[dict]:
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


def _trade_violation(lb: np.ndarray, rb: np.ndarray
                     ) -> Optional[tuple[int, ...]]:
    """First (x, y, R) at which the y-bitsets lb[x, R] and rb[x, R] of the
    two sides disagree, in either direction, or None."""
    return _first_bit(lb ^ rb, lead=1)


def _sweep_fd_trading(sz: dict) -> Optional[dict]:
    """The y axis is packed into bitsets: lb[x, m] holds the y for which
    x -> y holds on m = z.R.k~, tabulated over every K -> Z mask m, and
    rb[x, k, R] the y for which k2[x, k, R] = ker(x.k.R~) is in ker(y.z),
    per z.  An x whose lb and k2 rows equal an earlier x's is judged as
    that x, and every k of one z is judged in one array operation.  lb is
    gathered once over every w = z.R (lbw), and rb once per distinct list
    of kernels ker(y.z); each z is tested for equality first, and the
    first z that fails is searched for its witness."""
    a, kk, b, zz = sz["A"], sz["K"], sz["B"], sz["Z"]
    cx, cy = sz["CX"], sz["CY"]
    zf = B.function_masks(b, zz)
    kf = B.function_masks(a, kk)
    xf = B.function_masks(kk, cx)
    yf = B.function_masks(zz, cy)
    conv_kz = B.converse_table(kk, zz)
    ct_x_cm = B.compose_table(zz, kk, cx)
    lb = B.fit_table(zz, B.kernel_table(zz, cy)[yf])[
        B.kernel_table(zz, cx)[ct_x_cm[xf[:, None], conv_kz[None, :]]]]
    xk = B.compose_table(a, kk, cx)[xf[:, None], kf[None, :]]
    xk, at = np.unique(xk, return_inverse=True)  # x.k: at most CX^A values
    at = at.reshape(len(xf), len(kf))
    k2s = B.kernel_table(b, cx)[B.compose_table(b, a, cx)[
        xk[:, None], B.converse_table(a, b)]]
    # k2[x] is k2s[at[x]]: equal rows of k2s share their first index
    xs = _distinct(lb, _firsts(k2s)[at])
    lb, k2 = lb[xs], k2s.astype(np.intp)[at[xs]]  # take() is slow with int32
    # lbw[x, k, w] = lb[x, w.k~] for every w: A -> Z; z.R is such a w
    lbw = lb.take(B.compose_table(kk, a, zz)[
        :, B.converse_table(a, kk)[kf]].T, axis=1)
    zr = B.compose_table(a, b, zz)[zf]
    kyz = B.kernel_table(b, cy)[B.compose_table(b, zz, cy)[
        yf[None, :], zf[:, None]]]
    groups: dict = {}
    for zi, row in enumerate(kyz):
        groups.setdefault(row.tobytes(), []).append(zi)
    failed = []  # the first failing z of each kernel list
    for zis in groups.values():
        rb = B.fit_table(b, kyz[zis[0]]).take(k2)
        for zi in zis:
            if not np.array_equal(lbw.take(zr[zi], axis=2), rb):
                failed.append(zi)
                break
    if not failed:
        return None
    zi = min(failed)
    lbm = lbw.take(zr[zi], axis=2)
    rb = B.fit_table(b, kyz[zi]).take(k2)
    ki = np.flatnonzero((lbm != rb).any(axis=(0, 2)))[0]
    xi, yi, ri = _trade_violation(lbm[:, ki], rb[:, ki])
    return {"x": int(xf[xs[xi]]), "z": int(zf[zi]), "R": ri,
            "k": int(kf[ki]), "y": int(yf[yi])}


def _holds_union_injectivity(a: dict) -> bool:
    x, r, s = a["X"], a["R"], a["S"]
    lhs = rel.leq(x, rel.union(r, s))
    rhs = (rel.leq(x, r) and rel.leq(x, s)
           and rel.includes(rel.kernel(x),
                            rel.compose(rel.converse(r), s)))
    return lhs == rhs


def _sweep_union_injectivity(sz: dict) -> Optional[dict]:
    """X is judged once per distinct kernel, and 31 kernels at a time: each
    judgement is an int32 bitset over them (`bitrel.fit_table`)."""
    a, b = sz["A"], sz["B"]
    ker_ab = B.kernel_table(a, b)
    crs = B.compose_table(a, b, a)[B.converse_table(a, b)]  # [R, S]: R~.S
    masks = np.arange(1 << (a * b), dtype=np.int64)
    ku = ker_ab.take(masks[:, None] | masks[None, :])  # [R, S]: ker(R|S)
    xs = _distinct(ker_ab)
    for start in range(0, len(xs), 31):
        chunk = xs[start:start + 31]
        fits = B.fit_table(a, ker_ab[chunk])
        single = fits[ker_ab]
        lhs = fits.take(ku)
        rhs = single[:, None] & single[None, :] & fits.take(crs)
        if not np.array_equal(lhs, rhs):
            xi, ri, si = _first_bit(lhs ^ rhs)
            return {"X": int(chunk[xi]), "R": ri, "S": si}
    return None


def _holds_fork_lub(a: dict, corrupted: bool = False) -> bool:
    r, s, t = a["R"], a["S"], a["T"]
    return (rel.leq(rel.fork(r, s), t)
            == (rel.leq(r, t) and (corrupted or rel.leq(s, t))))


def _sweep_fork_lub(sz: dict, corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule drops the S <= T conjunct."""
    c, a, b, d = sz["C"], sz["A"], sz["B"], sz["D"]
    fk = B.fork_kernel_table(c, a, b)
    ker_t = B.kernel_table(c, d)
    ker_r = B.kernel_table(c, a)
    ker_s = B.kernel_table(c, b)
    for ti in _distinct(ker_t):
        kt = int(ker_t[ti])
        lhs = B.subset(kt, fk)
        rhs = B.subset(kt, ker_r)[:, None]
        if not corrupted:
            rhs = rhs & B.subset(kt, ker_s)[None, :]
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"R": hit[0], "S": hit[1], "T": int(ti)}
    return None


def _holds_consequent_pairing(a: dict) -> bool:
    r, f, g, h = a["R"], a["f"], a["g"], a["h"]
    return (satisfies_typed(r, f, rel.fork(g, h))
            == (satisfies_typed(r, f, g) and satisfies_typed(r, f, h)))


def _sweep_consequent_pairing(sz: dict) -> Optional[dict]:
    a, b = sz["A"], sz["B"]
    ff, gg, hh = sz["F"], sz["G"], sz["H"]
    funcs_f = B.function_masks(a, ff)
    funcs_g = B.function_masks(b, gg)
    funcs_h = B.function_masks(b, hh)
    conv_ab = B.converse_table(a, b)
    ct_f_cr = B.compose_table(b, a, ff)
    ker_bf = B.kernel_table(b, ff)
    fk = B.fork_kernel_table(b, gg, hh)[np.ix_(funcs_g, funcs_h)]
    kg = B.kernel_table(b, gg)[funcs_g]
    kh = B.kernel_table(b, hh)[funcs_h]
    kfrs = ker_bf[ct_f_cr[funcs_f[:, None], conv_ab[None, :]]]
    for fi in _distinct(kfrs):
        f, kfr = funcs_f[fi], kfrs[fi]
        lhs = B.subset(kfr[:, None, None], fk[None, :, :])
        okg = B.subset(kfr[:, None], kg[None, :])
        okh = B.subset(kfr[:, None], kh[None, :])
        rhs = okg[:, :, None] & okh[:, None, :]
        hit = _first_false(lhs == rhs)
        if hit is not None:
            ri, gi, hi = hit
            return {"R": ri, "f": int(f), "g": int(funcs_g[gi]),
                    "h": int(funcs_h[hi])}
    return None


# ---------------------------------------------------------------------------
# Database-operation typing rules


def _holds_union_fd_typing(a: dict, corrupted: bool = False) -> bool:
    r, s, f, g = a["R"], a["S"], a["f"], a["g"]
    lhs = satisfies_typed(rel.union(r, s), f, g)
    rhs = (satisfies_typed(r, f, g) and satisfies_typed(s, f, g)
           and (corrupted or mutual_dependency(r, s, f, g)))
    return lhs == rhs


def _union_terms(sz: dict):
    """Setup shared by the merge laws over f: A -> C, g: B -> D, R, S: A -> B.

    Returns the g masks, their kernels, the table composing R after a
    relation B -> A, and an iterator that yields, per function f, its mask,
    ker(f.R~) for every R and ker(f).S~ for every S.  f -> g holds on R when
    ker(f.R~) is in ker g, and mutually on (R, S) when R.ker(f).S~ is.  An f
    whose two rows equal an earlier f's is not yielded.
    """
    a, b, c, d = sz["A"], sz["B"], sz["C"], sz["D"]
    funcs_g = B.function_masks(b, d)
    conv_ab = B.converse_table(a, b)
    ct_f_cu = B.compose_table(b, a, c)
    ker_bc = B.kernel_table(b, c)
    ker_ac = B.kernel_table(a, c)
    funcs_f = B.function_masks(a, c)
    kfus = ker_bc[ct_f_cu[funcs_f[:, None], conv_ab[None, :]]]
    m1s = B.compose_table(b, a, a)[ker_ac[funcs_f][:, None], conv_ab[None, :]]
    per_f = ((int(funcs_f[fi]), kfus[fi], m1s[fi])
             for fi in _distinct(kfus, m1s))
    return (funcs_g, B.kernel_table(b, d)[funcs_g],
            B.compose_table(b, a, b), per_f)


def _sweep_union_fd_typing(sz: dict,
                           corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule drops the mutual conjunct.  Each judgement is a
    bitset over g, so one comparison per f covers every g; the bitsets of
    R.m for every R and every B -> A mask m are gathered once, not per f,
    and each f is tested for equality before its witness is searched."""
    masks = np.arange(1 << (sz["A"] * sz["B"]), dtype=np.int64)
    un = masks[:, None] | masks[None, :]
    funcs_g, kg_all, ct_r_mid, per_f = _union_terms(sz)
    fits = B.fit_table(sz["B"], kg_all)
    fits_mid = None if corrupted else fits[ct_r_mid]  # [R, m]
    for f, kfu, m1 in per_f:
        single = fits[kfu]
        rhs = single[:, None] & single[None, :]
        if not corrupted:
            # take() keeps C order; fits_mid[:, m1] is F order, and mixing
            # the two orders makes the elementwise ops several times slower
            rhs &= fits_mid.take(m1, axis=1)
        lhs = single[un]
        if not np.array_equal(lhs, rhs):
            gi, ri, si = _first_bit(lhs ^ rhs)
            return {"R": ri, "S": si, "f": f, "g": int(funcs_g[gi])}
    return None


def _holds_mutual_self(a: dict) -> bool:
    r, f, g = a["R"], a["f"], a["g"]
    return mutual_dependency(r, r, f, g) == satisfies_typed(r, f, g)


def _sweep_mutual_self(sz: dict) -> Optional[dict]:
    funcs_g, kg_all, ct_r_mid, per_f = _union_terms(sz)
    for f, kfu, m1 in per_f:
        mut = ct_r_mid[np.arange(len(m1)), m1]
        lhs = B.subset(mut[:, None], kg_all[None, :])
        rhs = B.subset(kfu[:, None], kg_all[None, :])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"R": hit[0], "f": f, "g": int(funcs_g[hit[1]])}
    return None


def _holds_join_fd_typing(a: dict, corrupted: bool = False) -> bool:
    r, s, f, g, h = a["R"], a["S"], a["f"], a["g"], a["h"]
    premises = satisfies_typed(r, f, g) and satisfies_typed(s, f, h)
    conclusion = satisfies_typed(rel.fork(r, s), f, rel.product(g, h))
    if corrupted:
        premises, conclusion = conclusion, premises
    return not premises or conclusion


def _join_violation(prem1, prem2, conc1, conc2, in_s, at_r):
    """First (R, S, g, h), R and S outermost, with g in prem1 and h in
    prem2 but not both g in conc1 and h in conc2 at (R, S), or None.

    The arguments are bitsets in compressed form.  prem1 and conc1 (over g)
    are given per (R, class of S), shaped (R|1, class|1), and prem2 and
    conc2 (over h) per (class of R, S), shaped (class|1, S|1); an axis of
    length 1 broadcasts.  S is in class c when in_s[S, c], and R in class
    at_r[R].  Booleans are judged on these forms: R is violated when, for
    a class c of S, a g breaks conc1 at (R, c) and an S in c has an h in
    prem2, or the same with the two sides swapped.  Only the first
    violated R is spread back over S.  Among the (g, h) of the first
    violated (R, S), the first g breaking conc1 is preferred, paired with
    the first h meeting prem2; failing that, the first g meeting prem1
    with the first h breaking conc2.
    """
    breaks1, meets1 = (prem1 & ~conc1) != 0, prem1 != 0
    breaks2, meets2 = (prem2 & ~conc2) != 0, prem2 != 0

    def by_class(t):  # [R, c]: an S in class c has t[class of R, S]
        t = t @ in_s if t.shape[1] > 1 else t
        return t[at_r] if len(t) > 1 else t

    viol = breaks1 & by_class(meets2) | meets1 & by_class(breaks2)
    rows = np.flatnonzero(viol.any(axis=1))
    if not rows.size:
        return None
    ri = int(rows[0])
    # row ri spread over S: the g-side through S's class, the h-side as is
    at_s = in_s.argmax(axis=1)
    b1, m1, p1, c1 = (np.broadcast_to(t, (len(at_r), in_s.shape[1]))[
        ri, at_s] for t in (breaks1, meets1, prem1, conc1))
    b2, m2, p2, c2 = (np.broadcast_to(t, (at_r.max() + 1, len(at_s)))[
        at_r[ri]] for t in (breaks2, meets2, prem2, conc2))
    si = int(np.argmax(b1 & m2 | m1 & b2))
    p1, c1, p2, c2 = (int(t[si]) for t in (p1, c1, p2, c2))
    if p1 & ~c1 and p2:
        return ri, si, _low_bit(p1 & ~c1), _low_bit(p2)
    return ri, si, _low_bit(p1), _low_bit(p2 & ~c2)


@lru_cache(maxsize=None)
def _domains(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The distinct domain masks of the relations m -> n, the index of each
    relation's domain among them, and the same as a boolean matrix:
    [r, c] is true when relation r has the c-th domain."""
    dom, at = np.unique(B.domain_table(m, n), return_inverse=True)
    return dom, at, at[:, None] == np.arange(len(dom))


def _sweep_join_fd_typing(sz: dict,
                          corrupted: bool = False) -> Optional[dict]:
    """Premises p1[R] = {g : f -> g on R} and p2[S] = {h : f -> h on S};
    the conclusion f -> gxh on fork(R,S) is factored as ok1[R,S] (over g)
    and ok2[R,S] (over h).  All four are bitsets; the conclusion reads f
    only through ker f, so an f whose p1, p2 and ker f rows equal an
    earlier f's is judged as that f.  ok1 reads S only through its domain
    mask, so l1 is built per distinct domain mask (at most 2^A of them) and
    judged in that form by `_join_violation`; likewise ok2 over R.  The
    corrupted rule swaps premises and conclusion."""
    a, b, c = sz["A"], sz["B"], sz["C"]
    ff, gg, hh = sz["F"], sz["G"], sz["H"]
    funcs_f = B.function_masks(a, ff)
    funcs_g = B.function_masks(b, gg)
    funcs_h = B.function_masks(c, hh)
    conv_ab = B.converse_table(a, b)
    conv_ac = B.converse_table(a, c)
    fits_g = B.fit_table(b, B.kernel_table(b, gg)[funcs_g])
    fits_h = B.fit_table(c, B.kernel_table(c, hh)[funcs_h])
    p1s = fits_g[B.kernel_table(b, ff)[
        B.compose_table(b, a, ff)[funcs_f[:, None], conv_ab[None, :]]]]
    p2s = fits_h[B.kernel_table(c, ff)[
        B.compose_table(c, a, ff)[funcs_f[:, None], conv_ac[None, :]]]]
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
    for fi in _distinct(p1s, p2s, kfs):
        kf = int(kfs[fi])
        p1, p2 = p1s[fi][:, None], p2s[fi][None, :]
        mid1 = ct_aaa[ct_aaa[dom_ac, kf], dom_ac]
        l1 = ct_rm_cr[ct_r_mid[rm, mid1[None, :]], conv_ab[:, None]]
        mid2 = ct_aaa[ct_aaa[dom_ab, kf], dom_ab]
        l2 = ct_sm_cs[ct_s_mid[sm, mid2[:, None]], conv_ac[None, :]]
        ok1, ok2 = fits_g[l1], fits_h[l2]
        terms = (ok1, ok2, p1, p2) if corrupted else (p1, p2, ok1, ok2)
        hit = _join_violation(*terms, in_s, at_r)
        if hit is not None:
            ri, si, gi, hi = hit
            return {"R": ri, "S": si, "f": int(funcs_f[fi]),
                    "g": int(funcs_g[gi]), "h": int(funcs_h[hi])}
    return None


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


def law_variable_masks(law: Law, sizes: dict) -> list[np.ndarray]:
    out = []
    for v in law.variables:
        m, n = sizes[v.source], sizes[v.target]
        if v.function:
            out.append(B.function_masks(m, n))
        else:
            out.append(B.all_masks(m, n))
    return out


def search_law_bruteforce(law: Law, max_carrier: int) -> Optional[dict]:
    """Pointwise mirror of the sweeps; slow, for cross-validation."""
    for sizes in law.size_combos(max_carrier):
        spaces = law_variable_masks(law, sizes)
        for combo in itertools.product(*spaces):
            masks = {v.name: int(m)
                     for v, m in zip(law.variables, combo)}
            assignment = law.assignment_from_masks(sizes, masks)
            if not law.holds(assignment):
                return assignment
    return None
