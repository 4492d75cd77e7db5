"""The law sweeps against loop oracles, also under corrupted op tables.

`fd_trading`, `fd_consequent_pairing`, `union_fd_typing`,
`mutual_dependency_self` and `join_fd_typing` judge each distinct computed
term once.  Their oracles here are the earlier form of those sweeps: one
loop iteration per function (per f, or per z and k), judging every one of
them, and for `join_fd_typing` every (R, S) pair spread out in full.
`converse_of_compose`, `shunt_function_left`, `shunt_function_right`,
`injectivity_galois` (with its corrupted twin), `union_injectivity` and
`fork_least_upper_bound` get per-assignment oracles, each assignment
judged from its own table entries in the law's nesting order: a Python
loop over every (R, S) for `converse_of_compose`, over every (f, R) with S
a numpy axis for the shunting rules and the galois rule, over every X with
R and S numpy axes for `union_injectivity`, whose sweep judges one X per
distinct kernel, and over every R with S and T numpy axes for
`fork_least_upper_bound`, whose sweep judges one T per distinct kernel.
The numpy axes keep each oracle under a second at carrier 3.
On sound tables a skip can agree with the oracle because the law holds; a
skip justified by an algebraic identity of the tables, rather than by
byte-equal computed rows, shows up only when a table is wrong.  So each
sweep is also compared with its oracle under single-entry corruptions of
`bitrel.compose_table` and `bitrel.kernel_table`: the sweep must return the
oracle's witness, or None with it.
"""

import dataclasses
import itertools
import random
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from relfd import bitrel as B
from relfd import laws
from relfd.laws import (LAW_REGISTRY, LAW_SUITE, _first_bit, _first_false,
                        _join_violation, _low_bit)
from relfd.search import Scope, search_law


def fd_trading_oracle(sz):
    a, kk, b, zz = sz["A"], sz["K"], sz["B"], sz["Z"]
    cx, cy = sz["CX"], sz["CY"]
    zf = B.function_masks(b, zz)
    kf = B.function_masks(a, kk)
    xf = B.function_masks(kk, cx)
    yf = B.function_masks(zz, cy)
    ct_zr = B.compose_table(a, b, zz)
    ct_zrck = B.compose_table(kk, a, zz)
    conv_k = B.converse_table(a, kk)
    conv_kz = B.converse_table(kk, zz)
    ct_x_cm = B.compose_table(zz, kk, cx)
    lb = B.fit_table(zz, B.kernel_table(zz, cy)[yf])[
        B.kernel_table(zz, cx)[ct_x_cm[xf[:, None], conv_kz[None, :]]]]
    xk = B.compose_table(a, kk, cx)[xf[None, :], kf[:, None]]
    k2 = B.kernel_table(b, cx)[B.compose_table(b, a, cx)[
        xk[:, :, None], B.converse_table(a, b)]]
    ct_yz = B.compose_table(b, zz, cy)
    kyz_tab = B.kernel_table(b, cy)
    for z in zf:
        rb = B.fit_table(b, kyz_tab[ct_yz[yf, z]])[k2]
        for ki, k in enumerate(kf):
            m = ct_zrck[ct_zr[z, :], conv_k[k]]
            hit = _first_bit(lb.take(m, axis=1) ^ rb[ki], lead=1)
            if hit is not None:
                xi, yi, ri = hit
                return {"x": int(xf[xi]), "z": int(z), "R": ri,
                        "k": int(k), "y": int(yf[yi])}
    return None


def consequent_pairing_oracle(sz):
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
    for f in funcs_f:
        kfr = ker_bf[ct_f_cr[f, conv_ab]]
        lhs = B.subset(kfr[:, None, None], fk[None, :, :])
        okg = B.subset(kfr[:, None], kg[None, :])
        okh = B.subset(kfr[:, None], kh[None, :])
        hit = _first_false(lhs == (okg[:, :, None] & okh[:, None, :]))
        if hit is not None:
            ri, gi, hi = hit
            return {"R": ri, "f": int(f), "g": int(funcs_g[gi]),
                    "h": int(funcs_h[hi])}
    return None


def _union_terms(sz):
    """Per f: its mask, ker(f.R~) for every R and ker(f).S~ for every S."""
    a, b, c, d = sz["A"], sz["B"], sz["C"], sz["D"]
    funcs_g = B.function_masks(b, d)
    conv_ab = B.converse_table(a, b)
    ct_f_cu = B.compose_table(b, a, c)
    ker_bc = B.kernel_table(b, c)
    ker_ac = B.kernel_table(a, c)
    ct_kf_cs = B.compose_table(b, a, a)
    per_f = [(int(f), ker_bc[ct_f_cu[f, conv_ab]],
              ct_kf_cs[int(ker_ac[f]), conv_ab])
             for f in B.function_masks(a, c)]
    return (funcs_g, B.kernel_table(b, d)[funcs_g],
            B.compose_table(b, a, b), per_f)


def union_fd_typing_oracle(sz):
    masks = np.arange(1 << (sz["A"] * sz["B"]), dtype=np.int64)
    un = masks[:, None] | masks[None, :]
    funcs_g, kg_all, ct_r_mid, per_f = _union_terms(sz)
    fits = B.fit_table(sz["B"], kg_all)
    for f, kfu, m1 in per_f:
        single = fits[kfu]
        rhs = (single[:, None] & single[None, :]
               & fits[ct_r_mid.take(m1, axis=1)])
        hit = _first_bit(single[un] ^ rhs)
        if hit is not None:
            gi, ri, si = hit
            return {"R": ri, "S": si, "f": f, "g": int(funcs_g[gi])}
    return None


def mutual_self_oracle(sz):
    funcs_g, kg_all, ct_r_mid, per_f = _union_terms(sz)
    for f, kfu, m1 in per_f:
        mut = ct_r_mid[np.arange(len(m1)), m1]
        lhs = B.subset(mut[:, None], kg_all[None, :])
        rhs = B.subset(kfu[:, None], kg_all[None, :])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"R": hit[0], "f": f, "g": int(funcs_g[hit[1]])}
    return None


def plain_join_violation(prem1, prem2, conc1, conc2):
    """`laws._join_violation` on uncompressed arguments: every one is a
    bitset array shaped (R|1, S|1), judged at every (R, S) at once."""
    viol = ((((prem1 & ~conc1) != 0) & (prem2 != 0))
            | (((prem2 & ~conc2) != 0) & (prem1 != 0)))
    hit = _first_false(~viol)
    if hit is None:
        return None
    p1, p2, c1, c2 = (int(np.broadcast_to(t, viol.shape)[hit])
                      for t in (prem1, prem2, conc1, conc2))
    if p1 & ~c1 and p2:
        return (*hit, _low_bit(p1 & ~c1), _low_bit(p2))
    return (*hit, _low_bit(p1), _low_bit(p2 & ~c2))


def join_fd_typing_oracle(sz):
    a, b, c = sz["A"], sz["B"], sz["C"]
    ff, gg, hh = sz["F"], sz["G"], sz["H"]
    funcs_f = B.function_masks(a, ff)
    funcs_g = B.function_masks(b, gg)
    funcs_h = B.function_masks(c, hh)
    conv_ab = B.converse_table(a, b)
    conv_ac = B.converse_table(a, c)
    ct_f_cr = B.compose_table(b, a, ff)
    ct_f_cs = B.compose_table(c, a, ff)
    ker_bf = B.kernel_table(b, ff)
    ker_cf = B.kernel_table(c, ff)
    fits_g = B.fit_table(b, B.kernel_table(b, gg)[funcs_g])
    fits_h = B.fit_table(c, B.kernel_table(c, hh)[funcs_h])
    dom_ab = B.domain_table(a, b)
    dom_ac = B.domain_table(a, c)
    ker_af = B.kernel_table(a, ff)
    ct_aaa = B.compose_table(a, a, a)
    ct_r_mid = B.compose_table(a, a, b)
    ct_rm_cr = B.compose_table(b, a, b)
    ct_s_mid = B.compose_table(a, a, c)
    ct_sm_cs = B.compose_table(c, a, c)
    rm = np.arange(1 << (a * b), dtype=np.int64)
    sm = np.arange(1 << (a * c), dtype=np.int64)
    for f in funcs_f:
        kf = int(ker_af[f])
        p1 = fits_g[ker_bf[ct_f_cr[f, conv_ab]]][:, None]
        p2 = fits_h[ker_cf[ct_f_cs[f, conv_ac]]][None, :]
        mid1 = ct_aaa[ct_aaa[dom_ac, kf], dom_ac]
        l1 = ct_rm_cr[ct_r_mid[rm[:, None], mid1[None, :]],
                      conv_ab[rm][:, None]]
        mid2 = ct_aaa[ct_aaa[dom_ab, kf], dom_ab]
        l2 = ct_sm_cs[ct_s_mid[sm[None, :], mid2[:, None]],
                      conv_ac[sm][None, :]]
        hit = plain_join_violation(p1, p2, fits_g[l1], fits_h[l2])
        if hit is not None:
            ri, si, gi, hi = hit
            return {"R": ri, "S": si, "f": int(f),
                    "g": int(funcs_g[gi]), "h": int(funcs_h[hi])}
    return None


def converse_compose_oracle(sz):
    a, b, c = sz["A"], sz["B"], sz["C"]
    r_s = B.compose_table(a, b, c).tolist()  # [R][S]: R.S, A -> C
    cs_cr = B.compose_table(c, b, a).tolist()  # [S~][R~]: S~.R~, C -> A
    conv_ac = B.converse_table(a, c).tolist()
    conv_ab = B.converse_table(a, b).tolist()
    conv_bc = B.converse_table(b, c).tolist()
    for r, row in enumerate(r_s):
        for s, rs in enumerate(row):
            if conv_ac[rs] != cs_cr[conv_ab[s]][conv_bc[r]]:
                return {"R": r, "S": s}
    return None


def shunt_left_oracle(sz):
    a, b, c = sz["A"], sz["B"], sz["C"]
    s_all = B.all_masks(a, c)
    ct_fr = B.compose_table(a, b, c)
    ct_cfs = B.compose_table(a, c, b)
    conv_f = B.converse_table(b, c)
    for f in B.function_masks(b, c):
        cfs = ct_cfs[conv_f[f]]  # f~.S for every S
        for r in range(1 << (a * b)):
            hit = _first_false(B.subset(ct_fr[f, r], s_all)
                               == B.subset(r, cfs))
            if hit is not None:
                return {"f": int(f), "R": r, "S": hit[0]}
    return None


def shunt_right_oracle(sz):
    x, y, w = sz["X"], sz["Y"], sz["W"]
    s_all = B.all_masks(y, w)
    ct_rcf = B.compose_table(y, x, w)
    ct_sf = B.compose_table(x, y, w)
    conv_f = B.converse_table(x, y)
    for f in B.function_masks(x, y):
        sf = ct_sf[:, f]  # S.f for every S
        for r in range(1 << (x * w)):
            hit = _first_false(B.subset(ct_rcf[r, conv_f[f]], s_all)
                               == B.subset(r, sf))
            if hit is not None:
                return {"f": int(f), "R": r, "S": hit[0]}
    return None


def galois_oracle(sz, corrupted=False):
    a, c, d = sz["A"], sz["C"], sz["D"]
    b = a if corrupted else sz["B"]
    ker_s = B.kernel_table(a, d)  # ker S for every S
    ker_r = B.kernel_table(b, c).tolist()
    ker_rf = B.kernel_table(a, c)
    ker_sf = B.kernel_table(b, d)
    ct_rf = B.compose_table(a, b, c)
    ct_sf = B.compose_table(b, a, d)
    conv_f = B.converse_table(a, b)
    for f in B.function_masks(a, b):
        krf = ker_rf[ct_rf[:, f]].tolist()  # ker(R.f) for every R
        ksf = ker_sf[ct_sf[:, f if corrupted else conv_f[f]]]  # ker(S.f~)
        for r in range(1 << (b * c)):
            hit = _first_false(B.subset(ker_s, krf[r])
                               == B.subset(ksf, ker_r[r]))
            if hit is not None:
                return {"f": int(f), "R": r, "S": hit[0]}
    return None


def union_injectivity_oracle(sz):
    a, b = sz["A"], sz["B"]
    masks = np.arange(1 << (a * b), dtype=np.int64)
    ker = B.kernel_table(a, b)
    ker_union = ker[masks[:, None] | masks[None, :]]  # [R, S]: ker(R|S)
    cross = B.compose_table(a, b, a)[B.converse_table(a, b)[:, None],
                                     masks[None, :]]  # [R, S]: R~.S
    for xi, kx in enumerate(ker.tolist()):
        single = B.subset(ker, kx)  # X <= R for every R
        hit = _first_false(B.subset(ker_union, kx)
                           == (single[:, None] & single[None, :]
                               & B.subset(cross, kx)))
        if hit is not None:
            return {"X": xi, "R": hit[0], "S": hit[1]}
    return None


def fork_lub_oracle(sz):
    """The sweep runs T outermost: every R is judged, then the first T with
    a violation is taken, and its first (R, S)."""
    c, a, b, d = sz["C"], sz["A"], sz["B"], sz["D"]
    fork_ker = B.fork_kernel_table(c, a, b)  # [R, S]: ker fork(R, S)
    ker_t = B.kernel_table(c, d)
    # [m, T]: ker T is in the mask m, so a row of it is one kernel's test
    in_m = np.ascontiguousarray(B.subset_table(c, c)[ker_t].T)
    s_ok = in_m[B.kernel_table(c, b)]  # [S, T]: S <= T
    ker_r = B.kernel_table(c, a).tolist()
    bad = np.empty((len(ker_r), len(ker_t)), dtype=bool)  # [R, T]
    for r, kr in enumerate(ker_r):
        viol = in_m[fork_ker[r]] != (in_m[kr] & s_ok)  # [S, T]
        bad[r] = viol.any(axis=0)
    if not bad.any():
        return None
    t = int(np.argmax(bad.any(axis=0)))
    r = int(np.argmax(bad[:, t]))
    s = int(np.argmax(in_m[fork_ker[r], t]
                      != (in_m[ker_r[r], t] & s_ok[:, t])))
    return {"R": r, "S": s, "T": t}


ORACLES = {
    "converse_of_compose": converse_compose_oracle,
    "shunt_function_left": shunt_left_oracle,
    "shunt_function_right": shunt_right_oracle,
    "injectivity_galois": galois_oracle,
    "galois_corrupted": partial(galois_oracle, corrupted=True),
    "union_injectivity": union_injectivity_oracle,
    "fork_least_upper_bound": fork_lub_oracle,
    "fd_trading": fd_trading_oracle,
    "fd_consequent_pairing": consequent_pairing_oracle,
    "union_fd_typing": union_fd_typing_oracle,
    "mutual_dependency_self": mutual_self_oracle,
    "join_fd_typing": join_fd_typing_oracle,
}
TABLES = ("compose_table", "kernel_table")


def corruptible_tables(monkeypatch):
    """Patch hooks on the two op tables: `record()` starts collecting the
    (name, sizes) of every table asked for; `corrupt(name, sizes, *flips)`
    serves that table with, for each flip (entry, bit), that bit of that
    entry flipped."""
    # kernel_table reads compose_table and caches what it builds: build
    # every kernel table first, so none is built from a corrupted one
    for m, n in itertools.product(range(1, B.MAX_SIZE + 1), repeat=2):
        B.kernel_table(m, n)
    clean = {name: getattr(B, name) for name in TABLES}
    used: set = set()
    flipped: dict = {}

    def serve(name, *sizes):
        used.add((name, sizes))
        return flipped.get((name, sizes), clean[name](*sizes))

    for name in TABLES:
        monkeypatch.setattr(B, name, lambda *s, name=name: serve(name, *s))

    def record() -> set:
        used.clear()
        return used

    def corrupt(name, sizes, *flips):
        flipped.clear()
        table = clean[name](*sizes).copy()
        for entry, bit in flips:
            table[entry] ^= 1 << bit
        flipped[name, sizes] = table

    return SimpleNamespace(record=record, corrupt=corrupt)


@pytest.fixture
def tables(monkeypatch):
    return corruptible_tables(monkeypatch)


def _combos(law):
    """Every size combo at carrier 2, then the one with every slot at 3."""
    return [*law.size_combos(2), {s: 3 for s in law.slots()}]


def _mask_bits(name, sizes):
    """Bits in one entry: compose masks are over si -> so, kernels m -> m."""
    return sizes[0] * (sizes[2] if name == "compose_table" else sizes[0])


@pytest.mark.parametrize("law_id", list(ORACLES))
def test_sweep_equals_its_oracle_under_corrupted_tables(law_id, tables):
    law, oracle = LAW_REGISTRY[law_id], ORACLES[law_id]
    combos = _combos(law)
    reads = []
    for sz in combos:
        used = tables.record()
        want = oracle(sz)
        assert law.sweep(sz) == want, sz
        # on sound tables only the deliberately broken laws fail
        assert want is None or law_id not in LAW_SUITE, sz
        reads.append(set(used))
    rnd = random.Random(law_id)
    # The carrier-2 combos read tables of sizes 1..2, the all-3 one tables
    # of size 3; its runs are the slow ones, so they get two corruptions.
    # About one corruption in seven yields a witness at carrier 2.
    small = sorted(set().union(*reads[:-1]))
    large = sorted(reads[-1])
    witnesses = 0
    for name, sizes in ([rnd.choice(small) for _ in range(40)]
                        + [rnd.choice(large) for _ in range(2)]):
        shape = getattr(B, name)(*sizes).shape
        tables.corrupt(name, sizes, (tuple(rnd.randrange(d) for d in shape),
                                     rnd.randrange(_mask_bits(name, sizes))))
        for sz, read in zip(combos, reads):
            if (name, sizes) in read:
                want = oracle(sz)
                assert law.sweep(sz) == want, (name, sizes, sz)
                witnesses += want is not None
    assert witnesses >= 1


def test_join_sweep_judges_each_f_by_its_premises(tables):
    """The two functions from a 1-set to a 2-set have the same kernel; one
    corrupted compose entry gives them different premises p1.  Skipping
    the second f for its kernel alone missed this witness."""
    tables.corrupt("compose_table", (2, 1, 2), ((2, 3), 3))
    sz = {"A": 1, "F": 2, "B": 2, "G": 2, "C": 2, "H": 2}
    witness = {"R": 1, "S": 3, "f": 2, "g": 5, "h": 9}
    assert join_fd_typing_oracle(sz) == witness
    assert LAW_REGISTRY["join_fd_typing"].sweep(sz) == witness


def _classes(rng, n):
    """n class labels, every one of 0..k-1 used, for a random k <= n."""
    k = int(rng.integers(1, n + 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return labels


def test_compressed_join_judgement_equals_the_plain_one():
    """`_join_violation` takes, for each f, g-side bitsets per (R, class of
    S) and h-side ones per (class of R, S), S's classes as a membership
    matrix and R's as labels; spread over every (R, S) they must give the
    plain judgement's witness for the first f that has one, or None with
    it.  Any axis may have length 1 and broadcast."""
    rng = np.random.default_rng(20)
    found = 0
    for _ in range(300):
        at1, at2 = _classes(rng, rng.integers(1, 7)), _classes(rng, 6)
        n = int(rng.integers(1, 4))  # the f
        # how often a conclusion covers all; more often for more f
        covered = rng.random() ** (0.3 / n)

        def bits(rows, cols):
            shape = [k if rng.random() < 0.8 else 1 for k in (n, rows, cols)]
            return (rng.integers(0, 4, shape)
                    | np.where(rng.random(shape) < covered, 3, 0))

        c1, c2 = at1.max() + 1, at2.max() + 1
        prem1, conc1 = bits(len(at2), c1) & 3, bits(len(at2), c1)
        prem2, conc2 = bits(c2, len(at1)) & 3, bits(c2, len(at1))
        want = None
        for fi in range(n):
            g_side, h_side = ([t[min(fi, len(t) - 1)] for t in ts]
                              for ts in ((prem1, conc1), (prem2, conc2)))
            g_side = [t[:, at1] if t.shape[1] > 1 else t for t in g_side]
            h_side = [t[at2] if t.shape[0] > 1 else t for t in h_side]
            hit = plain_join_violation(g_side[0], h_side[0],
                                       g_side[1], h_side[1])
            if hit is not None:
                want = (fi, *hit)
                break
        in_s = at1[:, None] == np.arange(c1)
        assert _join_violation(prem1, prem2, conc1, conc2, in_s, at2) == want
        found += want is not None
    assert 50 < found < 250, found  # both outcomes are common


def test_join_sweep_takes_each_r_by_its_own_domain(tables):
    """One corrupted compose entry puts the first witness at R = 5, whose
    domain is all of A.  A sweep that judged R by another R's domain class
    (its class labels sorted, say) named another witness."""
    tables.corrupt("compose_table", (2, 2, 2), ((5, 6), 0))
    sz = {"A": 2, "F": 2, "B": 2, "G": 2, "C": 2, "H": 2}
    witness = {"R": 5, "S": 6, "f": 5, "g": 5, "h": 9}
    assert join_fd_typing_oracle(sz) == witness
    assert LAW_REGISTRY["join_fd_typing"].sweep(sz) == witness


class Corruption(NamedTuple):
    """One table served with `flips` at `table_sizes`, and the witness that
    the sweep of `law_id` and its oracle find at carrier sizes `sizes`."""
    law_id: str
    sizes: dict
    table: str
    table_sizes: tuple
    flips: tuple  # ((entry, bit), ...)
    witness: dict


CT3, KT3 = ("compose_table", (3, 3, 3)), ("kernel_table", (3, 3))
ALL_3 = dict.fromkeys("ABC", 3)
# Carrier-3 corruptions, found by a search over random ones, that put a
# witness past the first block of R, the relation axis of 512 rows that the
# re-blocked sweeps take `bitrel.BLOCK_ROWS` rows at a time.  Each `last`
# case puts it in the last block.  For `fd_consequent_pairing` and
# `union_fd_typing` no corruption of one entry was found to do so: at an R
# of the last block, row 2 of R relates to every target, so ker(f.R~) is
# the whole square for every f, as at R = 7, which comes first; their
# `last` cases reach block 5.  Each `two` case flips two entries whose
# witnesses, each alone, fall in two blocks (`test_two_block_cases_...`).
LATER_BLOCK_CASES = {
    "converse_of_compose/last": Corruption(
        "converse_of_compose", ALL_3, *CT3, (((494, 439), 1),),
        {"R": 494, "S": 439}),
    "converse_of_compose/two": Corruption(
        "converse_of_compose", ALL_3, *CT3, (((402, 380), 7), ((456, 372), 5)),
        {"R": 402, "S": 380}),
    "shunt_function_left/last": Corruption(
        "shunt_function_left", ALL_3, *CT3, (((268, 486), 3),),
        {"f": 268, "R": 486, "S": 357}),
    "shunt_function_left/two": Corruption(
        "shunt_function_left", ALL_3, *CT3, (((268, 429), 8), ((268, 486), 3)),
        {"f": 268, "R": 429, "S": 100}),
    "shunt_function_right/last": Corruption(
        "shunt_function_right", dict.fromkeys("XYW", 3), *CT3,
        (((451, 392), 2),), {"f": 290, "R": 451, "S": 472}),
    "shunt_function_right/two": Corruption(
        "shunt_function_right", dict.fromkeys("XYW", 3), *CT3,
        (((324, 28), 4), ((394, 28), 1)), {"f": 82, "R": 324, "S": 37}),
    # The packed shunts pass over the first 15 f on their S-bitsets: a
    # `later_f` case flips the left side of f = 98, the 16th, to put its
    # witness in the last block; a `right_side` case flips one S of the
    # right side of a later f, f~.S or S.f, which `laws._down_or` spreads.
    "shunt_function_left/later_f": Corruption(
        "shunt_function_left", ALL_3, *CT3, (((98, 464), 0),),
        {"f": 98, "R": 464, "S": 480}),
    "shunt_function_left/right_side": Corruption(
        "shunt_function_left", ALL_3, *CT3, (((224, 155), 8),),
        {"f": 164, "R": 256, "S": 155}),
    "shunt_function_right/later_f": Corruption(
        "shunt_function_right", dict.fromkeys("XYW", 3), *CT3,
        (((498, 140), 3),), {"f": 98, "R": 498, "S": 407}),
    "shunt_function_right/right_side": Corruption(
        "shunt_function_right", dict.fromkeys("XYW", 3), *CT3,
        (((319, 274), 8),), {"f": 274, "R": 256, "S": 319}),
    "union_injectivity/last": Corruption(
        "union_injectivity", dict.fromkeys("AB", 3), *CT3,
        (((357, 453), 5),), {"X": 65, "R": 453, "S": 453}),
    "union_injectivity/two": Corruption(
        "union_injectivity", dict.fromkeys("AB", 3), *CT3,
        (((306, 184), 2), ((357, 453), 5)), {"X": 65, "R": 453, "S": 453}),
    "union_fd_typing/last": Corruption(
        "union_fd_typing", dict.fromkeys("ABCD", 3), *CT3,
        (((357, 453), 5),), {"R": 357, "S": 37, "f": 81, "g": 81}),
    "union_fd_typing/two": Corruption(
        "union_fd_typing", dict.fromkeys("ABCD", 3), *CT3,
        (((306, 184), 2), ((357, 453), 5)),
        {"R": 357, "S": 37, "f": 81, "g": 81}),
    # ker_r and ker_t are different tables at these sizes, so a flipped
    # kernel of R leaves T's order alone
    "fork_least_upper_bound/last": Corruption(
        "fork_least_upper_bound", {"C": 3, "A": 3, "B": 2, "D": 2}, *KT3,
        (((511,), 8),), {"R": 511, "S": 16, "T": 16}),
    "fork_least_upper_bound/two": Corruption(
        "fork_least_upper_bound", {"C": 3, "A": 3, "B": 2, "D": 2}, *KT3,
        (((446,), 4), ((511,), 4)), {"R": 446, "S": 4, "T": 4}),
    "fd_consequent_pairing/last": Corruption(
        "fd_consequent_pairing", dict.fromkeys("AFBGH", 3), *KT3,
        (((138,), 1),), {"R": 322, "f": 137, "g": 73, "h": 138}),
    "fd_consequent_pairing/two": Corruption(
        "fd_consequent_pairing", dict.fromkeys("AFBGH", 3), *KT3,
        (((82,), 5), ((138,), 1)), {"R": 196, "f": 137, "g": 73, "h": 82}),
}
# the sweeps whose witness takes its bit (X or g) before R, as _first_bit
BIT_FIRST = ("union_injectivity", "union_fd_typing")


def sweep_and_oracle_find(case: Corruption, tables) -> None:
    tables.corrupt(case.table, case.table_sizes, *case.flips)
    assert ORACLES[case.law_id](case.sizes) == case.witness
    assert LAW_REGISTRY[case.law_id].sweep(case.sizes) == case.witness


@pytest.mark.parametrize("case_id", list(LATER_BLOCK_CASES))
def test_sweep_finds_witnesses_past_the_first_row_block(case_id, tables):
    case = LATER_BLOCK_CASES[case_id]
    if case_id.endswith(("/last", "/later_f")):
        assert case.witness["R"] >= (1 << 9) - B.BLOCK_ROWS or (
            case.law_id in ("fd_consequent_pairing", "union_fd_typing"))
    sweep_and_oracle_find(case, tables)


@pytest.mark.parametrize("case_id", [c for c in LATER_BLOCK_CASES
                                     if c.endswith("/two")])
def test_two_block_cases_take_the_witness_the_nesting_order_gives(case_id,
                                                                 tables):
    """Each flip alone puts the oracle's witness in its own block, the
    first flip's in the earlier one.  With both, R outermost takes the
    earlier block's witness; a bit outermost takes the later block's, whose
    bit is the lower."""
    case = LATER_BLOCK_CASES[case_id]
    alone = []
    for flip in case.flips:
        tables.corrupt(case.table, case.table_sizes, flip)
        alone.append(ORACLES[case.law_id](case.sizes))
    early, late = (w["R"] // B.BLOCK_ROWS for w in alone)
    assert early < late
    assert case.witness == alone[case.law_id in BIT_FIRST]


@pytest.mark.parametrize("bits", [2, 4, 6, 9])
def test_down_or_equals_the_unpacked_subset_test(bits):
    """`laws._down_or(right, bits)` packs, for every mask R of `bits` bits,
    the S with R in right[S]; the unpacked test is `bitrel.subset` over
    every (R, S)."""
    rng = np.random.default_rng(bits)
    for n in (1, 3, 8, 64, 512):
        right = rng.integers(0, 1 << bits, n).astype(np.int32)
        want = B.subset(np.arange(1 << bits)[:, None], right[None, :])
        assert np.array_equal(laws._down_or(right, bits),
                              np.packbits(want, axis=1, bitorder="little"))


# The sweeps that keep computed terms in `search_law`'s memo.
MEMOISED = ("fd_trading", "join_fd_typing")


def first_oracle_witness(law, max_carrier):
    """The loop oracle's first witness in `size_combos` order, as an
    assignment, or None."""
    for sz in law.size_combos(max_carrier):
        masks = ORACLES[law.law_id](sz)
        if masks is not None:
            return law.assignment_from_masks(sz, masks)
    return None


def search_equals_the_first_oracle_witness(law_id, max_carrier, monkeypatch):
    """`search_law` against `first_oracle_witness`.  Under a corrupted
    table a witness need not falsify the law, so the search's pointwise
    re-check is turned off."""
    law = LAW_REGISTRY[law_id]
    monkeypatch.setitem(LAW_REGISTRY, law_id,
                        dataclasses.replace(law, holds=lambda a: False))
    want = first_oracle_witness(law, max_carrier)
    assert search_law(law_id, Scope(max_carrier=max_carrier)) == want
    return want


@pytest.mark.parametrize("law_id", MEMOISED)
def test_search_equals_its_first_oracle_witness_under_corrupted_tables(
        law_id, tables, monkeypatch):
    """One search shares its terms across size combinations, so each
    corruption is of a table that only some of the carrier-2 combinations
    read: a term kept under too few sizes, or from an earlier search,
    would be read where the corrupted one is due, or the other way round."""
    law = LAW_REGISTRY[law_id]
    reads = []
    for sz in law.size_combos(2):
        used = tables.record()
        law.sweep(sz)
        reads.append(set(used))
    some = sorted(set().union(*reads) - set.intersection(*reads))
    rnd = random.Random(law_id)
    witnesses = 0
    search_equals_the_first_oracle_witness(law_id, 2, monkeypatch)
    for name, sizes in (rnd.choice(some) for _ in range(60)):
        shape = getattr(B, name)(*sizes).shape
        tables.corrupt(name, sizes, (tuple(rnd.randrange(d) for d in shape),
                                     rnd.randrange(_mask_bits(name, sizes))))
        witnesses += search_equals_the_first_oracle_witness(
            law_id, 2, monkeypatch) is not None
    assert witnesses >= 6, witnesses
