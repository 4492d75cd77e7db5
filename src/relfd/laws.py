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

`search_law_bruteforce` is a slow pointwise mirror of the sweep machinery
used by the tests to cross-validate the vectorized engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from . import bitrel as B
from . import rel
from .fd import mutual_dependency, satisfies_typed
from .infer import fd_trade


@dataclass(frozen=True)
class LawVariable:
    name: str
    source: str
    target: str
    function: bool = False


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
        varying = self.iterated_slots()
        for sizes in itertools.product(range(1, max_carrier + 1),
                                       repeat=len(varying)):
            combo = {s: max_carrier for s in self.slots()}
            combo.update(dict(zip(varying, sizes)))
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
    s_all = B.all_masks(a, c)
    for fi, f in enumerate(funcs):
        fr = ct_fr[f]
        cfs = ct_cfs[conv_f[f]]
        lhs = B.subset(fr[:, None], s_all[None, :])
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
    s_all = B.all_masks(y, w)
    for fi, f in enumerate(funcs):
        rcf = ct_rcf[:, conv_f[f]]
        sf = ct_sf[:, f]
        lhs = B.subset(rcf[:, None], s_all[None, :])
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
    """The corrupted rule composes S with f instead of f~, so f: A -> A."""
    a, c, d = sz["A"], sz["C"], sz["D"]
    b = a if corrupted else sz["B"]
    funcs = B.function_masks(a, b)
    backs = funcs if corrupted else B.converse_table(a, b)[funcs]
    ct_rf = B.compose_table(a, b, c)
    ct_sf = B.compose_table(b, a, d)
    ker_rf = B.kernel_table(a, c)
    ker_r = B.kernel_table(b, c)
    ker_s = B.kernel_table(a, d)
    ker_sf = B.kernel_table(b, d)
    for f, back in zip(funcs, backs):
        krf = ker_rf[ct_rf[:, f]]
        ksf = ker_sf[ct_sf[:, back]]
        lhs = B.subset(ker_s[None, :], krf[:, None])
        rhs = B.subset(ksf[None, :], ker_r[:, None])
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"f": int(f), "R": hit[0], "S": hit[1]}
    return None


def _holds_fd_trading(a: dict) -> bool:
    return fd_trade(a["x"], a["z"], a["R"], a["k"], a["y"])


def _sweep_fd_trading(sz: dict) -> Optional[dict]:
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
    ker_z_cx = B.kernel_table(zz, cx)
    ky = B.kernel_table(zz, cy)[yf]
    ct_xk = B.compose_table(a, kk, cx)
    ct_yz = B.compose_table(b, zz, cy)
    conv_r = B.converse_table(a, b)
    ct_xk_cr = B.compose_table(b, a, cx)
    ker_b_cx = B.kernel_table(b, cx)
    kyz_tab = B.kernel_table(b, cy)
    for zi, z in enumerate(zf):
        kyz = kyz_tab[ct_yz[yf, z]]
        for ki, k in enumerate(kf):
            m = ct_zrck[ct_zr[z, :], conv_k[k]]
            cm = conv_kz[m]
            k1 = ker_z_cx[ct_x_cm[xf[:, None], cm[None, :]]]
            lhs = B.subset(k1[:, None, :], ky[None, :, None])
            xk = ct_xk[xf, k]
            k2 = ker_b_cx[ct_xk_cr[xk[:, None], conv_r[None, :]]]
            rhs = B.subset(k2[:, None, :], kyz[None, :, None])
            hit = _first_false(lhs == rhs)
            if hit is not None:
                xi, yi, ri = hit
                return {"x": int(xf[xi]), "z": int(z), "R": ri,
                        "k": int(k), "y": int(yf[yi])}
    return None


def _holds_union_injectivity(a: dict) -> bool:
    x, r, s = a["X"], a["R"], a["S"]
    lhs = rel.leq(x, rel.union(r, s))
    rhs = (rel.leq(x, r) and rel.leq(x, s)
           and rel.includes(rel.kernel(x),
                            rel.compose(rel.converse(r), s)))
    return lhs == rhs


def _sweep_union_injectivity(sz: dict) -> Optional[dict]:
    a, b = sz["A"], sz["B"]
    n = 1 << (a * b)
    ker_ab = B.kernel_table(a, b)
    conv_ab = B.converse_table(a, b)
    crs = B.compose_table(a, b, a)[conv_ab[:, None],
                                   np.arange(n, dtype=np.int64)[None, :]]
    masks = np.arange(n, dtype=np.int64)
    ku = ker_ab[masks[:, None] | masks[None, :]]
    for xi in range(n):
        kx = int(ker_ab[xi])
        lhs = B.subset(ku, kx)
        single = B.subset(ker_ab, kx)
        rhs = single[:, None] & single[None, :] & B.subset(crs, kx)
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"X": xi, "R": hit[0], "S": hit[1]}
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
    for ti in range(1 << (c * d)):
        kt = int(ker_t[ti])
        lhs = B.subset(kt, fk)
        rhs = B.subset(kt, ker_r)[:, None]
        if not corrupted:
            rhs = rhs & B.subset(kt, ker_s)[None, :]
        hit = _first_false(lhs == rhs)
        if hit is not None:
            return {"R": hit[0], "S": hit[1], "T": ti}
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
    for fi, f in enumerate(funcs_f):
        kfr = ker_bf[ct_f_cr[f, conv_ab]]
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
    ker(f.R~) is in ker g, and mutually on (R, S) when R.ker(f).S~ is.
    """
    a, b, c, d = sz["A"], sz["B"], sz["C"], sz["D"]
    funcs_g = B.function_masks(b, d)
    conv_ab = B.converse_table(a, b)
    ct_f_cu = B.compose_table(b, a, c)
    ker_bc = B.kernel_table(b, c)
    ker_ac = B.kernel_table(a, c)
    ct_kf_cs = B.compose_table(b, a, a)
    per_f = ((int(f), ker_bc[ct_f_cu[f, conv_ab]],
              ct_kf_cs[int(ker_ac[f]), conv_ab])
             for f in B.function_masks(a, c))
    return (funcs_g, B.kernel_table(b, d)[funcs_g],
            B.compose_table(b, a, b), per_f)


def _sweep_union_fd_typing(sz: dict,
                           corrupted: bool = False) -> Optional[dict]:
    """The corrupted rule drops the mutual conjunct."""
    masks = np.arange(1 << (sz["A"] * sz["B"]), dtype=np.int64)
    un = masks[:, None] | masks[None, :]
    funcs_g, kg_all, ct_r_mid, per_f = _union_terms(sz)
    for f, kfu, m1 in per_f:
        kfu_un = kfu[un]
        # take() keeps C order; ct_r_mid[:, m1] is F order, and mixing the
        # two orders makes the elementwise ops below several times slower
        mut = ct_r_mid.take(m1, axis=1)
        for g, kg in zip(funcs_g, kg_all):
            single = B.subset(kfu, kg)
            rhs = single[:, None] & single[None, :]
            if not corrupted:
                rhs = rhs & B.subset(mut, kg)
            hit = _first_false(B.subset(kfu_un, kg) == rhs)
            if hit is not None:
                return {"R": hit[0], "S": hit[1], "f": f, "g": int(g)}
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


def _join_violation(prem1, prem2, conc1, conc2):
    """First (R, S, g, h), R and S outermost, with prem1[R,S,g] and
    prem2[R,S,h] but not both conc1[R,S,g] and conc2[R,S,h], or None.

    Each argument is a boolean (R|1, S|1, g|h) array; an axis of length 1
    broadcasts.  Among the (g, h) of the first violated (R, S), the first g
    breaking conc1 is preferred, paired with the first h meeting prem2;
    failing that, the first g meeting prem1 with the first h breaking conc2.
    """
    bad1 = (prem1 & ~conc1).any(axis=2)
    bad2 = (prem2 & ~conc2).any(axis=2)
    any1 = prem1.any(axis=2)
    any2 = prem2.any(axis=2)
    viol = (bad1 & any2) | (bad2 & any1)
    hit = _first_false(~viol)
    if hit is None:
        return None
    p1, p2, c1, c2 = (np.broadcast_to(t, viol.shape + t.shape[2:])[hit]
                      for t in (prem1, prem2, conc1, conc2))
    g_bad = p1 & ~c1
    if g_bad.any() and p2.any():
        return (*hit, int(np.argmax(g_bad)), int(np.argmax(p2)))
    return (*hit, int(np.argmax(p1)), int(np.argmax(p2 & ~c2)))


def _sweep_join_fd_typing(sz: dict,
                          corrupted: bool = False) -> Optional[dict]:
    """Premises p1[R,g] = f -> g on R and p2[S,h] = f -> h on S; the
    conclusion f -> gxh on fork(R,S) is factored as ok1[R,S,g] and
    ok2[R,S,h].  The corrupted rule swaps premises and conclusion."""
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
    kg_all = B.kernel_table(b, gg)[funcs_g]
    kh_all = B.kernel_table(c, hh)[funcs_h]
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
        kfr = ker_bf[ct_f_cr[f, conv_ab]]
        kfs = ker_cf[ct_f_cs[f, conv_ac]]
        p1 = B.subset(kfr[:, None, None], kg_all[None, None, :])
        p2 = B.subset(kfs[None, :, None], kh_all[None, None, :])
        mid1 = ct_aaa[ct_aaa[dom_ac, kf], dom_ac]
        l1 = ct_rm_cr[ct_r_mid[rm[:, None], mid1[None, :]],
                      conv_ab[rm][:, None]]
        mid2 = ct_aaa[ct_aaa[dom_ab, kf], dom_ab]
        l2 = ct_sm_cs[ct_s_mid[sm[None, :], mid2[:, None]],
                      conv_ac[sm][None, :]]
        ok1 = B.subset(l1[:, :, None], kg_all[None, None, :])
        ok2 = B.subset(l2[:, :, None], kh_all[None, None, :])
        terms = (ok1, ok2, p1, p2) if corrupted else (p1, p2, ok1, ok2)
        hit = _join_violation(*terms)
        if hit is not None:
            ri, si, gi, hi = hit
            return {"R": ri, "S": si, "f": int(f),
                    "g": int(funcs_g[gi]), "h": int(funcs_h[hi])}
    return None


# ---------------------------------------------------------------------------
# Registry


def _law(law_id, summary, variables, holds, sweep) -> Law:
    return Law(law_id, summary, tuple(LawVariable(*v) for v in variables),
               holds, sweep)


LAW_REGISTRY: dict[str, Law] = {
    law.law_id: law
    for law in (
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
    )
}

# The sound laws, in report order; the corrupted laws stay out of the suite.
LAW_SUITE: tuple[str, ...] = (
    "converse_of_compose",
    "converse_involution",
    "shunt_function_left",
    "shunt_function_right",
    "injectivity_galois",
    "fd_trading",
    "union_injectivity",
    "fork_least_upper_bound",
    "fd_consequent_pairing",
    "union_fd_typing",
    "mutual_dependency_self",
    "join_fd_typing",
)


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
