"""Known answers computed without relfd.

Every expected verdict the benchmark holds relfd to comes from the input
generator's construction or from one of the few-line references below.
Nothing here imports relfd: the references read the generated files and the
JSON relfd prints, so a defect shared by relfd's routes cannot hide here.

Each `check_*` function returns None when the answer is accepted and a short
reason string when it is rejected.
"""

from __future__ import annotations

import csv
import json
import re

# ---------------------------------------------------------------------------
# Tables and FDs


def read_csv(path: str) -> tuple[list[str], set[tuple[str, ...]]]:
    """Header and the set of stored rows (duplicates collapse)."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = [r for r in csv.reader(fh) if r]
    return records[0], {tuple(r) for r in records[1:]}


def parse_attrs(text: str) -> frozenset:
    return frozenset(n for n in re.split(r"[,\s]+", text.strip()) if n)


def parse_fd(text: str) -> tuple[frozenset, frozenset]:
    lhs, rhs = text.split("->")
    return parse_attrs(lhs), parse_attrs(rhs)


def fd_holds(header, rows, lhs, rhs) -> bool:
    """Rows that agree on lhs agree on rhs: one pass with a dictionary."""
    xs = [header.index(a) for a in sorted(lhs)]
    ys = [header.index(a) for a in sorted(rhs)]
    seen: dict = {}
    for row in rows:
        key = tuple(row[i] for i in xs)
        val = tuple(row[i] for i in ys)
        if seen.setdefault(key, val) != val:
            return False
    return True


def check_fd_witness(header, rows, lhs, rhs, witness) -> str | None:
    """A refutation must be two stored rows agreeing on lhs, not on rhs."""
    if not isinstance(witness, list) or len(witness) != 2:
        return "witness is not a pair of rows"
    r1, r2 = (tuple(r) if isinstance(r, list) else None for r in witness)
    if r1 not in rows or r2 not in rows:
        return "witness row is not a stored row"
    xs = [header.index(a) for a in lhs]
    ys = [header.index(a) for a in rhs]
    if any(r1[i] != r2[i] for i in xs):
        return "witness rows differ on the antecedent"
    if all(r1[i] == r2[i] for i in ys):
        return "witness rows agree on the consequent"
    return None


def check_table_verdicts(header, rows, expected, payload) -> str | None:
    """`relfd check --json` output against the planted verdicts."""
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, list) or len(results) != len(expected):
        return "wrong number of FD results"
    for exp, got in zip(expected, results):
        lhs, rhs = frozenset(exp["lhs"]), frozenset(exp["rhs"])
        if parse_fd(got["fd"]) != (lhs, rhs):
            return f"result for {got['fd']!r} out of order"
        if got["holds"] is not exp["holds"]:
            return f"wrong verdict on {got['fd']}"
        if not exp["holds"]:
            reason = check_fd_witness(header, rows, lhs, rhs, got["witness"])
            if reason:
                return reason
    return None


# ---------------------------------------------------------------------------
# Inference


def closure(fds, attrs) -> frozenset:
    """Naive fixpoint: add every consequent whose antecedent is covered."""
    out = set(attrs)
    grew = True
    while grew:
        grew = False
        for lhs, rhs in fds:
            if lhs <= out and not rhs <= out:
                out |= rhs
                grew = True
    return frozenset(out)


def derivable(fds, lhs, rhs) -> bool:
    return rhs <= closure(fds, lhs)


_RULES = {
    "Axiom": 0, "Reflexivity": 0, "Consequence": 1, "Projectivity": 1,
    "Composition": 2, "Additivity": 2,
}


def check_derivation(tree, fds, goal) -> str | None:
    """Replay a proof tree: every node must follow from its premises."""
    axioms = set(fds)
    if not isinstance(tree, dict) or parse_fd(tree["conclusion"]) != goal:
        return "derivation does not conclude the goal"
    stack = [tree]
    while stack:
        node = stack.pop()
        x, y = parse_fd(node["conclusion"])
        rule, prem = node["rule"], node["premises"]
        if _RULES.get(rule) != len(prem):
            return f"bad {rule} node"
        ps = [parse_fd(p["conclusion"]) for p in prem]
        ok = {
            "Axiom": lambda: (x, y) in axioms,
            "Reflexivity": lambda: x == y,
            "Consequence": lambda: ps[0][0] <= x and y <= ps[0][1],
            "Projectivity": lambda: ps[0][0] == x and y <= ps[0][1],
            "Composition": lambda: (ps[0][0] == x and ps[0][1] == ps[1][0]
                                    and ps[1][1] == y),
            "Additivity": lambda: (ps[0][0] == x == ps[1][0]
                                   and y == ps[0][1] | ps[1][1]),
        }[rule]()
        if not ok:
            return f"{rule} step to {node['conclusion']!r} does not follow"
        stack.extend(prem)
    return None


def check_counter_table(table, fds, goal) -> str | None:
    """A counterexample table satisfies every axiom and violates the goal,
    by the literal two-row loop over its rows."""
    if not isinstance(table, dict):
        return "no counterexample table"
    header = [a["name"] for a in table["attributes"]]
    rows = [tuple(r) for r in table["rows"]]
    attrs = set(header)
    for lhs, rhs in list(fds) + [goal]:
        if not (lhs | rhs) <= attrs:
            return "table lacks an attribute of the FDs"

    def holds(lhs, rhs):
        xs = [header.index(a) for a in lhs]
        ys = [header.index(a) for a in rhs]
        return all(any(r1[i] != r2[i] for i in xs)
                   or all(r1[i] == r2[i] for i in ys)
                   for r1 in rows for r2 in rows)

    if not all(holds(lhs, rhs) for lhs, rhs in fds):
        return "counterexample table violates an axiom"
    if holds(*goal):
        return "counterexample table satisfies the goal"
    return None


# ---------------------------------------------------------------------------
# Self-join rewrite


def render(values) -> str:
    """relfd's rendering of a row or sub-row value: (v1,v2,...)."""
    return "(" + ",".join(values) + ")"


def project(header, attrs, row) -> str:
    return render(v for a, v in zip(header, row) if a in attrs)


def window_sets(header, rows, f, g, h) -> tuple[set, set]:
    """The window `g . pid . ker f . pid . h~` and its rewrite `g . pid . h~`
    as sets of (h value, g value) pairs, by comprehension over stored rows."""
    classes: dict = {}
    for r in rows:
        hv, gv = project(header, h, r), project(header, g, r)
        classes.setdefault(project(header, f, r), []).append((hv, gv))
    window = {(hv, gv) for pairs in classes.values()
              for _, gv in pairs for hv, _ in pairs}
    rewrite = {p for pairs in classes.values() for p in pairs}
    return window, rewrite


def query_relation(template, header, rows, inner, params) -> set:
    """The whole query's (input, output) pairs, given its window's pairs."""
    if template in ("alone", "union"):
        return set(inner)
    if template == "converse":
        return {(b, a) for a, b in inner}
    by_h: dict = {}
    for hv, gv in inner:
        by_h.setdefault(hv, set()).add(gv)
    if template == "chain":
        return {(render(r), gv) for r in rows
                for gv in by_h.get(project(header, params["h"], r), ())}
    if template == "fork":
        side = {(project(header, params["h"], r),
                 project(header, params["k"], r)) for r in rows}
        return {(hv, f"({gv},{kv})") for hv, kv in side
                for gv in by_h.get(hv, ())}
    raise ValueError(f"unknown template {template!r}")


def canon_query(node):
    """Hashable form of a query with composition chains flattened."""
    op = node["op"]
    if op == "compose":
        items = []
        for arg in node["args"]:
            c = canon_query(arg)
            items.extend(c[1] if c[0] == "compose" else [c])
        return ("compose", tuple(items))
    if op in ("converse", "kernel"):
        return (op, canon_query(node["arg"]))
    if op in ("union", "fork"):
        return (op, tuple(canon_query(a) for a in node["args"]))
    if op == "proj":
        return (op, node["scheme"], tuple(sorted(node["attrs"])))
    if op == "pid":
        return (op, node["table"])
    return (op, node.get("name"))


def check_optimize(expect, header, rows, payload) -> str | None:
    """`relfd optimize --json` output against the comprehension answer."""
    if canon_query(payload["query"]) != canon_query(expect["query_out"]):
        return "rewritten query differs from the expected rewrite"
    ver = payload["verification"] or {}
    if expect["equal"]:
        return None if ver.get("status") == "verified" else "not verified"
    if ver.get("status") != "counterexample":
        return "unsound rewrite reported as verified"
    p = expect["params"]
    window, rewrite = window_sets(header, rows, *(p[k] for k in "fgh"))
    before = query_relation(expect["template"], header, rows, window, p)
    after = query_relation(expect["template"], header, rows, rewrite, p)
    if tuple(ver.get("witness") or ()) not in before ^ after:
        return "counterexample pair is in both or neither query"
    return None


# ---------------------------------------------------------------------------
# Corrupted laws: pointwise evaluation on pair sets


def _rel(obj) -> tuple[list, set]:
    key = lambda v: json.dumps(v, sort_keys=True)  # noqa: E731
    return ([key(v) for v in obj["source"]["elements"]],
            {(key(a), key(b)) for a, b in obj["pairs"]})


def _fn(obj) -> dict | None:
    src, pairs = _rel(obj)
    out = dict(pairs)
    return out if len(out) == len(pairs) == len(src) else None


def _compose(r, s):  # r . s: apply s first
    return {(c, b) for c, a in s for a2, b in r if a == a2}


def _kernel(r):
    return {(a, a2) for a, b in r for a2, b2 in r if b == b2}


def _leq(r, s):
    return _kernel(s) <= _kernel(r)


def _fork(r, s):
    return {(c, (a, b)) for c, a in r for c2, b in s if c == c2}


def _fd(r, f, g):
    """f -> g on r, by the literal quantifier over pairs of r's pairs."""
    return all(g(b) == g(b2) for a, b in r for a2, b2 in r if f(a) == f(a2))


def _law_holds(law_id, w) -> bool:
    if law_id == "galois_corrupted":
        f, r, s = w["f"], w["R"][1], w["S"][1]
        fr = {(a, b) for a, b in f.items()}
        return _leq(_compose(r, fr), s) == _leq(r, _compose(s, fr))
    if law_id == "fork_lub_corrupted":
        r, s, t = w["R"][1], w["S"][1], w["T"][1]
        return _leq(_fork(r, s), t) == _leq(r, t)
    f = w["f"].__getitem__
    g = w["g"].__getitem__
    if law_id == "union_typing_corrupted":
        r, s = w["R"][1], w["S"][1]
        return _fd(r | s, f, g) == (_fd(r, f, g) and _fd(s, f, g))
    if law_id == "join_converse_corrupted":
        r, s, h = w["R"][1], w["S"][1], w["h"].__getitem__
        conclusion = _fd(_fork(r, s), f, lambda p: (g(p[0]), h(p[1])))
        return (not conclusion) or (_fd(r, f, g) and _fd(s, f, h))
    raise ValueError(f"no reference for law {law_id!r}")


FUNCTION_VARIABLES = {"f", "g", "h"}  # the corrupted laws' functions


def check_law_witness(law_id, witness) -> str | None:
    """A corrupted law's witness must make the law's statement false."""
    if not isinstance(witness, dict) or not witness:
        return "no witness for a corrupted law"
    w = {}
    for name, obj in witness.items():
        if name in FUNCTION_VARIABLES:
            w[name] = _fn(obj)
            if w[name] is None:
                return f"witness {name} is not a total function"
        else:
            w[name] = _rel(obj)
    try:
        holds = _law_holds(law_id, w)
    except KeyError as err:
        return f"witness lacks variable {err}"
    return "law holds on the witness" if holds else None
