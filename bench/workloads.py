"""Seeded input generators for the three workloads.

`generate(name, seed, seconds, workdir)` writes one run's input files into
`workdir` and returns the request list plus a summary of the inputs.  The
same seed gives the same files and requests.  Each request carries its known
answer, taken from the generator's construction or from `reference`; relfd
computes none of them.

A pass issues a fixed number of requests, `seconds` times the workload's
nominal rate (measured on a 2-vCPU machine against relfd 0.1.0), so that one
pass over them lasts about `seconds` there. The count, not the clock, ends
the loop: peak memory and cache behaviour then compare across program
versions, and the tail percentile is the same on every run. The request mix
is a fixed cycle of request kinds; the seed draws the tables, dependencies
and queries inside it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
from collections import Counter

import reference as ref

FIXTURES = os.path.join("tests", "fixtures")

# Requests per second of pass time for relfd 0.1.0 on a 2-vCPU machine; sets
# the request count.
NOMINAL_RATE = {"check": 4.2, "optimize": 7.0, "refute": 10.0}

WORKLOADS = {
    "check": {
        "why": "the most-run path: loads tables, fd and rel, bypasses "
               "infer/search/laws/query; distinct schemes miss the caches",
        "sizes": "tables of 3-5 attributes, row universes 2e2-1.3e3, "
                 "2-3 planted FDs each with a one-attribute consequent "
                 "(det -> d and a wider antecedent -> d that hold, X -> y "
                 "that fails), families of 2 versions sharing a schema "
                 "sidecar; pilots and movies fixtures; 2 malformed inputs "
                 "per 21-request cycle",
    },
    "optimize": {
        "why": "the only query workload: long composition chains in rel, "
               "no FD routes; each table is queried 4 times so the "
               "scheme-keyed caches hit",
        "sizes": "movies-shaped tables of 3-4 attributes, universes "
                 "5e2-1e3; the self-join window alone, in chains and under "
                 "union, fork and converse; movies fixtures; missing-key "
                 "queries and a wrong-arity table",
    },
    "refute": {
        "why": "data-free reasoning: infer, search, laws and bitrel do the "
               "work, the table bridge and query almost none",
        "sizes": "closure, derive and two-row witnesses on FD sets of "
                 "10-500 attributes; cex at --scope-rows 2-5 on 4-5 "
                 "attributes; laws at carrier 2, laws at carrier 3 once "
                 "per 15 s of a pass; the 4 corrupted laws at carrier 3",
    },
}

SOUND_LAWS = (
    "converse_of_compose", "converse_involution", "shunt_function_left",
    "shunt_function_right", "injectivity_galois", "fd_trading",
    "union_injectivity", "fork_least_upper_bound", "fd_consequent_pairing",
    "union_fd_typing", "mutual_dependency_self", "join_fd_typing",
)
CORRUPTED_LAWS = ("galois_corrupted", "fork_lub_corrupted",
                  "union_typing_corrupted", "join_converse_corrupted")


def request_count(name: str, seconds: float) -> int:
    return max(8, round(seconds * NOMINAL_RATE[name]))


def generate(name: str, seed: int, seconds: float, workdir: str,
             root: str = ".") -> tuple[list[dict], dict]:
    os.makedirs(workdir, exist_ok=True)
    gen = {"check": CheckGen, "optimize": OptimizeGen,
           "refute": RefuteGen}[name](seed, workdir, root)
    requests = gen.build(request_count(name, seconds), seconds)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests, gen.summary(requests)


def fmt_fd(lhs, rhs) -> str:
    return " ".join(sorted(lhs)) + " -> " + " ".join(sorted(rhs))


class _Gen:
    def __init__(self, seed: int, workdir: str, root: str):
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.dir = workdir
        self.root = root
        self.files = 0
        self.schemes_seen: set = set()
        self.raw_rows: dict = {}  # table path -> data records written

    def path(self, suffix: str) -> str:
        self.files += 1
        return os.path.join(self.dir, f"in{self.files:04d}{suffix}")

    def write(self, suffix: str, text: str) -> str:
        p = self.path(suffix)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    def write_csv(self, header, rows, extra_lines=()) -> str:
        lines = [",".join(header)] + [",".join(r) for r in rows]
        lines.extend(extra_lines)
        p = self.write(".csv", "\n".join(lines) + "\n")
        self.raw_rows[p] = len(lines) - 1
        return p

    def fixture(self, name: str) -> str:
        src = os.path.join(self.root, FIXTURES, name)
        dst = self.path("_" + name)
        shutil.copyfile(src, dst)
        if name.endswith(".csv"):
            with open(dst, encoding="utf-8") as fh:
                self.raw_rows[dst] = sum(1 for line in fh if line.strip()) - 1
        return dst

    def seen(self, scheme) -> bool:
        hit = scheme in self.schemes_seen
        self.schemes_seen.add(scheme)
        return hit

    def summary(self, requests) -> dict:
        with_scheme = [r for r in requests if "seen" in r]
        graded = [v for r in requests for v in r.get("refuted", ())]
        return {
            "requests": len(requests),
            "kinds": dict(Counter(r["op"] for r in requests)),
            "malformed": sum(1 for r in requests if r.get("malformed")),
            "scheme_seen_share": round(
                sum(r["seen"] for r in with_scheme) / len(with_scheme), 4)
            if with_scheme else None,
            "expected_refuted_share": round(sum(graded) / len(graded), 4)
            if graded else None,
            "raw_rows": self.raw_rows,
        }


def _domain_sizes(target: int, n: int) -> list[int]:
    """n domain sizes of at least 2 whose product is near `target`."""
    sizes = [max(2, int(target ** (1 / n)))] * n
    for i in itertools.cycle(range(n)):
        grown = math.prod(sizes) // sizes[i] * (sizes[i] + 1)
        if grown > target * 1.1:
            return sizes
        sizes[i] += 1


# ---------------------------------------------------------------------------
# check


class _Planted:
    """A scheme with planted dependencies: each determined attribute is a
    fixed function of 1-2 free attributes, so `det -> d` holds on every
    table drawn from it.

    Which attribute plays which role, and so every size the routes see, is
    fixed by (target, n); the seed draws the functions, the rows, the
    violation positions and the column order.  Every table holds the
    diagonal rows (free value j mod |domain| for j up to the largest free
    domain), and each function maps those rows onto its whole range first,
    so every declared value occurs and a table's active domains, and thus
    its universe, do not depend on the seed."""

    def __init__(self, rng, tag: str, target: int, n: int, extra: bool):
        self.rng = rng
        roles = [f"{tag}{chr(65 + i)}" for i in range(n)]
        self.domains = {a: [f"{a.lower()}{v}" for v in range(k)]
                        for a, k in zip(roles, sorted(_domain_sizes(target,
                                                                    n)))}
        n_det = 1 if n < 5 else 2
        self.determined = roles[:n_det]
        self.free = roles[n_det:]
        self.names = rng.sample(roles, n)  # column order
        self.radix = [len(self.domains[a]) for a in self.free]
        self.diagonal = sorted({sum(j % r * math.prod(self.radix[:i])
                                    for i, r in enumerate(self.radix))
                                for j in range(max(self.radix))})
        self.det_of = {}
        self.fn = {}
        for i, d in enumerate(self.determined):
            det = tuple(self.free[i:2 * i + 1])
            self.det_of[d] = det
            rng_d = rng.sample(self.domains[d], len(self.domains[d]))
            fn = self.fn[d] = {}
            for idx in self.diagonal:  # onto the whole range first
                c = tuple(self.decode(idx)[a] for a in det)
                fn.setdefault(c, rng_d[len(fn) % len(rng_d)])
            for c in itertools.product(*(self.domains[a] for a in det)):
                fn.setdefault(c, rng.choice(self.domains[d]))
        self.declared = {a: list(v) for a, v in self.domains.items()}
        if extra:  # declared values that never occur in the data
            a = max(self.names, key=lambda a: len(self.domains[a]))
            self.declared[a].append(f"{a.lower()}unused")
        self.drawn = 0  # FD files drawn so far
        self.universe = math.prod(len(v) for v in self.declared.values())
        # distinct rows the planted FDs allow: the free attributes' product
        self.row_bound = math.prod(len(self.domains[a]) for a in self.free)

    def complete(self, free_values: dict) -> tuple:
        vals = dict(free_values)
        for d in self.determined:
            vals[d] = self.fn[d][tuple(vals[a] for a in self.det_of[d])]
        return tuple(vals[a] for a in self.names)

    def decode(self, idx: int) -> dict:
        """Free values of row number `idx` (mixed radix) of the free product."""
        free = {}
        for a, r in zip(self.free, self.radix):
            idx, v = divmod(idx, r)
            free[a] = self.domains[a][v]
        return free

    def rows(self, density: float) -> list[tuple]:
        """The diagonal plus random rows, `density` of `row_bound` in all."""
        k = min(self.row_bound, max(len(self.diagonal),
                                    round(density * self.row_bound)))
        diagonal = set(self.diagonal)
        rest = [i for i in range(self.row_bound) if i not in diagonal]
        picked = self.diagonal + self.rng.sample(rest, k - len(diagonal))
        return [self.complete(self.decode(idx)) for idx in picked]

    def violate(self, rows: list, y: str, position: float) -> None:
        """Add a row equal to the row at `position` (share of the sorted
        order) on every free attribute but y, and differing on y."""
        ordered = sorted(rows, key=ref.render)
        base = ordered[min(len(ordered) - 1, int(position * len(ordered)))]
        vals = dict(zip(self.names, base))
        vals[y] = self.rng.choice([v for v in self.domains[y] if v != vals[y]])
        rows.append(self.complete({a: vals[a] for a in self.free}))

    def fds(self, rows: list) -> list[dict]:
        """2-3 FDs, planted to hold or planted to fail, in random order."""
        self.drawn += 1
        d = self.determined[self.drawn % len(self.determined)]
        det = list(self.det_of[d])
        out = [{"lhs": det, "rhs": [d], "holds": True}]
        y = self.free[self.drawn % len(self.free)]
        others = [a for a in self.free if a != y]
        lhs = others[:1 + self.drawn % 2]
        self.violate(rows, y, POSITIONS[self.drawn % len(POSITIONS)])
        out.append({"lhs": sorted(lhs), "rhs": [y], "holds": False})
        if self.drawn % 2:
            wider = det + [next(a for a in self.free if a not in det)]
            out.append({"lhs": wider, "rhs": [d], "holds": True})
        self.rng.shuffle(out)
        return out


POSITIONS = (0.1, 0.5, 0.9, 0.3, 0.7)  # planted violations, share of rows
# Slots of the check cycle: ("family", universe, attributes) is 2 versions
# of one table sharing a sidecar, ("table", universe, attributes) one table
# with active domains, ("declared", ...) one table with a sidecar.  A cycle
# is 21 requests, a pass at --seconds 30 3 cycles.  Cost grows with the
# universe, so the sizes come in bands, and the band sizes put the median and
# tail inside a band of similar requests rather than on the edge between two:
# 3 fixtures or malformed inputs, 11 requests at 2e2-3e2 (the median falls
# among them), 2 at 3.5e2-4e2, 4 at 4e2-8e2 (the tail falls among them) and
# one 1.3e3 table (above the tail).
CHECK_CYCLE = (
    ("family", 200, 4), ("table", 300, 3), ("family", 800, 3),
    ("family", 420, 5), ("table", 250, 4), ("family", 270, 3), ("malformed",),
    ("fixture",), ("table", 220, 5), ("family", 240, 5), ("table", 350, 5),
    ("table", 280, 3), ("fixture",), ("table", 400, 4), ("table", 230, 4),
    ("declared", 1300, 3),
)
DENSITIES = (0.08, 0.2, 0.45, 0.7)  # stored rows / rows the FDs allow
CHECK_FIXTURES = (("pilots.csv", None, "pilots.fds"),
                  ("pilots_double_booked.csv", None, "pilots.fds"),
                  ("movies.csv", "movies.schema.json", "movies.fds"),
                  ("movies_violating.csv", "movies.schema.json",
                   "movies.fds"))


class CheckGen(_Gen):
    def build(self, count: int, seconds: float) -> list[dict]:
        out: list[dict] = []
        fixtures = itertools.cycle(CHECK_FIXTURES)
        malformed = itertools.cycle(("arity", "unknown_attr"))
        families = itertools.count()
        for i, slot in enumerate(itertools.cycle(CHECK_CYCLE)):
            if len(out) >= count:
                break
            at = i % len(CHECK_CYCLE)
            if slot[0] == "family":
                out += self.family(f"F{i}", *slot[1:], at, versions=2,
                                   sidecar=True,
                                   extra=next(families) % 2 == 0)
            elif slot[0] in ("table", "declared"):
                out += self.family(f"T{i}", *slot[1:], at, versions=1,
                                   sidecar=slot[0] == "declared", extra=False)
            elif slot[0] == "fixture":
                out.append(self.fixture_request(*next(fixtures)))
            else:
                out.append(self.malformed(next(malformed)))
        return out[:count]

    def family(self, tag, target, n, at, versions, sidecar,
               extra) -> list[dict]:
        """Tables drawn from one planted scheme.  Density and duplicates
        follow the slot's position `at` in the cycle, so a slot costs the
        same in every cycle and for every seed."""
        rng = self.rng
        planted = _Planted(rng, tag, target, n, extra=extra)
        schema = (self.write(".schema.json", json.dumps(planted.declared))
                  if sidecar else None)
        out = []
        for k in range(at, at + versions):
            # active domains need most values present, so no sparse table
            # goes without a sidecar
            densities = DENSITIES if sidecar else DENSITIES[1:]
            rows = planted.rows(densities[k % len(densities)])
            fds = planted.fds(rows)
            header = planted.names
            stored = set(rows)
            for fd in fds:  # the construction, re-checked by the reference
                if ref.fd_holds(header, stored, fd["lhs"], fd["rhs"]) \
                        != fd["holds"]:
                    raise AssertionError(f"planted FD {fd} not as built")
            body = sorted(stored)
            rng.shuffle(body)
            if k % 3 == 0:  # duplicate rows, dropped at load
                body += rng.sample(body, max(1, len(body) // 20))
                rng.shuffle(body)
            table = self.write_csv(header, body)
            declared = (planted.declared if sidecar else
                        {a: sorted({r[i] for r in stored})
                         for i, a in enumerate(header)})
            scheme = json.dumps(declared, sort_keys=True)
            out.append(self.check_request(table, schema, fds,
                                          self.seen(scheme)))
        return out

    def check_request(self, table, schema, fds, seen) -> dict:
        fd_file = self.write(".fds", "".join(
            fmt_fd(fd["lhs"], fd["rhs"]) + "\n" for fd in fds))
        argv = ["check", "--json", "--table", table, "--fds", fd_file]
        if schema:
            argv += ["--schema", schema]
        refuted = [not fd["holds"] for fd in fds]
        return {"op": "check", "argv": argv, "seen": seen,
                "refuted": refuted,
                "expect": {"exit": 1 if any(refuted) else 0, "table": table,
                           "fds": fds}}

    def fixture_request(self, csv_name, schema_name, fds_name) -> dict:
        table = self.fixture(csv_name)
        schema = self.fixture(schema_name) if schema_name else None
        header, rows = ref.read_csv(table)
        with open(self.fixture(fds_name), encoding="utf-8") as fh:
            lines = [ln.split("#")[0].strip() for ln in fh]
        fds = []
        for ln in filter(None, lines):
            lhs, rhs = ref.parse_fd(ln)
            fds.append({"lhs": sorted(lhs), "rhs": sorted(rhs),
                        "holds": ref.fd_holds(header, rows, lhs, rhs)})
        return self.check_request(table, schema, fds,
                                  self.seen((csv_name, schema_name)))

    def malformed(self, kind: str) -> dict:
        planted = _Planted(self.rng, "M", 60, 3, extra=False)
        rows = planted.rows(0.5)
        header = planted.names
        if kind == "arity":
            table = self.write_csv(header, rows[1:],
                                   [",".join(rows[0][:-1])])
            fd_line = fmt_fd(header[:1], header[1:2])
        else:
            table = self.write_csv(header, rows)
            fd_line = fmt_fd(["Unknown"], header[:1])
        fd_file = self.write(".fds", fd_line + "\n")
        return {"op": "check", "malformed": kind, "expect": {"exit": 2},
                "argv": ["check", "--json", "--table", table,
                         "--fds", fd_file]}


# ---------------------------------------------------------------------------
# optimize


def q_proj(table, attrs):
    return {"op": "proj", "scheme": table, "attrs": sorted(attrs)}


def q_pid(table):
    return {"op": "pid", "table": table}


def q_compose(*args):
    return {"op": "compose", "args": list(args)}


def q_conv(arg):
    return {"op": "converse", "arg": arg}


def window(t, f, g, h, rewritten: bool) -> list:
    """The chain `g . pid . ker f . pid . h~`, or its rewrite."""
    if rewritten:
        return [q_proj(t, g), q_pid(t), q_conv(q_proj(t, h))]
    return [q_proj(t, g), q_pid(t), {"op": "kernel", "arg": q_proj(t, f)},
            q_pid(t), q_conv(q_proj(t, h))]


def template_query(template, t, p, rewritten: bool) -> dict:
    w = window(t, p["f"], p["g"], p["h"], rewritten)
    if template == "alone":
        return q_compose(*w)
    if template == "chain":
        return q_compose(q_proj(t, p["g"]), q_conv(q_proj(t, p["g"])), *w,
                         q_proj(t, p["h"]), q_pid(t))
    if template == "union":
        return {"op": "union", "args": [
            q_compose(*w), q_compose(*window(t, p["f"], p["g"], p["h"],
                                             True))]}
    if template == "fork":
        side = q_compose(q_proj(t, p["k"]), q_pid(t), q_conv(q_proj(t, p["h"])))
        return {"op": "fork", "args": [q_compose(*w), side]}
    if template == "converse":
        return q_conv(q_compose(*w))
    raise ValueError(template)


TEMPLATES = ("alone", "chain", "union", "fork", "converse")
QUERIES_PER_TABLE = 4
# (universe target, attributes) per table, cycled.  The sizes sit in one
# band so that the first, cold query on each table (about 19 a pass) forms
# the top of the latency distribution and the tail percentile falls inside
# that group rather than on the edge between two size classes.
OPTIMIZE_CYCLE = ((700, 3), (600, 4), (900, 3), (500, 4))
MISSING_KEY = {
    "arg": {"op": "kernel"},
    "scheme": {"op": "proj", "attrs": ["Title"]},
    "name": {"op": "rel"},
}


class OptimizeGen(_Gen):
    def build(self, count: int, seconds: float) -> list[dict]:
        out: list[dict] = []
        fixtures = itertools.cycle(("movies.csv", "movies_violating.csv"))
        malformed = itertools.cycle(("arg", "scheme", "name", "arity"))
        templates = itertools.cycle(TEMPLATES)
        for i, (target, n) in enumerate(itertools.cycle(OPTIMIZE_CYCLE)):
            if len(out) >= count:
                break
            out += self.table_requests(i, target, n, templates)
            out.append(self.fixture_request(next(fixtures)))
            if i % 2 == 1:
                out.append(self.malformed(next(malformed)))
        return out[:count]

    def table_requests(self, i, target, n, templates) -> list[dict]:
        rng, tag = self.rng, f"M{i}"
        names = ["Title", "Director", "Actor", "Studio"][:n]
        sizes = _domain_sizes(target, n)
        dom = {a: [f"{tag.lower()}{a[0].lower()}{v}" for v in range(k)]
               for a, k in zip(names, sizes)}
        f, h = ["Title"], ["Actor"]
        g = ["Director", "Studio"] if n == 4 and i % 4 < 2 else ["Director"]
        k = ["Studio"] if n == 4 else ["Director"]
        satisfies = i % 2 == 0
        free = [a for a in names if a not in g]
        fn = {}
        rows = set()
        bound = math.prod(len(dom[a]) for a in free)
        want = min(bound, max(6, round((0.1, 0.3, 0.6)[i % 3] * bound)))
        while len(rows) < want:
            vals = {a: rng.choice(dom[a]) for a in free}
            for a in g:
                vals[a] = fn.setdefault((a, vals["Title"]),
                                        rng.choice(dom[a]))
            rows.add(tuple(vals[a] for a in names))
        rows = sorted(rows)
        if not satisfies:  # one row breaks Title -> g
            base = dict(zip(names, rng.choice(rows)))
            base[g[0]] = rng.choice([v for v in dom[g[0]]
                                     if v != base[g[0]]])
            rows.append(tuple(base[a] for a in names))
        rng.shuffle(rows)
        table = self.write_csv(names, rows)
        schema = self.write(".schema.json", json.dumps(dom))
        header, stored = ref.read_csv(table)
        params = {"f": f, "g": g, "h": h, "k": k}
        out = []
        for j in range(QUERIES_PER_TABLE):
            if j < 3:  # enabling, through f -> g or f -> h
                fds = [(f, (g, h)[(i + j) % 2])]
            else:
                fds = [(g, f), (h, k)]
            out.append(self.request(next(templates), "movies", table, schema,
                                    header, stored, params, fds, seen=j > 0))
        return out

    def request(self, template, t, table, schema, header, stored, params,
                fds, seen) -> dict:
        query = template_query(template, t, params, rewritten=False)
        fd_sets = [(frozenset(a), frozenset(b)) for a, b in fds]
        f, g, h = (frozenset(params[x]) for x in "fgh")
        enabled = (ref.derivable(fd_sets, f, g)
                   or ref.derivable(fd_sets, f, h))
        equal = True
        out = query
        if enabled:
            out = template_query(template, t, params, rewritten=True)
            w, w2 = ref.window_sets(header, stored, f, g, h)
            equal = (ref.query_relation(template, header, stored, w, params)
                     == ref.query_relation(template, header, stored, w2,
                                           params))
        qpath = self.write(".query.json", json.dumps(query))
        fd_file = self.write(".fds", "".join(fmt_fd(a, b) + "\n"
                                             for a, b in fds))
        return {"op": "optimize", "seen": seen,
                "refuted": [not equal] if enabled else [],
                "argv": ["optimize", "--json", "--query", qpath, "--fds",
                         fd_file, "--table", table, "--schema", schema],
                "expect": {"exit": 0 if equal else 1, "table": table,
                           "template": template, "params": params,
                           "query_out": out, "equal": equal}}

    def fixture_request(self, csv_name) -> dict:
        table = self.fixture(csv_name)
        schema = self.fixture("movies.schema.json")
        qpath = self.fixture("movies_query.json")
        fds = self.fixture("movies.fds")
        with open(qpath, encoding="utf-8") as fh:
            query = json.load(fh)
        params = {"f": ["Title"], "g": ["Director"], "h": ["Actor"]}
        if ref.canon_query(query) != ref.canon_query(
                template_query("alone", "movies", params, False)):
            raise ValueError("movies_query.json is no longer the bare "
                             "self-join window this workload expects")
        with open(fds, encoding="utf-8") as fh:
            fd_sets = [ref.parse_fd(ln.split("#")[0]) for ln in fh
                       if ln.split("#")[0].strip()]
        header, stored = ref.read_csv(table)
        req = self.request("alone", "movies", table, schema, header, stored,
                           params, [(sorted(a), sorted(b))
                                    for a, b in fd_sets],
                           seen=self.seen(csv_name))
        req["argv"][req["argv"].index("--fds") + 1] = fds
        return req

    def malformed(self, kind: str) -> dict:
        table = self.fixture("movies.csv")
        schema = self.fixture("movies.schema.json")
        query = template_query("alone", "movies", {
            "f": ["Title"], "g": ["Director"], "h": ["Actor"]}, False)
        if kind == "arity":
            with open(table, encoding="utf-8") as fh:
                text = fh.read()
            table = self.write_csv(["Title", "Director", "Actor"], [],
                                   [text.splitlines()[1] + ",extra"])
        else:
            query["args"][2] = MISSING_KEY[kind]
        qpath = self.write(".query.json", json.dumps(query))
        fd_file = self.write(".fds", "Title -> Director\n")
        return {"op": "optimize", "malformed": kind, "expect": {"exit": 2},
                "argv": ["optimize", "--json", "--query", qpath, "--fds",
                         fd_file, "--table", table, "--schema", schema]}


# ---------------------------------------------------------------------------
# refute


def _fd_set(rng, n: int, group: int = 5):
    """About 1.6 n FDs over n attributes.  Inside each group of `group`
    attributes an attribute may be determined by 1-2 earlier ones; the
    other FDs have 2-3 attributes from anywhere on the left, so they are
    scanned on every pass but seldom fire."""
    names = [f"A{i}" for i in range(n)]
    rng.shuffle(names)
    fds = []
    for start in range(0, n, group):
        members = names[start:start + group]
        for j in range(1, len(members)):
            if rng.random() < 0.75:
                lhs = rng.sample(members[:j], min(j, rng.choice((1, 2))))
                fds.append((frozenset(lhs), frozenset([members[j]])))
    for _ in range(n):
        lhs = frozenset(rng.sample(names, rng.choice((2, 3))))
        rhs = rng.choice([a for a in names if a not in lhs])
        fds.append((lhs, frozenset([rhs])))
    rng.shuffle(fds)
    return names, fds


def _firings(fds, lhs) -> int:
    """FDs that fire in a closure run in file order, each adding to the
    closure; a proof tree grows with them, so goals keep them few."""
    covered, fired = set(lhs), set()
    grew = True
    while grew:
        grew = False
        for i, (a, b) in enumerate(fds):
            if a <= covered and not b <= covered:
                covered |= b
                fired.add(i)
                grew = True
    return len(fired)


MAX_FIRINGS = 9


def _goal(rng, names, fds, want_derivable: bool, group: int = 5):
    for _ in range(10000):
        start = rng.randrange(0, len(names), group)
        pool = names[start:start + 2 * group]
        lhs = frozenset(rng.sample(pool, rng.choice((1, 2, 3))))
        if _firings(fds, lhs) > MAX_FIRINGS:
            continue
        closed = ref.closure(fds, lhs)
        if want_derivable:
            extra = sorted(closed - lhs)
            if extra:
                rhs = frozenset(rng.sample(extra, rng.choice(
                    (1, min(2, len(extra))))))
                return lhs, rhs
        else:
            outside = sorted(set(pool) - closed)
            if outside:
                return lhs, frozenset([rng.choice(outside)])
    raise RuntimeError("no goal within the firing bound")


REFUTE_SIZES = (10, 20, 50, 100, 200, 500)
# (attributes, --scope-rows) for cex, 7 of them so that each meets both a
# derivable and a refutable goal; 5e2-7e3 candidate tables.  Most derivable
# searches take 0.2-0.4 s, about 15 a pass, and the tail percentile falls
# among them.
CEX_SCOPES = ((4, 5), (5, 3), (4, 5), (5, 2), (4, 5), (5, 3), (4, 4))
REFUTE_CYCLE = ("closure", "derive", "cex", "closure", "derive", "witness",
                "cex", "laws2", "closure", "derive", "cex", "search_law",
                "closure", "derive", "witness", "cex", "malformed",
                "closure", "derive", "cex", "cex")
LAWS3_EVERY_S = 15


class RefuteGen(_Gen):
    def build(self, count: int, seconds: float) -> list[dict]:
        rng = self.rng
        self.sets = {}
        self.cex_count = 0
        sizes = itertools.cycle(REFUTE_SIZES)
        scopes = itertools.cycle(CEX_SCOPES)
        corrupted = itertools.cycle(CORRUPTED_LAWS)
        derivable = itertools.cycle((True, False))
        cex_derivable = itertools.cycle((True, False))
        out: list[dict] = []
        for kind in itertools.cycle(REFUTE_CYCLE):
            if len(out) >= count:
                break
            if kind in ("closure", "derive", "witness"):
                out.append(self.fd_request(kind, next(sizes),
                                           next(derivable)))
            elif kind == "cex":
                out.append(self.cex(*next(scopes), next(cex_derivable)))
            elif kind == "laws2":
                out.append(self.laws(2))
            elif kind == "search_law":
                law = next(corrupted)
                out.append({"op": "search_law",
                            "call": {"law": law, "carrier": 3},
                            "expect": {"law": law}, "refuted": [True]})
            else:
                out.append(self.malformed(rng.choice(
                    ("closure", "derive", "cex"))))
        out = out[:count]
        for i in range(int(seconds // LAWS3_EVERY_S)):
            at = (2 * i + 1) * len(out) // (2 * int(seconds // LAWS3_EVERY_S))
            out.insert(at, self.laws(3))
        return out

    def fd_file(self, n: int):
        if n not in self.sets:
            names, fds = _fd_set(self.rng, n)
            path = self.write(".fds", "".join(fmt_fd(a, b) + "\n"
                                              for a, b in fds))
            self.sets[n] = (names, fds, path)
        return self.sets[n]

    def fd_request(self, kind, n, want_derivable) -> dict:
        names, fds, path = self.fd_file(n)
        lhs, rhs = _goal(self.rng, names, fds, want_derivable)
        fd_json = [[sorted(a), sorted(b)] for a, b in fds]
        if kind == "closure":
            return {"op": "closure", "argv": [
                "closure", "--json", "--fds", path, "--attrs",
                ",".join(sorted(lhs))],
                "expect": {"exit": 0,
                           "closure": sorted(ref.closure(fds, lhs))}}
        goal = fmt_fd(lhs, rhs)
        ok = ref.derivable(fds, lhs, rhs)
        expect = {"exit": 0 if ok else 1, "derivable": ok, "goal": goal,
                  "fds": fd_json}
        if kind == "derive":
            return {"op": "derive", "refuted": [not ok], "expect": expect,
                    "argv": ["derive", "--json", "--fds", path, "--goal",
                             goal]}
        return {"op": "two_tuple_witness", "refuted": [not ok],
                "call": {"fds": path, "goal": goal}, "expect": expect}

    def cex(self, n, rows, want_derivable) -> dict:
        """FDs over n of A-E and a goal a -> z.  Derivable: a chain of 1-2
        FDs leads from a to z.  Refutable: only z -> a is given.  One more
        FD, from the attributes still unused, never fires from a but brings
        every attribute into the search."""
        rng = self.rng
        self.cex_count += 1
        names = sorted(rng.sample("ABCDE", n))
        a, *rest = rng.sample(names, n)
        if want_derivable:
            chain = [a] + rest[:1 + self.cex_count % 2]
            fds = [(frozenset([x]), frozenset([y]))
                   for x, y in zip(chain, chain[1:])]
            z = chain[-1]
        else:
            z = rest[0]
            fds = [(frozenset([z]), frozenset([a]))]
        used = set().union(*(x | y for x, y in fds))
        unused = [x for x in names if x not in used]
        if unused:
            fds.append((frozenset(unused), frozenset([rng.choice(
                [x for x in names if x not in unused])])))
        lhs, rhs = frozenset([a]), frozenset([z])
        if ref.derivable(fds, lhs, rhs) != want_derivable:
            raise AssertionError("cex goal not as constructed")
        attrs = names
        path = self.write(".fds", "".join(fmt_fd(a, b) + "\n"
                                          for a, b in fds))
        goal = fmt_fd(lhs, rhs)
        return {"op": "cex", "refuted": [not want_derivable],
                "seen": self.seen(tuple(sorted(attrs))),
                "argv": ["cex", "--json", "--fds", path, "--goal", goal,
                         "--scope-rows", str(rows)],
                "expect": {"exit": 0 if want_derivable else 1,
                           "derivable": want_derivable, "goal": goal,
                           "fds": [[sorted(a), sorted(b)] for a, b in fds]}}

    def laws(self, carrier: int) -> dict:
        return {"op": "laws", "refuted": [False] * len(SOUND_LAWS),
                "argv": ["laws", "--json", "--scope-carrier", str(carrier)],
                "expect": {"exit": 0}}

    def malformed(self, kind: str) -> dict:
        path = self.write(".fds", "A -> B\nB -> C -> D\n")
        argv = {"closure": ["closure", "--attrs", "A"],
                "derive": ["derive", "--goal", "A -> C"],
                "cex": ["cex", "--goal", "A -> C"]}[kind]
        return {"op": kind, "malformed": "fd_syntax", "expect": {"exit": 2},
                "argv": argv[:1] + ["--json", "--fds", path] + argv[1:]}
