"""Small-scope refutation: counterexample tables and law counter-models.

`two_tuple_witness` builds the canonical two-row table refuting a
non-derivable dependency.  `search_tables` returns the first table within a
scope, in a fixed canonical order (row count, then row content), that
separates the axioms from the goal.  An FD holds on a table when it holds
on each two of its rows, so every table of 0 or 1 rows satisfies every FD,
and if a table satisfies the axioms and rows r1, r2 break the goal, the
table {r1, r2} does both too: the first witness always has exactly two
rows, and when no pair of rows is one, no table of any size is.  The
search therefore walks the pairs of the row universe in order and builds
a table for the witness alone; its candidate cap still counts the tables
of every size up to the scope's row bound.  Two rows break X -> Y exactly
when they agree on X and not on Y, so a pair is judged by the set of
positions where its rows disagree, an int bitmask D: it is a witness when
D misses the goal's X and meets its Y, and for each axiom misses Y or
meets X.  Each distinct D is judged once.  `search_law` sweeps a
registered algebraic law over all relation assignments at carrier sizes
up to the scope bound.  `check_rule_soundness` validates an inference rule
instance empirically as a table search for a model of its premises that
violates its conclusion.  Every witness is re-verified by the
corresponding pointwise oracle before being returned.  The law functions
import `relfd.laws` and `relfd.bitrel`, and with them numpy, when called:
the table searches never load them.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InternalCheckError, ResourceLimitError, UnknownLawError
from .fd import AttrFd, fd_positions, satisfies_oracle
from .infer import attr_closure, mentioned_attrs
from .rel import Carrier, Frozen
from .tables import Scheme, Table, count_tables, row_carrier

# Unused here; kept because the benchmark's tracer test binds it by this
# name (relfd.search.enumerate_tables).
from .tables import enumerate_tables  # noqa: F401

if TYPE_CHECKING:
    from .laws import Law

DEFAULT_CANDIDATE_CAP = 10 ** 7


class Scope(Frozen):
    """Size bounds for refutation searches."""

    __slots__ = _fields = ("max_rows", "domain_sizes", "max_carrier",
                           "candidate_cap")

    def __init__(self, max_rows: int = 2,
                 domain_sizes: int | tuple[int, ...] = 2, max_carrier: int = 3,
                 candidate_cap: int = DEFAULT_CANDIDATE_CAP):
        sizes = (domain_sizes if isinstance(domain_sizes, tuple)
                 else (domain_sizes,))
        if (max_rows < 1 or max_carrier < 1
                or candidate_cap < 1 or any(s < 1 for s in sizes)):
            raise ValueError("scope bounds must all be positive")
        super().__init__(max_rows, domain_sizes, max_carrier, candidate_cap)

    def sizes_for(self, attrs: Sequence[str]) -> tuple[int, ...]:
        """Domain size of each of the attributes, in sorted name order."""
        if isinstance(self.domain_sizes, tuple):
            if len(self.domain_sizes) != len(attrs):
                raise ValueError(
                    f"{len(self.domain_sizes)} domain sizes for "
                    f"{len(attrs)} attributes")
            return self.domain_sizes
        return (self.domain_sizes,) * len(attrs)

    def scheme_for(self, attrs: Sequence[str]) -> Scheme:
        """Scheme over the sorted attribute names with numeric atom domains."""
        names = sorted(attrs)
        return Scheme(tuple(
            (name, Carrier(name, tuple(str(i) for i in range(k))))
            for name, k in zip(names, self.sizes_for(names))))


def two_tuple_witness(fds: Sequence[AttrFd], goal: AttrFd) -> Optional[Table]:
    """The canonical two-row refutation of `goal`, or None when derivable.

    Rows agree (value 0) exactly on the closure of the goal's antecedent and
    differ (0 vs 1) elsewhere, so every axiom holds and the goal fails.
    """
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    closure = attr_closure(list(fds), goal.antecedent)
    if goal.consequent <= closure:
        return None
    scheme = Scope(domain_sizes=2).scheme_for(attrs)
    row_a = ("0",) * len(attrs)
    row_b = tuple("0" if name in closure else "1" for name in attrs)
    table = Table.make(scheme, {row_a, row_b})
    if not all(satisfies_oracle(table, fd) for fd in fds):
        raise InternalCheckError("two-row witness fails an axiom")
    if satisfies_oracle(table, goal):
        raise InternalCheckError("two-row witness satisfies the goal")
    return table


def _row_codes(scheme: Scheme) -> tuple[list[int], int]:
    """The rows of `row_carrier(scheme)`, in its order, as ints, and the
    width `w` of their fields.

    A row's code holds the index of its value at scheme position k in the
    k-th field of `w` bits, whose top bit no index reaches.  With `high`
    the top bits of all fields and `low` every bit below them, a field of
    ``(c1 ^ c2) + low`` carries into its top bit exactly when it is not
    zero, and never past it: ``((c1 ^ c2) + low) & high`` is the set of
    positions where the two rows disagree, one top bit per position.
    """
    sizes = [len(dom) for _, dom in scheme.attributes]
    w = max([(s - 1).bit_length() for s in sizes], default=0) + 1
    codes = list(map(sum, itertools.product(*[
        range(0, s << k * w, 1 << k * w) for k, s in enumerate(sizes)])))
    return codes, w


def search_tables(fds: Sequence[AttrFd], goal: AttrFd,
                  scope: Scope) -> Optional[Table]:
    """First table within scope satisfying `fds` and violating `goal`.

    The order is canonical (row count, then lexicographic row content), so
    the witness is deterministic; by the two-row fact (module docstring)
    it is the first pair of the row universe, in its order, that breaks the
    goal and no axiom.  The candidate cap is checked, before any carrier is
    built, against the number of tables of every size up to
    `scope.max_rows`.

    Pairs are judged by their disagreement masks (module docstring,
    `_row_codes`), and the witness is re-checked by `satisfies_oracle`.
    """
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    candidates = count_tables(math.prod(scope.sizes_for(attrs)),
                              scope.max_rows, scope.candidate_cap)
    if candidates > scope.candidate_cap:
        raise ResourceLimitError(
            f"{candidates} candidate tables exceed the cap of "
            f"{scope.candidate_cap}")
    if scope.max_rows < 2:
        return None  # too few rows for a witness (module docstring)
    scheme = scope.scheme_for(attrs)
    rows = row_carrier(scheme).elements
    codes, w = _row_codes(scheme)

    def mask(positions):  # the top bits of the fields at `positions`
        return sum(1 << p * w + w - 1 for p in positions)

    high = mask(range(len(attrs)))
    low = high - (high >> w - 1)
    gx, gy = map(mask, fd_positions(scheme, goal))
    axioms = [tuple(map(mask, fd_positions(scheme, fd))) for fd in fds]
    judged = set()  # disagreement masks that make no witness
    for c1, c2 in itertools.combinations(codes, 2):
        d = ((c1 ^ c2) + low) & high
        if d in judged:
            continue
        if (not d & gx and d & gy
                and all(d & x or not d & y for x, y in axioms)):
            table = Table(scheme, frozenset(
                (rows[codes.index(c1)], rows[codes.index(c2)])))
            if (satisfies_oracle(table, goal)
                    or not all(satisfies_oracle(table, fd) for fd in fds)):
                raise InternalCheckError(
                    "table search witness does not separate the axioms "
                    "from the goal")
            return table
        judged.add(d)
    return None


class RuleInstance(Frozen):
    __slots__ = _fields = ("premises", "conclusion")  # tuple[AttrFd], AttrFd


class SoundnessResult(Frozen):
    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[Table] = None):
        super().__init__(ok, witness)

    def __bool__(self) -> bool:
        return self.ok


def check_rule_soundness(instance: RuleInstance, max_rows: int = 4,
                         domain_size: int = 2,
                         cap: int = DEFAULT_CANDIDATE_CAP) -> SoundnessResult:
    """Search the tables in scope for a model of the premises violating
    the conclusion, as `search_tables` does; sound when there is none."""
    witness = search_tables(instance.premises, instance.conclusion,
                            Scope(max_rows=max_rows, domain_sizes=domain_size,
                                  candidate_cap=cap))
    return SoundnessResult(witness is None, witness)


def get_law(law_id: str) -> Law:
    from .laws import LAW_REGISTRY
    if law_id not in LAW_REGISTRY:
        raise UnknownLawError(f"unknown law {law_id!r}; known: "
                              + ", ".join(sorted(LAW_REGISTRY)))
    return LAW_REGISTRY[law_id]


def search_law(law_id: str, scope: Scope) -> Optional[dict]:
    """Falsifying assignment (name -> Rel) for a registered law, or None.

    Exhaustive over all relation assignments with carriers up to
    scope.max_carrier; a found assignment is re-checked against the law's
    pointwise oracle before being reported.
    """
    from . import bitrel
    law = get_law(law_id)
    bitrel.check_size(scope.max_carrier)
    for sizes in law.size_combos(scope.max_carrier):
        masks = law.sweep(sizes)
        if masks is not None:
            assignment = law.assignment_from_masks(sizes, masks)
            if law.holds(assignment):
                raise InternalCheckError(
                    f"sweep of {law_id} reported a non-counterexample")
            return assignment
    return None
