"""Small-scope refutation: counterexample tables and law counter-models.

`two_tuple_witness` builds the canonical two-row table refuting a
non-derivable dependency.  `search_tables` returns the first table within a
scope, in a fixed canonical order (row count, then row content), that
separates the axioms from the goal.  Two rows break X -> Y exactly when the
set D of positions where they disagree (the complement of their agree set,
Beeri, Dowd, Fagin and Statman, J. ACM 31(1), 1984) misses X and meets Y.
Call D qualifying when it breaks the goal and no axiom.  An FD holds on a
table when it holds on each two of its rows, so no table of 0 or 1 rows is
a witness (over one-value domains no table has more), and a witness of any
size holds a pair with a qualifying D that alone is one: the first witness
has two rows.  With row 0 the row of first values and r_D the row of second
values on D and first values elsewhere, {row 0, r_D} is a witness too.  In
the lexicographic order of rows the pairs with row 0 come first, r_D is the
first row whose disagreement set with row 0 is D, and r_D precedes r_D'
exactly when the first position where D and D' differ lies in D'.  So the
first witness is {row 0, r_D} for the least qualifying D, whose agree set A
takes each position in order whenever it can.  D qualifies exactly when A
holds X, misses part of Y and is closed under the axioms; a closure is the
least closed superset, so some qualifying A holds a set S exactly when the
closure of S misses part of Y.  So A starts as the closure of X and takes
each position in order, as the closure of A with it, whenever that closure
misses part of Y.  A position left out never returns, since every closed
set holding it and A covers Y.  When the first closure covers Y, no table
of any size is a witness.  `search_law` sweeps a registered algebraic law
over all relation assignments at carrier sizes up to the scope bound.
`check_rule_soundness` validates an inference rule instance empirically as
a table search for a model of its premises that violates its conclusion.
Every witness is re-verified by the corresponding pointwise oracle before
being returned.  The law functions import `relfd.laws` and `relfd.bitrel`,
and with them numpy, when called: the table searches never load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InternalCheckError, ResourceLimitError, UnknownLawError
from .fd import AttrFd, satisfies_oracle
from .infer import attr_closure, mentioned_attrs
from .rel import CARRIER_LIMIT, Carrier, Frozen
from .tables import Scheme, Table

# Unused here; kept because the benchmark's tracer test binds it by this
# name (relfd.search.enumerate_tables).
from .tables import enumerate_tables  # noqa: F401

if TYPE_CHECKING:
    from .laws import Law


class Scope(Frozen):
    """Size bounds for refutation searches."""

    __slots__ = _fields = ("max_rows", "domain_sizes", "max_carrier")

    def __init__(self, max_rows: int = 2, domain_sizes: int = 2,
                 max_carrier: int = 3):
        if min(max_rows, domain_sizes, max_carrier) < 1:
            raise ValueError("scope bounds must all be positive")
        super().__init__(max_rows, domain_sizes, max_carrier)

    def scheme_for(self, attrs: Sequence[str]) -> Scheme:
        """Scheme over the sorted attribute names, each with the numeric
        atoms 0 .. domain_sizes - 1."""
        values = tuple(str(i) for i in range(self.domain_sizes))
        return Scheme(tuple((name, Carrier(name, values))
                            for name in sorted(attrs)))


def two_tuple_witness(fds: Sequence[AttrFd], goal: AttrFd) -> Optional[Table]:
    """The canonical two-row refutation of `goal`, or None when derivable.

    Rows agree (value 0) exactly on the closure of the goal's antecedent and
    differ (0 vs 1) elsewhere, so every axiom holds and the goal fails.
    """
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    closure = attr_closure(fds, goal.antecedent)
    if goal.consequent <= closure:
        return None
    return _agree_pair(Scope().scheme_for(attrs), closure, fds, goal)


def search_tables(fds: Sequence[AttrFd], goal: AttrFd,
                  scope: Scope) -> Optional[Table]:
    """First table within scope satisfying `fds` and violating `goal`.

    The first table in canonical order is row 0 and r_D for the least
    qualifying D, whose agree set takes at most one closure per attribute
    and one more to find (module docstring).  The witness's scheme holds
    the domain values of every attribute; unless the scope has one row,
    their number, attributes times `domain_sizes`, is checked before any
    closure against `rel.CARRIER_LIMIT`, the bound on the values one
    carrier may hold.  The witness is re-checked by `satisfies_oracle`.
    """
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    if scope.max_rows < 2:
        return None  # too few rows for a witness (module docstring)
    values = len(attrs) * scope.domain_sizes
    if values > CARRIER_LIMIT:
        raise ResourceLimitError(
            f"the witness scheme would hold {values} domain values, "
            f"over the {CARRIER_LIMIT} bound")
    if scope.domain_sizes < 2:
        return None  # two rows of one-value domains are equal
    agree = attr_closure(fds, goal.antecedent)
    if goal.consequent <= agree:
        return None
    for a in attrs:
        if a not in agree:
            grown = attr_closure(fds, agree | {a})
            if not goal.consequent <= grown:
                agree = grown
    return _agree_pair(scope.scheme_for(attrs), agree, fds, goal)


def _agree_pair(scheme: Scheme, agree: frozenset, fds: Sequence[AttrFd],
                goal: AttrFd) -> Table:
    """Row 0 and the row taking each domain's second value outside `agree`,
    re-checked to satisfy `fds` and violate `goal`."""
    doms = [dom.elements for _, dom in scheme.attributes]
    table = Table(scheme, frozenset((
        tuple(dom[0] for dom in doms),
        tuple(dom[name not in agree]
              for name, dom in zip(scheme.names, doms)))))
    if (satisfies_oracle(table, goal)
            or not all(satisfies_oracle(table, fd) for fd in fds)):
        raise InternalCheckError(
            "two-row witness does not separate the axioms from the goal")
    return table


class RuleInstance(Frozen):
    __slots__ = _fields = ("premises", "conclusion")  # tuple[AttrFd], AttrFd


class SoundnessResult(Frozen):
    __slots__ = _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness: Optional[Table] = None):
        super().__init__(ok, witness)

    def __bool__(self) -> bool:
        return self.ok


def check_rule_soundness(instance: RuleInstance) -> SoundnessResult:
    """Search the tables of up to 2 rows over two values per attribute
    for a model of the premises violating the conclusion; sound when there
    is none.  A witness of any size yields one of two rows over two values
    (module docstring), so no larger scope finds more."""
    witness = search_tables(instance.premises, instance.conclusion, Scope())
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
