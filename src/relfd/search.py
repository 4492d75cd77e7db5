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
of any size is a witness.  The witness uses two values per attribute, and
its scheme lists just those, "0" and "1": a scope changes the answer only
as one row or one value against two or more.  `search_law` sweeps a
registered algebraic law over all relation assignments at carrier sizes up
to the scope bound.  `check_rule_soundness` validates an inference rule
instance empirically as a table search for a model of its premises that
violates its conclusion.  Every witness is re-verified by the
corresponding pointwise oracle before being returned.  The law functions
import `relfd.laws` and `relfd.bitrel`, and with them numpy, when called:
the table searches never load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .errors import InternalCheckError, UnknownLawError
from .fd import AttrFd, satisfies_oracle
from .infer import attr_closure, mentioned_attrs
from .rel import Carrier, Frozen
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


def two_tuple_witness(fds: Sequence[AttrFd], goal: AttrFd) -> Optional[Table]:
    """The canonical two-row refutation of `goal`, or None when derivable.

    Rows agree (value 0) exactly on the closure of the goal's antecedent and
    differ (0 vs 1) elsewhere, so every axiom holds and the goal fails.
    """
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    closure = attr_closure(fds, goal.antecedent)
    if goal.consequent <= closure:
        return None
    return _agree_pair(attrs, closure, fds, goal)


def search_tables(fds: Sequence[AttrFd], goal: AttrFd,
                  scope: Scope) -> Optional[Table]:
    """First table within scope satisfying `fds` and violating `goal`.

    The first table in canonical order is row 0 and r_D for the least
    qualifying D, whose agree set takes at most one closure per attribute
    and one more to find (module docstring).  The scope decides only
    whether a witness can exist: it needs two rows and two values per
    attribute, and the witness's scheme lists "0" and "1", the values its
    rows use, whatever `domain_sizes` is.  The witness is re-checked by
    `satisfies_oracle`.
    """
    if scope.max_rows < 2 or scope.domain_sizes < 2:
        return None  # no two distinct rows, no witness (module docstring)
    attrs = sorted(mentioned_attrs(fds, goal.antecedent | goal.consequent))
    agree = attr_closure(fds, goal.antecedent)
    if goal.consequent <= agree:
        return None
    for a in attrs:
        if a not in agree:
            grown = attr_closure(fds, agree | {a})
            if not goal.consequent <= grown:
                agree = grown
    return _agree_pair(attrs, agree, fds, goal)


def _agree_pair(attrs: Sequence[str], agree: frozenset,
                fds: Sequence[AttrFd], goal: AttrFd) -> Table:
    """Row 0, all "0", and the row taking "1" outside `agree`, over
    `attrs` with the domain ("0", "1") each, re-checked to satisfy `fds`
    and violate `goal`."""
    scheme = Scheme(tuple((a, Carrier(a, ("0", "1"))) for a in attrs))
    table = Table(scheme, frozenset((
        ("0",) * len(attrs), tuple("01"[a not in agree] for a in attrs))))
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
    pointwise oracle before being reported.  The sweeps share one memo of
    computed terms (`relfd.laws`), dropped on return.
    """
    from . import bitrel
    law = get_law(law_id)
    bitrel.check_size(scope.max_carrier)
    memo: dict = {}
    for sizes in law.size_combos(scope.max_carrier):
        masks = law.sweep(sizes, memo)
        if masks is not None:
            assignment = law.assignment_from_masks(sizes, masks)
            if law.holds(assignment):
                raise InternalCheckError(
                    f"sweep of {law_id} reported a non-counterexample")
            return assignment
    return None
