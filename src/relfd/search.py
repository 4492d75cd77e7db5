"""Small-scope refutation: counterexample tables and law counter-models.

`two_tuple_witness` builds the canonical two-row table refuting a
non-derivable dependency; `search_tables` enumerates every table within a
scope in a fixed canonical order (row count, then row content) and returns
the first model separating the axioms from the goal.  `search_law` sweeps a
registered algebraic law over all relation assignments at carrier sizes up
to the scope bound.  `check_rule_soundness` validates an inference rule
instance empirically as a table search for a model of its premises that
violates its conclusion.  Every witness is re-verified by the corresponding
pointwise oracle before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import bitrel
from .errors import InternalCheckError, ResourceLimitError, UnknownLawError
from .fd import AttrFd, satisfies_oracle
from .infer import attr_closure, binary_scheme
from .laws import LAW_REGISTRY, Law
from .rel import Atom, Carrier, Tup
from .tables import Scheme, Table, count_tables, enumerate_tables

DEFAULT_CANDIDATE_CAP = 10 ** 7


@dataclass(frozen=True)
class Scope:
    """Size bounds for refutation searches."""

    max_rows: int = 2
    domain_sizes: "int | tuple[int, ...]" = 2
    max_carrier: int = 3
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        sizes = (self.domain_sizes if isinstance(self.domain_sizes, tuple)
                 else (self.domain_sizes,))
        if (self.max_rows < 1 or self.max_carrier < 1
                or self.candidate_cap < 1 or any(s < 1 for s in sizes)):
            raise ValueError("scope bounds must all be positive")

    def scheme_for(self, attrs: Sequence[str]) -> Scheme:
        """Scheme over the sorted attribute names with numeric atom domains."""
        names = sorted(attrs)
        if isinstance(self.domain_sizes, tuple):
            if len(self.domain_sizes) != len(names):
                raise ValueError(
                    f"{len(self.domain_sizes)} domain sizes for "
                    f"{len(names)} attributes")
            sizes = self.domain_sizes
        else:
            sizes = (self.domain_sizes,) * len(names)
        return Scheme(tuple(
            (name, Carrier(name, tuple(Atom(str(i)) for i in range(k))))
            for name, k in zip(names, sizes)))


def _universe_attrs(fds: Sequence[AttrFd], goal: AttrFd) -> list[str]:
    attrs = set(goal.antecedent) | set(goal.consequent)
    for fd in fds:
        attrs |= fd.antecedent | fd.consequent
    return sorted(attrs)


def two_tuple_witness(fds: Sequence[AttrFd], goal: AttrFd) -> Optional[Table]:
    """The canonical two-row refutation of `goal`, or None when derivable.

    Rows agree (value 0) exactly on the closure of the goal's antecedent and
    differ (0 vs 1) elsewhere, so every axiom holds and the goal fails.
    """
    attrs = _universe_attrs(fds, goal)
    closure = attr_closure(list(fds), goal.antecedent)
    if goal.consequent <= closure:
        return None
    scheme = binary_scheme(attrs)
    zero, one = Atom("0"), Atom("1")
    row_a = Tup(tuple(zero for _ in attrs))
    row_b = Tup(tuple(zero if name in closure else one for name in attrs))
    table = Table.make(scheme, {row_a, row_b})
    if not all(satisfies_oracle(table, fd) for fd in fds):
        raise InternalCheckError("two-row witness fails an axiom")
    if satisfies_oracle(table, goal):
        raise InternalCheckError("two-row witness satisfies the goal")
    return table


def search_tables(fds: Sequence[AttrFd], goal: AttrFd,
                  scope: Scope) -> Optional[Table]:
    """First table within scope satisfying `fds` and violating `goal`.

    Enumeration order is canonical (row count, then lexicographic row
    content), so the returned witness is deterministic.
    """
    scheme = scope.scheme_for(_universe_attrs(fds, goal))
    candidates = count_tables(scheme, scope.max_rows)
    if candidates > scope.candidate_cap:
        raise ResourceLimitError(
            f"{candidates} candidate tables exceed the cap of "
            f"{scope.candidate_cap}")
    for table in enumerate_tables(scheme, scope.max_rows):
        if (all(satisfies_oracle(table, fd) for fd in fds)
                and not satisfies_oracle(table, goal)):
            return table
    return None


@dataclass(frozen=True)
class RuleInstance:
    premises: tuple[AttrFd, ...]
    conclusion: AttrFd


@dataclass(frozen=True)
class SoundnessResult:
    ok: bool
    witness: Optional[Table] = None

    def __bool__(self) -> bool:
        return self.ok


def check_rule_soundness(instance: RuleInstance, max_rows: int = 4,
                         domain_size: int = 2,
                         cap: int = 10 ** 7) -> SoundnessResult:
    """Enumerate all tables in scope; premises must entail the conclusion."""
    witness = search_tables(instance.premises, instance.conclusion,
                            Scope(max_rows=max_rows, domain_sizes=domain_size,
                                  candidate_cap=cap))
    return SoundnessResult(witness is None, witness)


def get_law(law_id: str) -> Law:
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
