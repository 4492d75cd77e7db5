"""Finite relation algebra with functional dependencies as types.

The package bundles a small executable kernel of binary relation algebra
(`relfd.rel`), n-ary tables bridged into it (`relfd.tables`), dependency
satisfaction in oracle, algebraic and typed forms (`relfd.fd`), an
inference engine producing proof trees (`relfd.infer`), a query IR with an
FD-driven self-join eliminator (`relfd.query`), and small-scope
counterexample search for dependencies and algebraic laws (`relfd.search`).
"""

from .errors import (CarrierMismatchError, InternalCheckError, ParseError,
                     QueryTypeError, RelfdError, ResourceLimitError,
                     SchemeError, UnknownAttributeError, UnknownLawError)
from .fd import (AttrFd, mutual_dependency, parse_fd, parse_fd_lines,
                 satisfies_algebraic, satisfies_general_quantified,
                 satisfies_oracle, satisfies_typed, typecheck_join,
                 typecheck_union)
from .infer import (Derivation, attr_closure, derivation_from_dict,
                    derivation_to_dict, derive, fd_trade,
                    validate_derivation)
from .laws import LAW_REGISTRY, LAW_SUITE
from .query import (Env, eval_query, from_json, rewrite_selfjoin, to_json,
                    type_check, verify_equiv)
from .rel import (Atom, Carrier, Pair, Rel, Tup, Unit, Value, bang, compose,
                  converse, empty, fork, identity, includes, intersect,
                  is_entire, is_function, is_injective, kernel, leq,
                  pair_carrier, product, proj1, proj2, top, union)
from .search import (RuleInstance, Scope, check_rule_soundness, search_law,
                     search_tables, two_tuple_witness)
from .tables import (Scheme, Table, encode_pairs, load_table, pid, proj_fn,
                     row_carrier)

__version__ = "0.1.0"
