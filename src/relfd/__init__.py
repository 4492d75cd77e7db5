"""Finite relation algebra with functional dependencies as types.

The package bundles a small executable kernel of binary relation algebra
(`relfd.rel`), n-ary tables bridged into it (`relfd.tables`), dependency
satisfaction on tables (`relfd.fd`), FDs as types of relations and their
typing rules (`relfd.typed`), an inference engine with proof trees
(`relfd.infer`), a query IR with an FD-driven self-join eliminator
(`relfd.query`), and small-scope counterexample search (`relfd.search`).

The public names below resolve on first access: `from relfd import derive`
loads `relfd.infer` and what it needs, and nothing else.  So a CLI command
loads only the modules it runs (numpy, for one, only for the law sweeps).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": """CarrierMismatchError InternalCheckError ParseError
        QueryTypeError RelfdError ResourceLimitError SchemeError
        UnknownAttributeError UnknownLawError""",
    "fd": "AttrFd parse_fd parse_fd_lines satisfies_oracle satisfies_typed",
    "typed": """fd_trade mutual_dependency satisfies_algebraic
        satisfies_general_quantified typecheck_join typecheck_union""",
    "infer": """Derivation attr_closure derivation_from_dict
        derivation_to_dict derive validate_derivation""",
    "query": """Env eval_query from_json rewrite_selfjoin to_json type_check
        verify_equiv""",
    "rel": """Atom Carrier Pair Rel Tup Unit Value bang compose converse
        empty fork identity includes intersect is_entire is_function
        is_injective kernel leq pair_carrier product proj1 proj2 top union""",
    "search": """RuleInstance Scope check_rule_soundness search_law
        search_tables two_tuple_witness""",
    "tables": "Scheme Table load_table pid proj_fn row_carrier",
    "oracles": "encode_pairs",
    "laws": "LAW_REGISTRY LAW_SUITE",
}
# public name -> the submodule that defines it
_NAMES = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}
__all__ = list(_NAMES)


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
