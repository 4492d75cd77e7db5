"""Committed mutants of the fast paths.

Each entry of MUTANTS breaks one function of `src/` through `monkeypatch`
(the source file is never edited; `_edited` compiles a twin from an edited
copy of a function's text) and names the explicit example that must fail
under it: the example passes on the real code and raises AssertionError
under the mutant.  So a change that weakens the test behind an example, or
drops the example, fails here.  `described_in` starts the heading of the
CHANGES.md entry that describes the mutant.  Each example is one size
combination or one fixed case, never a whole parametrized test or a
Hypothesis search, so the file stays cheap.

A change that adds a fast path adds its mutants here.
"""

import dataclasses
import inspect
import re
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import test_fd
import test_query
import test_rel
import test_search
import test_sweep_oracles
from relfd import bitrel as B
from relfd import fd, laws, query, rel, search, tables
from relfd.query import Converse, Proj
from relfd.search import Scope, search_law

KER_THROUGH = "`ker(f.R~)` written once in `laws._ker_through`"
BUILT_ONCE = ("Projection maps and fork targets built once, chains planned "
              "on flat lists")
PID_ABSORBED = "Each pid absorbed into the projections beside it"
COMPOSED = "Projections composed as functions inside a chain"
LONE_PROJ = "A lone projection is a one-factor chain"
CODED = "`check`'s shunted route on dictionary codes"
PRODUCTS = "One typer: row universes and pair carriers as unbuilt products"
ONE_BOUND = "One size bound, where a product carrier is enumerated"
ON_SCHEME = "Carriers and projection maps kept on their scheme"
ROW_BLOCKS = "Law sweeps and op-table builds in row blocks"
ONE_SEARCH = "One search per law"
TWO_VALUES = "A `cex` witness lists only the two values its rows use"
PAIRS_ONLY = "A relation is its pairs"


class Mutant(NamedTuple):
    name: str
    apply: Callable  # (monkeypatch) -> None: installs the broken twin
    example: Callable  # (monkeypatch) -> None: asserts, as its test does
    described_in: str


def _wrap_ker_through(edit):
    def apply(monkeypatch):
        real = laws._ker_through
        monkeypatch.setattr(laws, "_ker_through",
                            lambda funcs, *sizes: edit(real(funcs, *sizes)))
    return apply


def _fd_trading_matches_its_oracle(sz, corrupt=None):
    """`test_sweep_equals_its_oracle_under_corrupted_tables` for
    `fd_trading` at one size combination, with `kernel_table` served with
    one bit flipped when `corrupt` = (sizes, entry, bit)."""
    def example(monkeypatch):
        if corrupt is not None:
            sizes, entry, bit = corrupt
            clean = B.kernel_table
            table = clean(*sizes).copy()
            table[entry] ^= 1 << bit
            monkeypatch.setattr(
                B, "kernel_table",
                lambda *s: table if s == sizes else clean(*s))
        want = test_sweep_oracles.fd_trading_oracle(sz)
        assert laws.LAW_REGISTRY["fd_trading"].sweep(sz) == want
    return example


def _register_sound_fork_lub(monkeypatch):
    law = laws.LAW_REGISTRY["fork_lub_corrupted"]
    monkeypatch.setitem(laws.LAW_REGISTRY, "fork_lub_corrupted",
                        dataclasses.replace(law, holds=laws._holds_fork_lub,
                                            sweep=laws._sweep_fork_lub))


def _corrupted_fork_lub_refuted(monkeypatch):
    """`test_corrupted_variants_refuted_and_reverified` for
    `fork_lub_corrupted` at carrier 1, its one size combination."""
    witness = search_law("fork_lub_corrupted", Scope(max_carrier=1))
    assert witness is not None
    assert not laws.LAW_REGISTRY["fork_lub_corrupted"].holds(witness)


def _cancel_on_any_universe(items, env):
    """`query._cancel` without its non-empty check: ``p . p~`` is dropped
    even over an empty row universe, where it is empty, not the identity."""
    kept: list = []
    for x in items:
        top = kept[-1] if kept else None
        if (isinstance(top, Proj) and isinstance(x, Converse)
                and x.args[0] == top):
            kept.pop()
        else:
            kept.append(x)
    return kept


def _evaluation_agrees_on_an_empty_universe(monkeypatch):
    """`test_evaluation_agrees_with_building_every_factor` on its explicit
    empty-universe example."""
    test = test_query.test_evaluation_agrees_with_building_every_factor
    test.hypothesis.inner_test(case=test_query._empty_universe_case())


def _edited(func, old, new, *more):
    """A twin of `func` compiled from its source with the one occurrence
    of `old` replaced by `new`, and so for each further (old, new) pair in
    `more`, over `func`'s module globals; the source keeps its decorators,
    so the twin of a cached function is cached."""
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in ((old, new), *more):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    names: dict = {}
    exec(source, inspect.unwrap(func).__globals__, names)
    return names[func.__name__]


def _planner_agrees_on_tied_costs(monkeypatch):
    """`test_planner_splits_every_span_as_the_dictionary_planner` on its
    explicit example where every split of a span costs the same."""
    test = test_query.test_planner_splits_every_span_as_the_dictionary_planner
    test.hypothesis.inner_test(ends=[(2, 2, 2)] * 6)


def _row_carrier_per_call(obj):
    """`tables.row_carrier` building the scheme's universe at each call."""
    return tables.Scheme.universe.func(getattr(obj, "scheme", obj))


def _absorbing_restricts_the_projection(monkeypatch):
    """`test_absorbing_a_pid_restricts_the_projection_beside_it`, whose
    tables come from a fixed seed."""
    test_query.test_absorbing_a_pid_restricts_the_projection_beside_it()


def _own_projection_maps(monkeypatch):
    """`test_schemes_of_the_same_names_keep_their_own_projection_maps`."""
    test_query.test_schemes_of_the_same_names_keep_their_own_projection_maps()


def _edited_proj_map(old, new):
    def apply(monkeypatch):
        monkeypatch.setattr(query, "_proj_map",
                            _edited(query._proj_map, old, new))
    return apply


def _coded_route_agrees_on(case):
    """`test_coded_route_agrees_with_the_oracles` on one explicit case."""
    def example(monkeypatch):
        test = test_fd.test_coded_route_agrees_with_the_oracles
        test.hypothesis.inner_test(case=case)
    return example


def _edited_same_elements(old, new):
    def apply(monkeypatch):
        monkeypatch.setattr(rel.Carrier, "_same_elements",
                            _edited(rel.Carrier._same_elements, old, new))
    return apply


def _bound_at_or_over(monkeypatch):
    """`rel.Carrier.elements` refusing a product of exactly the bound."""
    prop = _edited(rel.Carrier.__dict__["elements"].func,
                   "> CARRIER_LIMIT", ">= CARRIER_LIMIT")
    prop.__set_name__(rel.Carrier, "elements")
    monkeypatch.setattr(rel.Carrier, "elements", prop)


def _types_as_its_carriers(domains):
    """`test_attribute_types_compare_as_their_carriers` on one case, which
    types."""
    def example(monkeypatch):
        assert (domains, True) in test_query.SPLIT_NAME_CASES
        test_query._types_as_its_carriers(domains, True)
    return example


def _later_block_case(case_id):
    """`test_sweep_finds_witnesses_past_the_first_row_block` on one case."""
    def example(monkeypatch):
        test_sweep_oracles.sweep_and_oracle_find(
            test_sweep_oracles.LATER_BLOCK_CASES[case_id],
            test_sweep_oracles.corruptible_tables(monkeypatch))
    return example


def _every_output_of_an_input(monkeypatch):
    """`test_compose_and_fork_keep_every_output_of_an_input`."""
    test_rel.test_compose_and_fork_keep_every_output_of_an_input()


def _edited_in_place(func, old, new):
    """`func` running its edited twin's code, so callers that imported it
    by name run the twin too."""
    def apply(monkeypatch):
        monkeypatch.setattr(func, "__code__",
                            _edited(func, old, new).__code__)
    return apply


def _agree_pair_over_every_value(monkeypatch):
    """`search._agree_pair` listing `domain_sizes` values per attribute
    again, given them by `search_tables`."""
    monkeypatch.setattr(search, "_agree_pair", _edited(
        search._agree_pair, "goal: AttrFd)", "goal: AttrFd, n: int = 2)",
        ('Carrier(a, ("0", "1"))', "Carrier(a, tuple(map(str, range(n))))")))
    _edited_in_place(search.search_tables, "agree, fds, goal)",
                     "agree, fds, goal, scope.domain_sizes)")(monkeypatch)


def _literal_searches_agree_at(scope):
    """`test_closure_search_matches_the_literal_searches` on the axiom
    A -> B and the goal B -> A at one (rows, values) scope."""
    def example(monkeypatch):
        test = test_search.test_closure_search_matches_the_literal_searches
        test.hypothesis.inner_test(axioms=[({"A"}, {"B"})],
                                   goal=({"B"}, {"A"}), scope=scope)
    return example


def _edited_laws(name, old, new):
    def apply(monkeypatch):
        monkeypatch.setattr(laws, name, _edited(getattr(laws, name), old, new))
    return apply


def _edited_sweep(law_id, old, new):
    """The registered law's sweep compiled from its edited source."""
    def apply(monkeypatch):
        law = laws.LAW_REGISTRY[law_id]
        monkeypatch.setitem(laws.LAW_REGISTRY, law_id, dataclasses.replace(
            law, sweep=_edited(law.sweep, old, new)))
    return apply


def _memo_kept_across_searches(monkeypatch):
    """Every fd_trading search reads and fills one memo of module life."""
    law, kept = laws.LAW_REGISTRY["fd_trading"], {}
    monkeypatch.setitem(laws.LAW_REGISTRY, "fd_trading", dataclasses.replace(
        law, sweep=lambda sizes, memo=None: law.sweep(sizes, kept)))


def _fd_trading_search_equals_its_oracle(monkeypatch):
    """`test_search_equals_its_first_oracle_witness_under_corrupted_tables`
    for `fd_trading` at carrier 2, on the sound tables."""
    test_sweep_oracles.corruptible_tables(monkeypatch)
    assert test_sweep_oracles.search_equals_the_first_oracle_witness(
        "fd_trading", 2, monkeypatch) is None


def _corrupted_between_two_searches(monkeypatch):
    """Two `fd_trading` searches at carrier 2 against the first oracle
    witness, the second with the table of x.k at A = K = 1 corrupted: its
    first witness is at the 13th size combination, which reads the x.k
    that the first combination built."""
    tables = test_sweep_oracles.corruptible_tables(monkeypatch)
    assert test_sweep_oracles.search_equals_the_first_oracle_witness(
        "fd_trading", 2, monkeypatch) is None
    tables.corrupt("compose_table", (1, 1, 2), ((3, 1), 1))
    assert test_sweep_oracles.search_equals_the_first_oracle_witness(
        "fd_trading", 2, monkeypatch) is not None


def _down_or_on_nine_bits(monkeypatch):
    """`test_down_or_equals_the_unpacked_subset_test` at 9 bits."""
    test_sweep_oracles.test_down_or_equals_the_unpacked_subset_test(9)


def _shunt_right_equals_its_oracle(monkeypatch):
    """`test_sweep_equals_its_oracle_under_corrupted_tables` for
    `shunt_function_right` at one size combination, on the sound tables.
    The subset table of a wrong carrier pair is of the wrong size for the
    masks that index it and the S it is compared over, so the sweep
    raises: a wrong answer too."""
    sz = {"X": 1, "Y": 2, "W": 2}
    try:
        got = laws.LAW_REGISTRY["shunt_function_right"].sweep(sz)
    except (IndexError, ValueError) as err:
        raise AssertionError("the sweep raised") from err
    assert got == test_sweep_oracles.shunt_right_oracle(sz)


MUTANTS = (
    Mutant("ker_through_R_axis_rolled",
           _wrap_ker_through(lambda t: np.roll(t, 1, axis=1)),
           _fd_trading_matches_its_oracle(
               {"B": 1, "Z": 2, "A": 1, "K": 1, "CX": 2, "CY": 2}),
           KER_THROUGH),
    # on the sound tables only union_fd_typing and mutual_dependency_self
    # catch this mutant (at all four carriers 2); fd_trading catches it
    # under this flipped kernel_table(2, 2) entry
    Mutant("ker_through_first_f_row_for_every_f",
           _wrap_ker_through(lambda t: np.repeat(t[:1], len(t), axis=0)),
           _fd_trading_matches_its_oracle(
               {"B": 1, "Z": 2, "A": 1, "K": 1, "CX": 2, "CY": 2},
               corrupt=((2, 2), 2, 1)),
           KER_THROUGH),
    Mutant("fork_lub_corrupted_registered_sound",
           _register_sound_fork_lub,
           _corrupted_fork_lub_refuted,
           KER_THROUGH),
    Mutant("cancel_without_non_empty_check",
           lambda monkeypatch: monkeypatch.setattr(
               query, "_cancel", _cancel_on_any_universe),
           _evaluation_agrees_on_an_empty_universe,
           PID_ABSORBED),
    Mutant("plan_ties_to_the_right",
           lambda monkeypatch: monkeypatch.setattr(query, "_plan", _edited(
               query._plan, "total < best", "total <= best")),
           _planner_agrees_on_tied_costs,
           BUILT_ONCE),
    # ``(p|S)~`` built as the pairs ``(r, p(r))`` of ``p|S``
    Mutant("absorb_converse_pairs_flipped",
           lambda monkeypatch: monkeypatch.setattr(query, "_absorb", _edited(
               query._absorb, "zip(map(apply, rows), rows)",
               "zip(rows, map(apply, rows))")),
           _absorbing_restricts_the_projection,
           PID_ABSORBED),
    # each item's left and right neighbours swapped
    Mutant("absorb_on_the_wrong_side_of_the_pid",
           lambda monkeypatch: monkeypatch.setattr(query, "_absorb", _edited(
               query._absorb, "zip([None, *items], items, [*items[1:], None])",
               "zip([*items[1:], None], items, [None, *items])")),
           _absorbing_restricts_the_projection,
           PID_ABSORBED),
    # a one-attribute sub-row takes the next attribute's value too
    Mutant("proj_map_one_attribute_slice_widened",
           _edited_proj_map("slice(at[0], at[0] + 1)",
                            "slice(at[0], at[0] + 2)"),
           _absorbing_restricts_the_projection,
           COMPOSED),
    # the empty projection maps a row to the whole row, not to ``()``
    Mutant("proj_map_empty_projection_keeps_the_row",
           _edited_proj_map("slice(0)", "slice(None)"),
           _absorbing_restricts_the_projection,
           COMPOSED),
    # a projection left of a pid built over the universe; the pid is still
    # dropped, so on the `alone` template only the sizes show it
    Mutant("absorb_every_projection_over_the_universe",
           lambda monkeypatch: monkeypatch.setattr(query, "_absorb", _edited(
               query._absorb, "if isinstance(right, Pid)", "if False")),
           (test_query
            .test_window_templates_evaluate_no_projection_over_the_universe),
           LONE_PROJ),
    # a column's radix one less than its count of values
    Mutant("encode_columns_radix_one_too_small",
           lambda monkeypatch: monkeypatch.setattr(
               fd, "encode_columns", _edited(
                   fd.encode_columns, "len(index)))", "len(index) - 1))")),
           _coded_route_agrees_on(test_fd.RADIX_COLLISION_CASE),
           CODED),
    Mutant("codes_drop_the_last_position",
           lambda monkeypatch: monkeypatch.setattr(fd, "_codes", _edited(
               fd._codes, "positions[1:]", "positions[1:-1]")),
           _coded_route_agrees_on(test_fd.LAST_POSITION_CASE),
           CODED),
    # two products equal only if their components are, names included:
    # rows(A,B,C) of "A,B" and "C" differs from that of "A" and "B,C"
    Mutant("products_compare_components_with_their_names",
           _edited_same_elements(
               "and all(map(Carrier._same_elements",
               "and self.components == other.components"
               " and all(map(Carrier._same_elements"),
           _types_as_its_carriers("x y x y"),
           PRODUCTS),
    # two empty products of one name compare their components' elements
    Mutant("products_without_the_empty_short_cut",
           _edited_same_elements(" or not self._len:", ":"),
           _types_as_its_carriers("- y x -"),
           PRODUCTS),
    Mutant("bound_tested_with_at_or_over",
           _bound_at_or_over,
           test_rel.test_a_product_enumerates_up_to_the_bound,
           ONE_BOUND),
    # only two empty carriers are settled by size; a plain carrier and a
    # product of one name then walk their elements side by side, and the
    # empty one stops the walk at once, equal
    Mutant("same_elements_without_the_size_test",
           _edited_same_elements("self._len != other._len or not self._len",
                                 "not (self._len or other._len)"),
           (test_rel
            .test_carriers_of_different_sizes_differ_without_enumerating),
           ONE_BOUND),
    # a universe is built again at each call, not kept on its scheme
    Mutant("row_carrier_built_per_call",
           lambda monkeypatch: monkeypatch.setattr(
               tables, "row_carrier", _row_carrier_per_call),
           (test_query
            .test_one_evaluation_builds_each_universe_and_projection_map_once),
           ON_SCHEME),
    # the maps kept in one dict by attribute set alone, for every scheme
    Mutant("proj_map_kept_by_attribute_set_alone",
           _edited_proj_map("scheme.proj_maps", "_proj_map.__dict__"),
           _own_projection_maps,
           ON_SCHEME),
    # the example's tables are built and cached by its clean run first, so
    # only the sweep's blocks lose their last one
    Mutant("row_blocks_drop_the_last_block",
           lambda monkeypatch: monkeypatch.setattr(B, "row_blocks", _edited(
               B.row_blocks, "range(0, n, BLOCK_ROWS)",
               "range(0, n - BLOCK_ROWS, BLOCK_ROWS)")),
           _later_block_case("converse_of_compose/last"),
           ROW_BLOCKS),
    Mutant("first_false_by_rows_without_the_row_offset",
           _edited_laws("_first_false_by_rows", "rows.start + hit[0]",
                        "hit[0]"),
           _later_block_case("shunt_function_right/last"),
           ROW_BLOCKS),
    Mutant("first_bit_by_rows_without_the_row_offset",
           _edited_laws("_first_bit_by_rows", "rows.start + ri", "ri"),
           _later_block_case("union_injectivity/last"),
           ROW_BLOCKS),
    # the first block that differs, with its own lowest bit
    Mutant("first_bit_by_rows_lowest_bit_per_block",
           _edited_laws("_first_bit_by_rows", "if x >> low & 1", "if x"),
           _later_block_case("union_injectivity/two"),
           ROW_BLOCKS),
    Mutant("union_fd_typing_lowest_bit_per_block",
           _edited_laws("_first_bit_by_rows", "if x >> low & 1", "if x"),
           _later_block_case("union_fd_typing/two"),
           ROW_BLOCKS),
    # the z groups of Z = 1 are read again at Z = 2, with their y-bitsets
    Mutant("memo_key_of_ker_yz_without_Z",
           _edited_sweep("fd_trading", '("ker(y.z)", b, zz, cy)',
                         '("ker(y.z)", b, cy)'),
           _fd_trading_search_equals_its_oracle,
           ONE_SEARCH),
    Mutant("memo_kept_across_searches",
           _memo_kept_across_searches,
           _corrupted_between_two_searches,
           ONE_SEARCH),
    Mutant("down_or_skips_the_last_bit",
           _edited_laws("_down_or", "range(bits)", "range(bits - 1)"),
           _down_or_on_nine_bits,
           ONE_SEARCH),
    # the subset table of R's carriers, X -> W, not of S's, Y -> W
    Mutant("shunt_reads_the_subset_table_of_the_wrong_pair",
           _edited_sweep("shunt_function_right", "x * w, y, w)",
                         "x * w, x, w)"),
           _shunt_right_equals_its_oracle,
           ONE_SEARCH),
    Mutant("agree_pair_lists_every_domain_value",
           _agree_pair_over_every_value,
           _literal_searches_agree_at((2, 3)),
           TWO_VALUES),
    # `--scope-dom 1` answers a witness over values it does not have
    Mutant("early_return_tests_only_max_rows",
           _edited_in_place(
               search.search_tables,
               "scope.max_rows < 2 or scope.domain_sizes < 2",
               "scope.max_rows < 2"),
           _literal_searches_agree_at((2, 1)),
           TWO_VALUES),
    Mutant("by_input_keeps_the_last_output_of_each_input",
           _edited_in_place(rel._by_input, "index.setdefault(a, []).append(b)",
                            "index[a] = [b]"),
           _every_output_of_an_input,
           PAIRS_ONLY),
    # the right operand's outputs read from the left operand's index
    Mutant("fork_indexes_its_left_operand",
           _edited_in_place(rel.fork, "_by_input(s)", "_by_input(r)"),
           _every_output_of_an_input,
           PAIRS_ONLY),
)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_fails_its_example(mutant, monkeypatch):
    with monkeypatch.context() as clean:
        mutant.example(clean)
    mutant.apply(monkeypatch)
    with pytest.raises(AssertionError):
        mutant.example(monkeypatch)


def test_every_mutant_names_a_changes_heading():
    # a renamed or deleted CHANGES.md entry leaves its mutants untraced
    changes = Path(__file__).resolve().parents[1] / "CHANGES.md"
    headings = re.findall(r"^- \*\*(.+?)\*\*",
                          changes.read_text(encoding="utf-8"), re.M)
    for mutant in MUTANTS:
        assert any(h.startswith(mutant.described_in) for h in headings), (
            mutant.name)
