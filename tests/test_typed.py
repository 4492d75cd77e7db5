"""The algebraic table oracle of `relfd.typed`, built over the row tuples
themselves, apart from the coded route `fd.satisfies_shunted`."""

from relfd import rel
from relfd.fd import AttrFd
from relfd.rel import Atom, Carrier, identity
from relfd.tables import Scheme, Table, proj_fn, row_carrier
from relfd.typed import stored_fd_projections


def test_stored_projections_are_proj_fn_restricted_to_the_stored_rows():
    # domains listed out of value order
    s = Scheme(tuple((n, Carrier(n, (Atom("1"), Atom("0"), Atom("2"))))
                     for n in ("X", "Y", "Z")))
    universe = row_carrier(s).elements
    t = Table.make(s, set(universe[3::4]))
    # the sides {Z, X}, {Y} and an empty antecedent
    for fd in (AttrFd({"Z", "X"}, {"Y"}), AttrFd(set(), {"Z", "X"})):
        p, x, y = stored_fd_projections(t, fd)
        stored = p.source
        assert p == identity(stored)
        assert len(stored) == len(t.rows) and set(stored.elements) == t.rows
        for f, attrs in ((x, fd.antecedent), (y, fd.consequent)):
            assert f.source == stored and rel.is_function(f)
            assert f.pairs == {(a, b) for a, b in proj_fn(s, attrs).pairs
                               if a in t.rows}
            assert set(f.target.elements) == {b for _, b in f.pairs}
