import random
import sys
from fractions import Fraction

from linfty import GradedSpace, linalg

from conftest import reference_row_reduce

F = Fraction


def random_sparse_matrix(rng):
    """Sparse rational matrix, sometimes with a zero row or a zero column."""
    nrows, ncols = rng.randint(0, 9), rng.randint(1, 6)
    rows = [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.35 else F(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [F(0)] * ncols
    if rng.random() < 0.3:
        column = rng.randrange(ncols)
        for row in rows:
            row[column] = F(0)
    return rows, ncols


def sparse(row, keys):
    """A dense row as a key -> nonzero coefficient dict."""
    return {k: c for k, c in zip(keys, row) if c}


def dense(row, keys):
    return [row.get(k, F(0)) for k in keys]


def test_row_reduce_matches_the_dense_reference():
    rng = random.Random(59)
    tall = 0
    for _ in range(400):
        rows, ncols = random_sparse_matrix(rng)
        keys = list(range(ncols))
        given = [sparse(r, keys) for r in rows]
        before = [dict(r) for r in given]
        got_rows, got_pivots = linalg.row_reduce(given, {k: k for k in keys})
        want_rows, want_pivots = reference_row_reduce(rows)
        assert got_pivots == want_pivots
        assert [dense(r, keys) for r in got_rows] == want_rows
        assert all(r[p] == 1 and all(c for c in r.values()) for r, p in zip(got_rows, got_pivots))
        assert all(type(x) is Fraction for row in got_rows for x in row.values())
        assert given == before
        tall += len(rows) > ncols
    assert tall > 50


def test_row_reduce_follows_the_given_column_order():
    # names declared out of degree order: the column order is degree first,
    # not declaration and not the order in which a row's keys were inserted,
    # and the reduction equals the dense one with the columns in that order
    space = GradedSpace([("c", 2), ("a", 0), ("e", 1), ("b", 0), ("d", 1), ("f", 2)])
    order = space.column_order()
    columns = sorted(space.names, key=order.__getitem__)
    assert columns == ["a", "b", "e", "d", "c", "f"]
    rng = random.Random(67)
    reversed_rows = 0  # rows whose keys were inserted against the column order
    for _ in range(200):
        rows, _ = random_sparse_matrix(rng)
        rows = [[F(0)] * (6 - len(r)) + r for r in rows]
        given = [dict(reversed(list(sparse(r, columns).items()))) for r in rows]
        got_rows, got_pivots = linalg.row_reduce(given, order)
        want_rows, want_pivots = reference_row_reduce(rows)
        assert got_pivots == [columns[p] for p in want_pivots]
        assert [dense(r, columns) for r in got_rows] == want_rows
        reversed_rows += sum(len(r) > 1 for r in given)
    assert reversed_rows > 200


def test_extend_keeps_exactly_the_rows_that_raise_the_rank():
    # a row joins the basis exactly when it raises the dense rank of the rows
    # before it, and the basis stays the reduced form of the rows that joined
    rng = random.Random(71)
    dependent = 0
    for _ in range(300):
        rows, ncols = random_sparse_matrix(rng)
        keys = list(range(ncols))
        order = {k: k for k in keys}
        rows += [[a + b for a, b in zip(rows[0], rows[-1])]] if rows else []
        basis: dict = {}
        for i, row in enumerate(rows):
            before = len(reference_row_reduce(rows[:i])[1])
            after = len(reference_row_reduce(rows[: i + 1])[1])
            assert linalg.extend(basis, sparse(row, keys), order) == (after > before)
            dependent += after == before
            want_rows, want_pivots = reference_row_reduce(rows[: i + 1])
            got_rows, got_pivots = linalg.echelon(basis, order)
            assert got_pivots == want_pivots
            assert [dense(r, keys) for r in got_rows] == want_rows
    assert dependent > 100


def big_matrix(rng):
    """Rows over 2**100-sized coprime denominators, with rows proportional to
    earlier ones and combinations of earlier ones, which cancel exactly."""
    ncols = rng.randint(1, 6)
    base = 2**100 + rng.randrange(2**20)

    def entry():
        # adjacent denominators base + k and base + k + 1 are coprime
        return F(rng.randrange(-2**100, 2**100), base + rng.randrange(4))

    rows = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random() if rows else 0
        if kind < 0.5:
            rows.append([entry() if rng.random() < 0.6 else F(0) for _ in range(ncols)])
        elif kind < 0.75:
            c = entry() or F(1)
            rows.append([c * x for x in rng.choice(rows)])
        else:
            a, b, c, d = rng.choice(rows), rng.choice(rows), entry(), entry()
            rows.append([c * x + d * y for x, y in zip(a, b)])
    return rows, ncols


def test_extend_on_huge_coprime_denominators_matches_the_dense_reference():
    rng = random.Random(73)
    dependent = huge = 0
    for _ in range(150):
        rows, ncols = big_matrix(rng)
        keys = list(range(ncols))
        order = {k: k for k in keys}
        basis: dict = {}
        rank = 0
        for i, row in enumerate(rows):
            after = len(reference_row_reduce(rows[: i + 1])[1])
            assert linalg.extend(basis, sparse(row, keys), order) == (after > rank)
            dependent += after == rank
            rank = after
        want_rows, want_pivots = reference_row_reduce(rows)
        got_rows, got_pivots = linalg.echelon(basis, order)
        assert got_pivots == want_pivots
        assert [dense(r, keys) for r in got_rows] == want_rows
        assert linalg.row_reduce([sparse(r, keys) for r in rows], order) == (got_rows, got_pivots)
        assert all(r[p] == 1 for r, p in zip(got_rows, got_pivots))
        huge += any(x.denominator > 2**100 for r in got_rows for x in r.values())
    assert dependent > 100 and huge > 50


def test_extend_makes_no_fraction_arithmetic():
    # the kernel scales each row to integers and reduces in int: no Fraction
    # product, sum, difference or quotient runs while it reduces Fraction rows
    watched = {
        getattr(Fraction, name).__code__ for name in ("_mul", "_add", "_sub", "_div")
    }
    rng = random.Random(79)
    matrices = [random_sparse_matrix(rng) for _ in range(60)] + [big_matrix(rng) for _ in range(20)]
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.append(frame.f_code.co_name)

    extended = 0
    for rows, ncols in matrices:
        keys = list(range(ncols))
        order = {k: k for k in keys}
        given = [sparse(r, keys) for r in rows]
        basis: dict = {}
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            extended += sum(linalg.extend(basis, row, order) for row in given)
        finally:
            sys.setprofile(previous)
    assert seen == []
    assert extended > 100
