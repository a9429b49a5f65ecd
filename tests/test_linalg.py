import random
from fractions import Fraction

from linfty import linalg

from conftest import reference_row_reduce, reference_solve

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
    return rows


def test_row_reduce_matches_the_dense_reference():
    rng = random.Random(59)
    tall = 0
    for _ in range(400):
        rows = random_sparse_matrix(rng)
        before = [list(r) for r in rows]
        got_rows, got_pivots = linalg.row_reduce(rows)
        want_rows, want_pivots = reference_row_reduce(rows)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        assert all(type(x) is Fraction for row in got_rows for x in row)
        assert rows == before
        tall += len(rows) > len(rows[0]) if rows else 0
    assert tall > 50


def test_solve_all_matches_one_solve_per_target():
    # targets in the span (random combinations of the rows) and random ones,
    # against one dense reduction per target; a solution reproduces its target
    rng = random.Random(61)
    outside = 0
    for _ in range(300):
        rows = random_sparse_matrix(rng)
        ncols = len(rows[0]) if rows else rng.randint(1, 6)
        targets = []
        for _ in range(rng.randint(0, 4)):
            if rows and rng.random() < 0.5:
                weights = [F(rng.randint(-2, 2)) for _ in rows]
                targets.append([sum((w * r[c] for w, r in zip(weights, rows)), F(0))
                                for c in range(ncols)])
            else:
                targets.append([F(rng.randint(-1, 1)) for _ in range(ncols)])
        got = linalg.solve_all(rows, targets)
        assert got == [reference_solve(rows, t) for t in targets]
        for target, coeffs in zip(targets, got):
            if coeffs is None:
                outside += 1
            else:
                assert [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
                        for j in range(ncols)] == target
    assert outside > 50
