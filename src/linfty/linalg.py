"""Exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction entries.  Everything here is
Gauss-Jordan elimination that scales the pivot row, and subtracts it from
the other rows, over the pivot row's nonzero columns only; exactness of the
field makes ranks and kernels certificate-free.  The pivot columns of a
reduction are the greedy choice of columns outside the span of the columns
before them, which is how ``morphism.cohomology`` picks its representatives:
one reduction of the transposed ``[image; kernel]`` matrix per degree.
"""

from __future__ import annotations

from fractions import Fraction


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices (copy, not in place)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        inv = Fraction(1, 1) / row[c]
        # Rows from r on are zero left of c, so the support starts at c.
        support = [j for j in range(c, ncols) if row[j]]
        for j in support:
            row[j] *= inv
        for i, other in enumerate(m):
            factor = other[c]
            if factor and i != r:
                for j in support:
                    other[j] -= factor * row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    reduced, pivots = row_reduce(rows)
    return len(pivots)


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix (rows act on column vectors)."""
    reduced, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def solve_all(
    rows: list[list[Fraction]], targets: list[list[Fraction]]
) -> list[list[Fraction] | None]:
    """Per target t, coefficients c with sum(c_i * rows[i]) == t, or None; one reduction."""
    if not rows:
        return [None if any(t) else [] for t in targets]
    n, ncols = len(rows), len(rows[0])
    # Transpose: columns are the given rows, then the targets; solve A c = t.
    aug = [[row[c] for row in rows] + [t[c] for t in targets] for c in range(ncols)]
    reduced, pivots = row_reduce(aug)
    rank = sum(p < n for p in pivots)
    out: list[list[Fraction] | None] = []
    for j in range(n, n + len(targets)):
        # t lies in the span unless a row pivoting on the targets has an entry in its column
        if any(row[j] for row in reduced[rank:]):
            out.append(None)
            continue
        coeffs = [Fraction(0)] * n
        for r in range(rank):
            coeffs[pivots[r]] = reduced[r][j]
        out.append(coeffs)
    return out


def reduce_spanning_set(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Independent subset-equivalent basis (echelon rows) of the span."""
    reduced, _ = row_reduce(rows)
    return [r for r in reduced if any(r)]

