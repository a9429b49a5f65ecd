"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction entries.  Everything here is
plain Gaussian elimination; exactness of the field makes ranks and kernels
certificate-free.
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
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
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


def in_span(rows: list[list[Fraction]], vector: list[Fraction]) -> bool:
    """Whether ``vector`` lies in the row span of ``rows``."""
    if all(x == 0 for x in vector):
        return True
    if not rows:
        return False
    before = rank(rows)
    return rank(rows + [vector]) == before


def solve(
    rows: list[list[Fraction]], target: list[Fraction]
) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * rows[i]) == target, or None."""
    if not rows:
        return [] if all(x == 0 for x in target) else None
    ncols = len(rows[0])
    # Transpose: columns are the given rows, solve A c = target.
    aug = [[rows[r][c] for r in range(len(rows))] + [target[c]] for c in range(ncols)]
    reduced, pivots = row_reduce(aug)
    n = len(rows)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r][n]
    return coeffs


def reduce_spanning_set(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Independent subset-equivalent basis (echelon rows) of the span."""
    reduced, _ = row_reduce(rows)
    return [r for r in reduced if any(x != 0 for x in r)]

