"""Exact linear algebra over the rationals, on sparse rows, fraction-free inside.

A row is a dict from key to nonzero ``Fraction``, and the caller gives the
column order as a mapping from key to sort key; basis names of a graded space
are ordered by ``GradedSpace.column_order``, degree first.  One kernel,
:func:`extend`, scales a row to integers once, reduces it against a basis of
primitive integer rows (content 1, positive at the pivot and 0 at the other
pivots) by integer combinations ``a * row - f * other``, and adds it when it
is independent; :func:`echelon` makes the ``Fraction`` rows, dividing each
row by its pivot.  The reduced row echelon form is unique, so the rows
:func:`row_reduce` returns depend only on the span and the order.  Called on
rows in turn, :func:`extend` keeps exactly the rows outside the span of the
rows before them: that greedy choice is how ``morphism.cohomology`` picks its
representatives and how ``morphism.is_quasi_iso`` compares spans.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping


def extend(basis: dict, row: Mapping, order: Mapping) -> bool:
    """Reduce ``row`` against ``basis`` and add it when independent; whether it was.

    ``basis`` is read through :func:`echelon`; ``row`` is read, not changed.
    """
    scale = lcm(*(c.denominator for c in row.values()))
    row = {key: c.numerator * (scale // c.denominator) for key, c in row.items()}
    for pivot in [key for key in row if key in basis]:
        # basis rows vanish at the other pivots, so row[pivot] is still current
        _eliminate(row, pivot, basis[pivot])
    if not row:
        return False
    pivot = min(row, key=order.__getitem__)
    content = gcd(*row.values()) if row[pivot] > 0 else -gcd(*row.values())
    row = {key: c // content for key, c in row.items()}
    for other in basis.values():
        if pivot in other:
            _eliminate(other, pivot, row)
            content = gcd(*other.values())
            for key in other:
                other[key] //= content
    basis[pivot] = row
    return True


def _eliminate(row: dict, pivot, other: Mapping):
    """``row = a * row - f * other`` in place, a > 0, zero at ``pivot``; cancelled keys are dropped."""
    g = gcd(row[pivot], other[pivot])
    f, a = row[pivot] // g, other[pivot] // g
    if a != 1:
        for key in row:
            row[key] *= a
    for key, c in other.items():
        value = row.get(key, 0) - f * c
        if value:
            row[key] = value
        else:
            del row[key]


def echelon(basis: dict, order: Mapping) -> tuple[list[dict], list]:
    """The reduced row echelon ``Fraction`` rows of ``basis`` in pivot order, and the pivots."""
    pivots = sorted(basis, key=order.__getitem__)
    return [{key: Fraction(c, basis[p][p]) for key, c in basis[p].items()} for p in pivots], pivots


def row_reduce(rows: list, order: Mapping) -> tuple[list[dict], list]:
    """The nonzero rows of the reduced row echelon form of ``rows``, in pivot
    order, and their pivot keys; ``rows`` are not changed."""
    basis: dict = {}
    for row in rows:
        extend(basis, row, order)
    return echelon(basis, order)
