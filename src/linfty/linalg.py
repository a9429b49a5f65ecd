"""Exact linear algebra over the rationals, on sparse rows.

A row is a dict from key to nonzero ``Fraction``, and the caller gives the
column order as a mapping from key to sort key; basis names of a graded space
are ordered by ``GradedSpace.column_order``, degree first.  One kernel,
:func:`extend`, reduces a row against a pivot -> row dict kept in reduced
row echelon form and adds the row when it is independent; every row it
touches is updated over that row's own keys only, and a row that cancels is
dropped.  Exactness of the field makes ranks, kernels and spans
certificate-free, and the reduced row echelon form is unique, so the rows
:func:`row_reduce` returns depend only on the span and the order.  Called on
rows in turn, :func:`extend` keeps exactly the rows outside the span of the
rows before them: that greedy choice is how ``morphism.cohomology`` picks its
representatives and how ``morphism.is_quasi_iso`` compares spans.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def extend(basis: dict, row: Mapping, order: Mapping) -> bool:
    """Reduce ``row`` against ``basis`` and add it when independent; whether it was.

    ``basis`` maps each pivot key to its row, with coefficient 1 at the pivot
    and 0 at every other pivot; ``row`` is read, not changed.
    """
    row = dict(row)
    for pivot in [key for key in row if key in basis]:
        # basis rows vanish at the other pivots, so row[pivot] is still current
        _subtract(row, row[pivot], basis[pivot])
    if not row:
        return False
    pivot = min(row, key=order.__getitem__)
    inverse = Fraction(1) / row[pivot]
    row = {key: c * inverse for key, c in row.items()}
    for other in basis.values():
        factor = other.get(pivot)
        if factor:
            _subtract(other, factor, row)
    basis[pivot] = row
    return True


def _subtract(row: dict, factor, other: Mapping):
    """``row -= factor * other`` in place, dropping keys that cancel."""
    for key, c in other.items():
        value = row.get(key, 0) - factor * c
        if value:
            row[key] = value
        else:
            del row[key]


def row_reduce(rows: list, order: Mapping) -> tuple[list[dict], list]:
    """The nonzero rows of the reduced row echelon form of ``rows``, in pivot
    order, and their pivot keys; ``rows`` are not changed."""
    basis: dict = {}
    for row in rows:
        extend(basis, row, order)
    pivots = sorted(basis, key=order.__getitem__)
    return [basis[p] for p in pivots], pivots
