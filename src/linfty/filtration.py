"""The lower central filtration of a structure, whose reaching zero certifies nilpotency.

No command runs the series, so it lives apart from :mod:`linfty.algebra`,
which every command loads.
"""

from __future__ import annotations

from .grading import Element, GradedSpace, InputError, MultiMap, integer_rows, walk_index
from .algebra import LInftyStructure, compositions
from . import linalg


class FiltrationChain:
    """Lower central filtration F^1 >= F^2 >= ..., each level given by spanning elements.

    ``subspaces[i - 1]`` is level i, a list of :class:`Element`: the rows of
    its reduced row echelon form in :meth:`GradedSpace.column_order`, so by
    degree and then by pivot.  ``nilpotent`` says the chain reached zero,
    first at level ``depth``; otherwise ``depth`` is None and the chain
    stopped where a level repeated the one before.
    """

    def __init__(
        self,
        structure: LInftyStructure,
        subspaces: list[list[Element]],
        nilpotent: bool,
        depth: int | None,  # first i with F^i = 0 when nilpotent
    ):
        self.structure = structure
        self.subspaces = subspaces
        self.nilpotent = nilpotent
        self.depth = depth

    def spanning_elements(self, level: int) -> list[Element]:
        """Level ``level``'s spanning elements; none at or past a certified depth."""
        if level < 1:
            raise InputError("filtration levels start at 1, not %d" % level)
        if level > len(self.subspaces):
            if self.nilpotent:
                return []
            raise InputError("level %d is past the last computed level, %d" % (level, len(self.subspaces)))
        return list(self.subspaces[level - 1])

    def verdict(self) -> str:
        if self.nilpotent:
            return "nilpotent at depth %d" % self.depth
        return "not within bound"


def _closure(
    generators: list[Element], q1: MultiMap | None, space: GradedSpace, order: dict
) -> list[Element]:
    """The reduced row echelon rows of the Q_1-closure of the span of ``generators``.

    Q_1 is applied once to each row that joins, since those rows span it.
    """
    basis: dict = {}
    while generators:
        joined = [e for e in generators if linalg.extend(basis, e.coeffs, order)]
        generators = [q1.apply([e]) for e in joined] if q1 is not None else []
    return [Element(space, order[p][0], row) for row, p in zip(*linalg.echelon(basis, order))]


def _index(elements: list[Element]) -> dict[str, list[tuple]]:
    """The :meth:`MultiMap.walk` index of a level's spanning elements, their
    integer numerators over one denominator, each row its position and degree."""
    return walk_index(integer_rows(e.coeffs for e in elements), ((p, e.degree) for p, e in enumerate(elements)))[0]


def _generators(q: MultiMap, total: int, pools: list) -> list[Element]:
    """``q`` on each multiset of spanning elements of levels i_1 <= ... <= i_k summing
    to ``total`` whose names can reach a stored word, equal levels a run; each
    times the positive product of the denominators, which leaves its span alone."""
    out = []
    for parts in compositions(total, q.weight, range(1, total + 1)):
        slots = [(pools[p - 1], j > 0 and p == parts[j - 1]) for j, p in enumerate(parts)]
        sums: dict[tuple, dict] = {}  # chosen (position, degree) rows -> name -> numerator
        for chosen, row, c in q.walk(slots, 1, lambda chosen, p: chosen + (p,), ()):
            into = sums.setdefault(chosen, {})
            for name, n in row:
                into[name] = into.get(name, 0) + c * n
        out += [Element(q.target, sum(d for _, d in chosen) + q.degree, into) for chosen, into in sums.items()]
    return out


def lower_central_series(structure: LInftyStructure) -> FiltrationChain:
    """The least decreasing filtration the structure maps respect; zero certifies nilpotency.

    F^1 = L and, for i >= 2, F^i is the Q_1-closure of the span of all
    Q_k(F^{i_1}, ..., F^{i_k}) with k >= 2 and i_1 + ... + i_k >= i: the
    least decreasing filtration with Q_k(F^{i_1}, ...) inside F^{i_1 + ...}.
    Every level lies in the one before: by induction F^i lies in F^{i-1}, so
    lowering each part i of a generator of F^{i+1} to i - 1 gives one of
    F^i.  Lowering a part therefore only enlarges a generator's span, and it
    suffices to evaluate Q_k on the compositions of exactly max(i, k), which
    for every i <= k is Q_k(L, ..., L), evaluated once.  Q_k is
    graded-symmetric, so only non-decreasing compositions are read, and
    each is one :meth:`MultiMap.walk` of Q_k over the levels' spanning
    elements, equal parts a run: it evaluates each multiset of elements
    whose names can reach a stored word, as the sum of its completed terms.

    The series stops at the first level that is zero (nilpotent, ``depth``
    that level) or equal to the one before (no certificate).  Each level
    before the depth is strictly smaller than the one before, so a certified
    depth is at most dim + 1.  With Q_k for k >= 3 a repeated level need not
    repeat for ever: on {x:1, y:2} with Q3(x,x,x) = y levels 2 and 3 are
    span(y) and level 4 is zero, and the series certifies nothing there.
    Q_k for k >= 3 reaches every level below k, where compositions of i
    alone would miss it:

    >>> from linfty.algebra import check_relations, make_linfty
    >>> V = GradedSpace([("a", -1), ("b", 0), ("c", 1)])
    >>> def q(n, entries):
    ...     return MultiMap.from_entries(V, V, n, 2 - n, entries)
    >>> L = make_linfty(V, {1: q(1, {("b",): {"c": -1}}),
    ...                     3: q(3, {("a", "b", "c"): {"a": -1}}),
    ...                     4: q(4, {("b", "c", "c", "c"): {"c": -1}})}, cap=4)
    >>> check_relations(L).passed
    True
    >>> chain = lower_central_series(L)
    >>> chain.verdict(), chain.spanning_elements(2)
    ('not within bound', [1*a, 1*c])
    """
    space = structure.space
    order = space.column_order()
    levels = [_closure([Element.basis(space, n) for n in space.names], None, space, order)]
    pools = [_index(levels[0])]
    maps = [q for k, q in sorted(structure.maps.items()) if k >= 2]
    # Q_k(L, ..., L): the generators from Q_k of every level i <= k
    whole = [_generators(q, q.weight, pools) for q in maps]
    q1 = structure.maps.get(1)
    i = 1
    while True:
        i += 1
        generators: list[Element] = []
        for q, on_whole in zip(maps, whole):
            generators += on_whole if q.weight >= i else _generators(q, i, pools)
        current = _closure(generators, q1, space, order)
        levels.append(current)
        pools.append(_index(current))
        if not current or current == levels[-2]:
            return FiltrationChain(structure, levels, not current, None if current else i)
