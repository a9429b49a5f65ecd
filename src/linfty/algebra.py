"""L-infinity structures: validation, coderivation lift and relation checking.

A structure on a space L is a family of multilinear maps Q_n of weight n and
degree 2 - n, up to a weight cap; maps of weight above the cap are zero by
convention and every guarantee is "up to the cap".  The family induces a
degree-1 square-zero coderivation on the weight-truncated coalgebra whose
weight-n word piece is

    Q(g_1 ^ ... ^ g_m) = sum over subsets S of size k of
        (-1)**(k*(m-k)) * e(S) * Q_k(g_S) ^ g_rest

with e(S) the sign of moving S to the front.  The weight-crossing factor
(-1)**(k*(m-k)) is forced by the suspension hidden in the word grading; with
it, differential graded Lie algebras embed with no sign twist and the
relation residuals agree with the classical unshuffle identities with
coefficients (-1)**(i*(j-1)).  No check applies Q word by word:
:meth:`Coderivation.precompose` forms the cogenerator part of maps after Q
from stored entries, through :func:`entry_splittings`, the one kernel of
maps after either lift and of :func:`~linfty.mc.twist`, which adds into
integer word totals (:class:`~linfty.grading.Totals`).  Its slots are
indexes that :func:`entry_index` builds once from integer rows and their
owner keeps.  The block-splitting sign of blocks of W is W's desuspension
sign, the classical Koszul sign of the rearrangement on degrees lowered by
one, each block's desuspension sign and that of the blocks' suspended
degrees; a term of Q at S, read by f_n, has the sign of W's splitting into
S and single names times (-1)**(n-1).

Every check returns a report with one protocol: ``summary()`` is its text,
``to_json()`` its JSON payload, and a report that gives a verdict also has
``passed``.  :class:`ResidualReport` is the report of every check whose
verdict is a set of residuals at words: the relations here, morphism
compatibility and mapping-space curvature elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import factorial
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .grading import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    Totals,
    Word,
    add_scaled,
    canonicalize_word,
    family_rows,
    map_family,
    walk_index,
    wedge_basis,
)

if TYPE_CHECKING:
    from .coalgebra import CoalgebraElement


class LInftyStructure:
    """A graded space with structure maps {Q_n} up to a weight cap."""

    def __init__(self, space: GradedSpace, maps: Mapping[int, MultiMap], cap: int):
        if type(cap) is not int or cap < 1:
            raise InputError("cap %r is not an integer >= 1" % (cap,))
        self.space = space
        self.cap = cap
        self.maps: Mapping[int, MultiMap] = MappingProxyType(map_family(maps, space, space, cap, 2))
        self._verified = False
        # entry_splittings' memo of the words joined over this space and cap
        self.joined: dict = space.kernel_memos.setdefault(("joined", cap), {})

    @property
    def verified(self) -> bool:
        """Whether :func:`check_relations` last found the relations to hold; read-only."""
        return self._verified

    def accumulate(self, totals: Totals, n: int, elements: Sequence[Element], scalar) -> None:
        """Add ``scalar`` times Q_n on n elements into ``totals`` at None."""
        if len(elements) != n:
            raise InputError("Q_%d applied to %d arguments" % (n, len(elements)))
        for e in elements:
            if e.space is not self.space and e.space != self.space:
                raise InputError("element does not live in the structure's space")
        q = self.maps.get(n)
        if q is not None:
            q.accumulate(totals, elements, scalar)

    def build(self, degree: int, totals: Totals) -> Element:
        return totals.element(self.space, degree)

    def arities(self) -> set[int]:
        """The weights n with a stored Q_n; Q_n is zero at every other."""
        return set(self.maps)

    @cached_property
    def lift_slots(self) -> tuple[tuple, tuple]:
        """:meth:`Coderivation.precompose`'s slot indexes (:func:`entry_index`): the stored Q_k
        entries, built once as ``maps`` is read-only, and the basis names as entries ``(x,) -> x``,
        once per space and cap."""
        names = self.space.kernel_memos.get(("names", self.cap))
        if names is None:
            names = self.space.kernel_memos["names", self.cap] = entry_index(
                (1, {(x,): ((x, 1),) for x in self.space.names}), self)
        return entry_index(family_rows(self.maps.values()), self), names

    def words(self) -> list[Word]:
        out: list[Word] = []
        for n in range(1, self.cap + 1):
            out.extend(wedge_basis(self.space, n))
        return out

    def __repr__(self):
        weights = sorted(self.maps)
        return "LInftyStructure(dim=%d, cap=%d, map weights=%s)" % (
            self.space.dimension(),
            self.cap,
            weights,
        )


def make_linfty(
    space: GradedSpace, maps: Mapping[int, MultiMap], cap: int
) -> LInftyStructure:
    """Assemble and degree-check a structure; relations stay unverified."""
    return LInftyStructure(space, maps, cap)


def same_structure(a: LInftyStructure, b: LInftyStructure) -> bool:
    """Whether ``a`` and ``b`` are one structure: the same object, or equal in space, cap and maps."""
    return a is b or (a.space == b.space and a.cap == b.cap and a.maps == b.maps)


def from_dgla(
    space: GradedSpace,
    differential: MultiMap | None,
    bracket: MultiMap | None,
    cap: int = 3,
) -> LInftyStructure:
    """Differential graded Lie algebra as the structure with Q_n = 0, n >= 3.

    The differential (weight 1, degree 1) and bracket (weight 2, degree 0)
    go in untwisted; with the lift convention above this is exactly the
    embedding for which the relation check reduces to d*d = 0, the graded
    Jacobi identity and the derivation rule.  A missing map is zero.
    """
    return LInftyStructure(space, {1: differential, 2: bracket}, cap)


class Coderivation:
    """The induced degree-1 endomap of the weight-truncated coalgebra."""

    def __init__(self, structure: LInftyStructure):
        self.structure = structure
        self._cache: dict[Word, CoalgebraElement] = {}

    def on_word(self, word: Word) -> CoalgebraElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        from .coalgebra import CoalgebraElement, unshuffles
        space = self.structure.space
        factors = word.factors
        degrees = space.degrees_of(factors)
        terms: dict = {}
        for k, q in self.structure.maps.items():
            for sign, chosen, rest in unshuffles(degrees, k):
                value = q.by_factors.get(tuple(factors[i] for i in chosen))
                if value is None:
                    continue
                rest_names = tuple(factors[i] for i in rest)
                for name, coeff in value.coeffs.items():
                    new_word, csign = canonicalize_word((name,) + rest_names, space)
                    if new_word is not None:
                        add_scaled(terms, CoalgebraElement.from_word(space, new_word), sign * csign * coeff)
        out = CoalgebraElement(space, terms)
        self._cache[word] = out
        return out

    def precompose(self, maps: Mapping[int, MultiMap], scalar=1, out: Totals | None = None) -> Totals:
        """``scalar`` times the cogenerator part of ``maps`` after the lift, added to ``out`` by word.

        The value at a word W, sums by name, is the sum of
        ``c * maps[|u|](u)`` over the terms ``c*u`` of ``on_word(W)``.  A term
        puts Q_k(S) before the rest of W, so f_n = maps[n] reads the ordered
        splittings of W into a block S of a stored Q_k entry and n - 1 single
        names: :func:`entry_splittings` with a slot of the Q_k entries at
        shift 1 and a run of n - 1 slots of the basis names at shift 0
        (:attr:`LInftyStructure.lift_slots`).  The run counts the rest's
        (n - 1)! orderings, and f_n's desuspension sign sees the one degree
        Q adds to its first argument pass the n - 1 others: the scalar is
        ``scalar * (-1)**(n - 1) / (n - 1)!``.

        >>> V = GradedSpace([("b", 1), ("c", 2)])
        >>> q1 = MultiMap.from_entries(V, V, 1, 1, {("b",): {"c": Fraction(1)}})
        >>> f2 = MultiMap.from_entries(V, V, 2, -1, {("b", "c"): {"c": Fraction(1)}})
        >>> got = Coderivation(make_linfty(V, {1: q1}, cap=2)).precompose({2: f2})
        >>> {word.factors: sums for word, sums in got.sums.items()}, got.den
        ({('b', 'b'): {'c': 2}}, 1)
        """
        out = Totals() if out is None else out
        entries, names = self.structure.lift_slots
        for n, f in maps.items():
            signed = -scalar if n % 2 == 0 else scalar
            scaled = signed if n <= 2 else Fraction(signed, factorial(n - 1))
            entry_splittings(out, self.structure, [(1, entries)] + [(0, names)] * (n - 1), f, scaled)
        return out


def entry_splittings(
    totals: Totals, source: LInftyStructure, slots: Sequence[tuple[int, tuple]], q: MultiMap, scalar=1
) -> None:
    """Add ``scalar`` times Q'_n on the ordered splittings that read one entry per slot into ``totals``.

    Slot j is ``(shift, index)``: an integer and the :func:`entry_index`
    over ``source`` of entries w -> v, canonical factor tuples to values
    that ``q`` (a map Q'_n) reads.  The empty block ``()`` has weight 0 and
    suspended degree 1: ``{(): pi}`` reads a vector ahead.  For every choice
    of one entry per slot whose blocks join into a word W, of weight at most
    the cap of ``source``, that does not vanish, and of one name of each v_i
    that together make up a word Q'_n stores, the
    :meth:`~linfty.grading.MultiMap.walk` makes a term: the stored value
    times the walk coefficient times the signed count of the splittings of
    W into position blocks that read w_1, ..., w_n, added per W and name in
    ``int`` (over the scalar's, each slot's and ``q``'s denominators); none
    when a slot's index holds no name that ``q``'s stored words read.  The
    splittings differ only in how the copies of a repeated odd-degree name
    are spread over the blocks, so their number is a product of
    multinomials and they share one sign: the block-splitting sign times
    the crossing ``(-1)**(shift_j * (deg w_i - weight w_i))`` of each shift
    past the earlier blocks.  Consecutive slots that read one index, each at
    an even shift, form a run, whose entries the walk chooses as a
    multiset, counted by their orderings.

    The sign is the walk's ``step``, slot by slot: only two even-degree
    names of different blocks swap with an odd sign, a popcount of the
    earlier blocks' even names against a mask of the new block's; the rest
    are per-block constants and prefix sums; W's own desuspension sign and
    multiplicity are kept in :attr:`LInftyStructure.joined`.  A block too
    heavy to leave a name for each later slot is dropped: exact for
    nonempty blocks, and with empty ones when n <= cap and no block weighs
    over 1, as in :func:`~linfty.mc.twist`.  A run of two slots reads the
    distinct pair once, counted twice; two slots over equal but distinct
    indexes read both orders, whose signs cancel:

    >>> V = GradedSpace([("a", 0), ("b", 1)])
    >>> L = make_linfty(V, {}, cap=2)
    >>> q2 = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": 1}})
    >>> entries = (1, {("a",): (("a", 1),), ("b",): (("b", 1),)})
    >>> index = entry_index(entries, L)
    >>> for slots in ([(0, index)] * 2, [(0, index), (0, entry_index(entries, L))]):
    ...     totals = Totals()
    ...     entry_splittings(totals, L, slots, q2, Fraction(1, 2))
    ...     print({word.factors: sums for word, sums in totals.sums.items()}, totals.den)
    {('a', 'b'): {'b': 2}} 2
    {('a', 'b'): {'b': 2}} 2
    """
    cap, joined, stored = source.cap, source.joined, q.stored_names
    walk_slots, shifts, den = [], [], scalar.denominator * q.rows[0]
    for j, (shift, (index, d)) in enumerate(slots):
        if stored.isdisjoint(index):
            return
        den *= d
        walk_slots.append((index, j > 0 and index is walk_slots[-1][0] and shift % 2 == 0 == shifts[-1]))
        shifts.append(shift % 2)
    last = len(slots) - 1

    # a state: weight, even-name mask, suspended degree, sign exponent,
    # multiset code, repeat tally and blocks; after the last slot, W and its
    # signed count
    def step(state, row):
        weight, evens, suspended, parity, code, tally, blocks = state
        j = len(blocks)
        w, even, mask, p, s, c, t, letters = row
        if weight + w > cap - last + j or evens & even:
            return None
        # the earlier blocks' suspended degrees (less one each, against the
        # shift) are all slot j needs of them, besides their even names
        exponent = parity + suspended + shifts[j] * (suspended - j) + p + (evens & mask).bit_count()
        if j < last:
            return weight + w, evens | even, suspended + s, exponent, code + c, tally * t, blocks + (letters,)
        got = joined.get(code + c)
        if got is None:
            got = joined[code + c] = _joined_word(blocks + (letters,))
        word, word_parity, word_tally = got
        ways = word_tally // (tally * t)
        return word, -ways if (exponent + word_parity) % 2 else ways

    sums, up = totals.over(den)
    for (word, ways), row, coefficient in q.walk(walk_slots, scalar.numerator * up, step, (0, 0, 0, 0, 0, 1, ())):
        into, coefficient = sums.setdefault(word, {}), coefficient * ways
        for name, n in row:
            into[name] = into.get(name, 0) + coefficient * n


def entry_index(entries: tuple[int, Mapping[tuple[str, ...], tuple]], source: LInftyStructure) -> tuple[dict, int]:
    """An :func:`entry_splittings` slot's index of ``entries``, integer rows over a denominator
    by canonical factor tuple (:func:`~linfty.grading.family_rows`), over ``source``'s space and
    cap: the walk index (:func:`~linfty.grading.walk_index`) by every value name, each row's
    payload its block row, and its denominator."""
    space, base, (den, rows) = source.space, source.cap + 1, entries
    blocks = space.kernel_memos.setdefault(("blocks", base), {})
    block_rows = (blocks.get(w) or blocks.setdefault(w, _block_row(w, space, base)) for w in rows)
    return walk_index((den, rows.values()), block_rows)


def _block_row(factors: tuple[str, ...], space: GradedSpace, base: int) -> tuple:
    """What :func:`entry_splittings` reads of one entry, formed once per space and cap.

    ``mask`` has bit a set when an odd number of the block's even-degree
    names come before basis index a; ``code`` adds up to the multiset code
    of a join, and ``letters`` are the block's (index, degree, name) triples.
    """
    letters = tuple((space.index(name), space.degree(name), name) for name in factors)
    degree, parity, tally = _summary(letters)
    even = mask = code = 0
    for i, d, _ in letters:
        code += base ** i
        if d % 2 == 0:
            even |= 1 << i
            mask ^= -(2 << i)
    k = len(letters)
    return k, even, mask, parity, degree + 1 - k, code, tally, letters


def _joined_word(blocks: tuple[tuple[tuple[int, int, str], ...], ...]) -> tuple[Word, int, int]:
    """The canonical word of a join of blocks' letters, with its parity and tally."""
    letters = sorted(chain.from_iterable(blocks))
    degree, parity, tally = _summary(letters)
    return Word(tuple(name for _, _, name in letters), degree), parity, tally


def _summary(letters: Sequence[tuple[int, int, str]]) -> tuple[int, int, int]:
    """Degree, desuspension parity and repeat tally (the product of the
    factorials of the repeats) of a canonical word's letters."""
    m = len(letters)
    degree = parity = 0
    tally = run = 1
    for p, (i, d, _) in enumerate(letters):
        run = run + 1 if p and letters[p - 1][0] == i else 1
        tally *= run
        degree += d
        parity += d * (m - 1 - p)
    return degree, parity % 2, tally


class ResidualReport:
    """The nonzero residuals of one exact check, word by word, up to the cap.

    ``holds`` and ``fails`` are the check's wording of its two verdicts.
    """

    def __init__(self, cap: int, holds: str, fails: str, residuals: dict[Word, Element]):
        self.cap = cap
        self.holds = holds
        self.fails = fails
        self.residuals = residuals

    @property
    def passed(self) -> bool:
        return not self.residuals

    def _words(self) -> list[Word]:
        return sorted(self.residuals, key=lambda w: (w.weight, w.factors))

    def summary(self) -> str:
        if self.passed:
            return "%s up to weight cap %d" % (self.holds, self.cap)
        lines = ["%s up to weight cap %d:" % (self.fails, self.cap)]
        for word in self._words():
            lines.append("  %s -> %r" % (word.label(), self.residuals[word]))
        return "\n".join(lines)

    def to_json(self) -> dict:
        residuals = [
            {"word": " ".join(w.factors), "residual": self.residuals[w].to_json()}
            for w in self._words()
        ]
        return {"cap": self.cap, "passed": self.passed, "residuals": residuals}


def check_relations(structure: LInftyStructure) -> ResidualReport:
    """Residuals of Q*Q on every canonical word up to the cap.

    The residual at a word w is the structure maps evaluated on the lift's
    image, the sum of c*Q_|u|(u) over the terms c*u of Q(w).  That is the
    cogenerator part of Q*Q, which determines the whole coderivation Q*Q.
    On a weight-m word it is the sum of Q_j∘Q_k over j + k = m + 1.
    :meth:`Coderivation.precompose` forms it from stored entries, a Q_k
    entry whose value names join single names into a word that a Q_j entry
    reads, so a word that none reaches is never visited and its residual is
    zero term by term.
    """
    # Q*Q raises the suspended degree by 2: its cogenerator part is a degree-3 family
    family = Coderivation(structure).precompose(structure.maps).family(structure.space, structure.space, 3)
    residuals = {w: v for m in family.values() for w, v in m.values.items()}
    report = ResidualReport(structure.cap, "relations hold", "relations fail", residuals)
    structure._verified = report.passed
    return report


def require_verified(structure: LInftyStructure, label: str):
    """Raise :class:`StructureError` unless ``structure`` passes its relation check."""
    if not structure.verified and not check_relations(structure).passed:
        raise StructureError("%s fails its relation check" % label)


def compositions(total: int, parts: int, support: Sequence[int]):
    """Non-decreasing tuples of ``parts`` entries of ``support`` (ascending) summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for i, first in enumerate(support):
        if first * parts > total:
            break
        for rest in compositions(total - first, parts - 1, support[i:]):
            yield (first,) + rest


def __getattr__(name):
    # bench/tracing.py binds algebra.lower_central_series when it installs, so
    # the name resolves here until the tracer resolves it by qualified name
    if name != "lower_central_series":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .filtration import lower_central_series
    return lower_central_series
