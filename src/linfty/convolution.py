"""The convolution structure on maps from the coalgebra of one structure
into another, and the morphism <-> Maurer-Cartan dictionary.

A map collection {a_n} with a_n of weight n and degree u - n is an element
of degree u here; morphism component collections are exactly the degree-1
elements.  The n-ary operations pair the target structure maps with the
n-fold reduced coproduct of the source coalgebra:

    (q_n(a_1, ..., a_n))(X) = Q'_n applied to (a_1 (x) ... (x) a_n)
                              of the n-block splittings of X,
    q_1(a) = Q'_1 o a - (-1)**(u-1) a o Q.

Sign conventions (the one table everything below refers to):

  * evaluation, storage and the public splitting signs follow the word
    convention of :mod:`linfty.grading` (``-(-1)**(p*q)`` per swap);
  * block bookkeeping inside q_n is done on shifted degrees: the sign of an
    ordered n-block splitting B_1, ..., B_n of a word is the one
    :func:`linfty.grading.signed_blocks` documents (and the morphism lift
    reads): the word's desuspension sign, the classical Koszul sign of the
    arrangement on degrees lowered by one, each block's desuspension sign
    and that of the blocks' suspended degrees;
  * q_n's sign on a splitting is that kernel sign times the crossing
    ``(-1)**sum_{i<j} (u_j - 1)*(deg B_i - weight B_i)`` of each argument
    past the earlier blocks.  Spelled out, Q'_n also contributes the
    desuspension sign of its arguments' degrees, suspended(B_i) +
    (u_i - 1), and q_n a constant, the desuspension sign of the u_i - 1
    that makes q_n graded-antisymmetric in the word convention (so the
    mapping space is a structure in the same convention as its source and
    target).  The desuspension sign has the linear exponent
    ``sum d_i*(n-1-i)``, so it is multiplicative over elementwise sums of
    degrees: the constant cancels the u_i - 1 part and leaves the kernel's
    suspended-degree factor;
  * q_n never lists a word's splittings.  It runs over the arguments'
    stored entries w_1 -> v_1, ..., w_n -> v_n through
    :func:`entry_splittings`, which forms the sign above in
    closed form from the blocks' degrees, slot by slot.  The splittings of
    the joined word W that read w_1, ..., w_n differ only in how the copies
    of a repeated odd-degree name are spread over the blocks; such a name
    has even lowered degree, so they share one sign, and
    Q'_n(v_1, ..., v_n) goes to W times that sign times their number, a
    product of multinomials.  Q'_n's key index
    (:attr:`~linfty.grading.MultiMap.key_index`) prunes the entries: one
    whose value cannot extend the earlier values' names towards a word
    Q'_n stores is dropped before it is joined;
  * with these choices the degree-2 curvature of a degree-1 element equals
    the morphism compatibility residual weight by weight with sign +1, which
    is the identity that pins all the constants above.

The mapping space's only vector is :class:`~linfty.morphism.HomElement`,
defined with the morphisms it generalises (a morphism is its degree-1
vector) and re-exported here.  Both operations run over stored entries, the
differential through :meth:`~linfty.algebra.Coderivation.precompose`, and
assemble their result through :func:`~linfty.grading.tabulate` on the words
they reach; neither reads a word list.  The calculus of
:mod:`linfty.mc` and :mod:`linfty.homotopy` reads a :class:`ConvolutionAlgebra`
through ``cap``, ``space`` and ``apply(n, elements)``, which is ``bracket``,
so flows, homotopies and their documents stay on component maps.  The
coordinates ``hom_space`` (names ``word>name``) and ``hom_to_element`` are a
view for tests and tracing, built on first use and read by no computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from .grading import (
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    Word,
    tabulate,
)
from .algebra import LInftyStructure, lift_coderivation, require_verified
from .morphism import HomElement, MorphismComponents
from .mc import mc_residual


def morphism_to_mc(morphism: MorphismComponents) -> HomElement:
    """Repackage morphism components as a degree-1 mapping-space element."""
    return HomElement(morphism.source, morphism.target, 1, morphism.components)


def mc_to_morphism(alpha: HomElement) -> MorphismComponents:
    """Inverse repackaging; only degree-1 elements are morphism-shaped."""
    if alpha.degree != 1:
        raise InputError(
            "only degree-1 elements correspond to morphisms, got degree %d"
            % alpha.degree
        )
    return MorphismComponents(alpha.source, alpha.target, alpha.components)


class ConvolutionAlgebra:
    """The truncated mapping space with its induced structure maps."""

    def __init__(self, source: LInftyStructure, target: LInftyStructure, cap: int):
        if source.cap != cap or target.cap != cap:
            raise InputError(
                "convolution cap %d must match source cap %d and target cap %d"
                % (cap, source.cap, target.cap)
            )
        require_verified(source, "source structure")
        require_verified(target, "target structure")
        self.source = source
        self.target = target
        self.cap = cap
        self._lift = lift_coderivation(source)
        # entry_splittings' memo of the words that brackets reached
        self._joined: dict = {}

    # -- coordinates and basis -------------------------------------------

    @cached_property
    def _basis_pairs(self) -> list[tuple[Word, str]]:
        """The hom-space basis as (source word, target name), in basis order."""
        return [(word, name) for word in self.source.words() for name in self.target.space.names]

    @cached_property
    def hom_space(self) -> GradedSpace:
        """Coordinates ``word>name`` of the mapping space, built on first use."""
        target = self.target.space
        return GradedSpace(
            (
                "%s>%s" % (word.label(), name),
                target.degree(name) - word.degree + word.weight,
            )
            for word, name in self._basis_pairs
        )

    def hom_to_element(self, alpha: HomElement) -> Element:
        """Coordinates of a mapping-space element, read off its stored values."""
        coeffs: dict[str, Fraction] = {}
        for comp in alpha.components.values():
            for word, value in comp.values.items():
                label = word.label()
                for name, c in value.coeffs.items():
                    coeffs["%s>%s" % (label, name)] = c
        return Element(self.hom_space, alpha.degree, coeffs)

    def basis_hom(self, word: Word, name: str) -> HomElement:
        u = self.target.space.degree(name) - word.degree + word.weight
        comp = MultiMap(
            self.source.space,
            self.target.space,
            word.weight,
            u - word.weight,
            {word: Element.basis(self.target.space, name)},
        )
        return HomElement(self.source, self.target, u, {word.weight: comp})

    @property
    def space(self) -> "ConvolutionAlgebra":
        """Where this algebra's elements live, as a path reads it: the algebra itself."""
        return self

    def __eq__(self, other):
        # the cap and the two spaces fix the mapping space, so paths over two
        # algebras of one pair add and compare equal
        return isinstance(other, ConvolutionAlgebra) and self._pair() == other._pair()

    def __hash__(self):
        return hash(self._pair())

    def _pair(self) -> tuple:
        return self.cap, self.source.space, self.target.space

    def zero(self, degree: int) -> HomElement:
        return HomElement(self.source, self.target, degree, {})

    # -- structure maps ---------------------------------------------------

    def differential(self, alpha: HomElement) -> HomElement:
        """Mapping-space differential: Q'_1 after, minus signed Q before.

        Q'_1 runs over ``alpha``'s stored values, and the second term is
        :meth:`~linfty.algebra.Coderivation.precompose` of its components,
        driven by stored entries; no word list is read.
        """
        q1 = self.target.maps.get(1)
        u_out = alpha.degree + 1
        # minus the crossing sign (-1)**(u - 1) of alpha past Q
        totals = self._lift.precompose(alpha.components, 1 if alpha.degree % 2 == 0 else -1)
        if q1 is not None:
            for comp in alpha.components.values():
                for word, val in comp.values.items():
                    q1.accumulate(totals.setdefault(word, {}), [val], 1)

        def value(word: Word) -> Element:
            return Element(self.target.space, word.degree + u_out - word.weight, totals[word])

        comps = tabulate(self.source.space, self.target.space, u_out, totals, value)
        return HomElement(self.source, self.target, u_out, comps)

    def bracket(self, alphas: Sequence[HomElement]) -> HomElement:
        """The n-ary operation on n mapping-space elements.

        Driven by the arguments' stored entries, not by the words of the
        truncation: :func:`entry_splittings` picks one entry
        w_i -> v_i of each argument, lightest first, within the cap and with
        names of v_1, ..., v_n that make up a word Q_n stores, and gives the canonical word W of w_1 ... w_n with the signed number of
        W's splittings that read those blocks.  Q_n(v_1, ..., v_n) times that
        number goes to W, and the terms of one word go into one dict.  An
        argument from another source/target pair or cap raises
        :class:`~linfty.grading.InputError`.
        """
        pair = self._pair()
        for a in alphas:
            if not isinstance(a, HomElement) or (a.cap, a.source.space, a.target.space) != pair:
                raise InputError("argument is not an element of this mapping space")
        n = len(alphas)
        if n == 1:
            return self.differential(alphas[0])
        u_out = sum(a.degree for a in alphas) + 2 - n
        qn = self.target.maps.get(n)
        if qn is None:
            return self.zero(u_out)
        # each argument's shift and stored values keyed by factors, all weights in one dict
        slots = [
            (a.degree - 1, {f: v for c in a.components.values() for f, v in c.by_factors.items()})
            for a in alphas
        ]
        totals: dict[Word, dict] = {}
        joins = entry_splittings(slots, self.source.space, self.cap, self._joined, qn.key_index)
        for word, scalar, values in joins:
            coeffs = totals.get(word)
            if coeffs is None:
                coeffs = totals[word] = {}
            qn.accumulate(coeffs, values, scalar)

        def value(word: Word) -> Element:
            return Element(self.target.space, word.degree + u_out - word.weight, totals[word])

        comps = tabulate(self.source.space, self.target.space, u_out, totals, value)
        return HomElement(self.source, self.target, u_out, comps)

    def apply(self, n: int, elements: Sequence[HomElement]) -> HomElement:
        """The n-ary operation as :mod:`linfty.mc` calls it: ``bracket`` of n elements."""
        if len(elements) != n:
            raise InputError("%d-ary bracket applied to %d arguments" % (n, len(elements)))
        return self.bracket(elements)

    def mc_residual(self, alpha: HomElement) -> HomElement:
        """Curvature of a degree-1 element in the truncated mapping space."""
        return mc_residual(self, alpha)


def build_convolution(
    source: LInftyStructure, target: LInftyStructure, cap: int
) -> ConvolutionAlgebra:
    return ConvolutionAlgebra(source, target, cap)


def entry_splittings(
    slots: Sequence[tuple[int, Mapping[tuple[str, ...], Element]]],
    space: GradedSpace,
    cap: int,
    joined: dict,
    keys: tuple[Mapping[str, int], set[int]],
) -> Iterator[tuple[Word, int, tuple]]:
    """The ordered splittings that read one entry per slot, signed and counted in closed form.

    Slot j is ``(shift, entries)``: an integer and a mapping from canonical
    factor tuples w to values v, elements that a map Q'_n reads; ``keys`` is
    Q'_n's :attr:`~linfty.grading.MultiMap.key_index`.  For every choice of
    one entry per slot whose blocks w_1, ..., w_n join into a word W of
    weight at most ``cap`` that does not vanish, and whose values have one
    name each that together make up a word stored in Q'_n, this yields
    ``(W, scalar, (v_1, ..., v_n))``.
    ``scalar`` sums, over the splittings of W into position blocks that
    read w_1, ..., w_n, the :func:`~linfty.grading.signed_blocks` sign
    times the crossing ``(-1)**(shift_j * (deg w_i - weight w_i))`` of each
    shift past the earlier blocks.  Those splittings differ only in how the copies of a
    repeated odd-degree name, whose lowered degree is even, are spread over
    the blocks, so they share one sign and ``scalar`` is that sign times
    their number, a product of multinomials.

    The sign is read off the entries, never off W's splittings:
      * the rearrangement swaps only names of W in different blocks, and
        only two even-degree names swap with an odd sign; their count is a
        popcount of the earlier blocks' even names against a mask of the
        new block's;
      * the other factors are per-block constants and prefix sums, so the
        tuples share their prefixes' work slot by slot;
      * W's own desuspension sign and multiplicity are formed once per W
        and kept in ``joined``, a dict the caller may keep for every call
        over one space and cap.
    Entries are taken lightest first and a slot stops at the first entry
    too heavy to leave room for the lightest entries of the later slots.
    A prefix also carries the live codes of its values: the key-index codes
    of its name tuples, one name per value, that are part of a stored word.
    An entry that leaves no live code is dropped before it is joined.

    >>> V = GradedSpace([("a", 0), ("b", 1)])
    >>> q2 = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": 1}})
    >>> slot = (0, {("a",): Element.basis(V, "a"), ("b",): Element.basis(V, "b")})
    >>> for word, scalar, values in entry_splittings([slot, slot], V, 2, {}, q2.key_index):
    ...     print(word.factors, scalar, values)
    ('a', 'b') 1 (1*a, 1*b)
    ('a', 'b') -1 (1*b, 1*a)
    """
    base = cap + 1
    codes, subcodes = keys
    tables = []
    for shift, entries in slots:
        rows = []
        for w, v in entries.items():
            reach = [c for name in v.coeffs if (c := codes[name]) in subcodes]
            if reach:
                rows.append(_block_row(w, v, space, base) + (reach,))
        rows.sort(key=itemgetter(0))
        if not rows:
            return
        tables.append((shift % 2, rows))
    room = [cap - sum(rows[0][0] for _, rows in tables[j + 1 :]) for j in range(len(tables))]
    last = len(tables) - 1
    # a prefix: weight, even-name mask, suspended degree, sign exponent,
    # multiset code, repeat tally, blocks, values, live codes
    prefixes: list[tuple] = [(0, 0, 0, 0, 0, 1, (), (), (0,))]
    for j, (shift, rows) in enumerate(tables):
        grown = []
        for weight, evens, suspended, parity, code, tally, blocks, values, live in prefixes:
            top = room[j] - weight
            # the earlier blocks' suspended degrees (less one each, against
            # the shift) are all slot j needs of them, besides their even names
            carried = parity + suspended + shift * (suspended - j)
            for w, even, mask, p, s, c, t, letters, value, reach in rows:
                if w > top:
                    break
                if evens & even:
                    continue
                alive = {k for l in live for r in reach if (k := l + r) in subcodes}
                if not alive:
                    continue
                exponent = carried + p + (evens & mask).bit_count()
                if j < last:
                    grown.append((
                        weight + w, evens | even, suspended + s, exponent,
                        code + c, tally * t, blocks + (letters,), values + (value,), alive,
                    ))
                    continue
                key = code + c
                got = joined.get(key)
                if got is None:
                    got = joined[key] = _joined_word(blocks + (letters,))
                word, word_parity, word_tally = got
                ways = word_tally // (tally * t)
                yield word, -ways if (exponent + word_parity) % 2 else ways, values + (value,)
        prefixes = grown


def _block_row(factors: tuple[str, ...], value, space: GradedSpace, base: int) -> tuple:
    """What :func:`entry_splittings` reads of one entry, formed once per call.

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
    return k, even, mask, parity, degree + 1 - k, code, tally, letters, value


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
