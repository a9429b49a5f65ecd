"""Exact graded linear algebra over the rationals.

A graded space is a finite ordered list of named basis elements with integer
degrees.  Multilinear maps follow the antisymmetric sign convention in which
transposing two adjacent arguments of degrees p and q costs ``-(-1)**(p*q)``.
Under this convention a product repeating an even-degree element vanishes
while odd-degree elements may repeat, so the weight-n words below are the
basis of the n-th graded wedge power.

>>> V = GradedSpace([("a", 0), ("b", 1)])
>>> koszul_sign((1, 0), (0, 1))
-1
>>> canonicalize_word(("b", "a"), V)
(Word(('a', 'b'), degree=1), -1)
>>> [w.factors for w in wedge_basis(V, 2)]
[('a', 'b'), ('b', 'b')]
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


class InputError(ValueError):
    """Bad argument: unknown basis name, length mismatch, wrong degree."""


class StructureError(ValueError):
    """A structure map violates its declared weight/degree contract."""


class NonConvergenceError(RuntimeError):
    """A gauge flow's powers of t did not die within its bound; the structure looks non-nilpotent."""


class FlatnessError(ValueError):
    """An operation required a Maurer-Cartan element; carries the residual."""

    def __init__(self, message: str, residual: "Element"):
        super().__init__(message)
        self.residual = residual


def _inversion_pairs(perm: Sequence[int]):
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                yield perm[j], perm[i]


def koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of rearranging graded symbols, one ``-(-1)**(p*q)`` per swap.

    ``permutation[k]`` is the original position (0-based) of the symbol that
    ends up in slot k; ``degrees`` are indexed by original position.

    >>> koszul_sign((0, 1), (1, 2))
    1
    >>> koszul_sign((1, 0), (1, 1))
    1
    >>> koszul_sign((1, 0), (1, 2))
    -1
    """
    if sorted(permutation) != list(range(len(degrees))):
        raise InputError(
            "permutation of length %d does not match %d degrees"
            % (len(permutation), len(degrees))
        )
    exponent = 0
    inversions = 0
    for a, b in _inversion_pairs(permutation):
        inversions += 1
        exponent += degrees[a] * degrees[b]
    # sgn(permutation) times the classical Koszul sign.
    return -1 if (exponent + inversions) % 2 else 1


def classical_koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Classical Koszul sign: ``(-1)**(p*q)`` per adjacent transposition."""
    exponent = sum(degrees[a] * degrees[b] for a, b in _inversion_pairs(permutation))
    return -1 if exponent % 2 else 1


def desuspension_sign(degrees: Sequence[int]) -> int:
    """Sign of pulling one suspension out of each tensor factor in turn.

    Equals ``(-1)**sum(degrees[i] for i < j)`` over pairs i < j; it converts
    between the convention above and the classical one on shifted degrees.
    """
    exponent = 0
    running = 0
    for d in reversed(degrees):
        exponent += running * d
        running += 1
    return -1 if exponent % 2 else 1


def _partitions(items: tuple[int, ...]):
    """Unordered partitions into nonempty blocks, blocks ordered by minimum."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield ((first,) + sub[i],) + sub[:i] + sub[i + 1 :]


@lru_cache(maxsize=None)
def signed_blocks(degrees: tuple[int, ...]) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Block splittings of a word with these factor degrees, with their signs.

    The splittings are the unordered set partitions of the positions, blocks
    ordered by their minimum: the comultiplication of the cofree coalgebra in
    component form, which the reference lift
    :meth:`~linfty.morphism.MorphismLift.on_word` reads.  The sign of blocks
    B_1, ..., B_n is the desuspension sign of the word, times the classical
    Koszul sign of the rearrangement B_1 ... B_n on degrees lowered by one,
    times the desuspension sign of each block, times that of the blocks'
    suspended degrees ``plain + 1 - weight``.  The same formula signs the
    ordered splittings that :func:`linfty.algebra.entry_splittings`
    counts.  Blocks are tuples of sorted positions.

    >>> signed_blocks((0, 1))
    ((1, ((0,), (1,))), (1, ((0, 1),)))
    """
    word_sign = desuspension_sign(degrees)
    shifted = [d - 1 for d in degrees]
    out = []
    for blocks in _partitions(tuple(range(len(degrees)))):
        arrangement = [p for block in blocks for p in block]
        sign = word_sign * classical_koszul_sign(arrangement, shifted)
        suspended = []
        for block in blocks:
            block_degrees = [degrees[p] for p in block]
            sign *= desuspension_sign(block_degrees)
            suspended.append(sum(block_degrees) + 1 - len(block))
        out.append((sign * desuspension_sign(suspended), blocks))
    return tuple(out)


@lru_cache(maxsize=None)
def unshuffles(degrees: tuple[int, ...], k: int) -> tuple[tuple[int, tuple, tuple], ...]:
    """Signed (k, m - k)-unshuffles ``(sign, chosen, rest)`` of a word.

    ``chosen`` runs over the sorted k-subsets of the positions and ``rest``
    is its sorted complement.  The sign is the coderivation lift's,
    ``(-1)**(k*(m-k))`` times the sign of moving ``chosen`` to the front.

    >>> unshuffles((0, 1), 1)
    ((-1, (0,), (1,)), (1, (1,), (0,)))
    """
    m = len(degrees)
    cross = -1 if (k * (m - k)) % 2 else 1
    out = []
    for chosen in combinations(range(m), k):
        rest = tuple(p for p in range(m) if p not in chosen)
        out.append((cross * koszul_sign(chosen + rest, degrees), chosen, rest))
    return tuple(out)


class GradedSpace:
    """Finite basis with integer degrees; declaration order is canonical.

    >>> V = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    >>> V.degree("z")
    2
    >>> V.dimension(1)
    2
    """

    def __init__(self, basis: Iterable[tuple[str, int]]):
        names = []
        degrees = {}
        self._of_degree: dict[int, dict[str, None]] = {}  # degree -> its names, in basis order
        for name, degree in basis:
            if name in degrees:
                raise InputError("duplicate basis name %r" % name)
            if type(degree) is not int:
                raise InputError("degree %r of %r is not an integer" % (degree, name))
            names.append(name)
            degrees[name] = degree
            self._of_degree.setdefault(degree, {})[name] = None
        self.names: tuple[str, ...] = tuple(names)
        self._degrees: dict[str, int] = degrees
        self._order: dict[str, int] = {n: i for i, n in enumerate(names)}
        self.kernel_memos: dict[tuple, object] = {}  # linfty.algebra's memos of this unchanging space

    def degree(self, name: str) -> int:
        try:
            return self._degrees[name]
        except KeyError:
            raise InputError("unknown basis name %r" % name) from None

    def index(self, name: str) -> int:
        try:
            return self._order[name]
        except KeyError:
            raise InputError("unknown basis name %r" % name) from None

    def zero(self, degree: int) -> "Element":
        return Element(self, degree)

    def degrees_of(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.degree(n) for n in names)

    def dimension(self, degree: int | None = None) -> int:
        if degree is None:
            return len(self.names)
        return len(self._of_degree.get(degree, ()))

    def basis_of_degree(self, degree: int) -> tuple[str, ...]:
        return tuple(self._of_degree.get(degree, ()))

    def degrees_present(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._degrees.values())))

    def column_order(self) -> dict[str, tuple[int, int]]:
        """Each name's ``(degree, index)``: the column order of :mod:`linfty.linalg` rows."""
        return {n: (self._degrees[n], i) for n, i in self._order.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._degrees

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSpace)
            and self.names == other.names
            and self._degrees == other._degrees
        )

    def __hash__(self):
        return hash((self.names, tuple(self._degrees[n] for n in self.names)))

    def __repr__(self):
        inside = ", ".join("%s:%d" % (n, self._degrees[n]) for n in self.names)
        return "GradedSpace(%s)" % inside


class Word:
    """Canonical product of basis names: sorted, no even-degree repeats."""

    __slots__ = ("factors", "degree")

    def __init__(self, factors: tuple[str, ...], degree: int):
        self.factors = factors
        self.degree = degree

    @property
    def weight(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        return isinstance(other, Word) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "Word(%r, degree=%d)" % (self.factors, self.degree)

    def label(self) -> str:
        return "^".join(self.factors)


def canonicalize_word(
    factors: Sequence[str], space: GradedSpace
) -> tuple[Word | None, int]:
    """Sort ``factors`` into canonical order, tracking the sign.

    Returns ``(word, sign)``, or ``(None, 0)`` when the word vanishes because
    an even-degree name repeats.

    >>> V = GradedSpace([("a", 0), ("b", 1)])
    >>> canonicalize_word(("a", "a"), V)
    (None, 0)
    >>> canonicalize_word(("b", "b"), V)
    (Word(('b', 'b'), degree=2), 1)
    """
    degrees = space.degrees_of(factors)
    perm = sorted(range(len(factors)), key=lambda i: space.index(factors[i]))
    names = tuple(factors[i] for i in perm)
    if any(a == b and degrees[i] % 2 == 0 for a, b, i in zip(names, names[1:], perm)):
        return None, 0
    return Word(names, sum(degrees)), koszul_sign(perm, degrees)


def wedge_basis(space: GradedSpace, weight: int) -> list[Word]:
    """The canonical words of the given weight: the non-decreasing tuples of basis
    names in which no even-degree name repeats, in :func:`combinations_with_replacement` order.

    >>> V = GradedSpace([("a", 0), ("b", 1)])
    >>> [w.factors for w in wedge_basis(V, 3)]
    [('a', 'b', 'b'), ('b', 'b', 'b')]
    """
    if weight < 1:
        raise InputError("weight must be >= 1, got %d" % weight)
    names, degrees = space.names, space.degrees_of(space.names)
    # (factors, the least index the next name may take, degree): an odd name may repeat, an even one may not
    prefixes = [((), 0, 0)]
    for _ in range(weight):
        prefixes = [(factors + (names[i],), i + 1 - degrees[i] % 2, degree + degrees[i])
                    for factors, start, degree in prefixes for i in range(start, len(names))]
    return [Word(factors, degree) for factors, _, degree in prefixes]


def add_scaled(terms: dict, vector: "Combination", scalar) -> None:
    """Add ``scalar * vector`` into a key -> coefficient dict, in place.

    The one accumulator for building a result: keys that cancel keep a zero
    coefficient until the dict goes through a constructor, which drops them.
    """
    items = vector.terms.items()
    if scalar != 1:
        items = [(key, c * scalar) for key, c in items]
    for key, c in items:
        got = terms.get(key)
        terms[key] = c if got is None else got + c


def integer_rows(values: Iterable[Mapping]) -> tuple[int, list[tuple]]:
    """One denominator d for the rational coefficients of ``values``, their
    lcm, and each value as an integer row ``((key, numerator), ...)`` over d.

    >>> integer_rows([{"a": Fraction(1, 2)}, {"b": Fraction(-2, 3), "c": 1}])
    (6, [(('a', 3),), (('b', -4), ('c', 6))])
    """
    ratios = [[(key, c.as_integer_ratio()) for key, c in v.items()] for v in values]
    d = lcm(*(q for r in ratios for _, (_, q) in r))
    return d, [tuple((key, p * (d // q)) for key, (p, q) in r) for r in ratios]


def family_rows(maps: Iterable["MultiMap"]) -> tuple[int, dict[tuple[str, ...], tuple]]:
    """The stored integer rows of ``maps`` (:attr:`MultiMap.rows`) over the lcm of their denominators."""
    rows = [m.rows for m in maps]
    den = lcm(*(d for d, _ in rows))
    return den, {f: row if d == den else tuple((name, n * (den // d)) for name, n in row)
                 for d, by in rows for f, row in by.items()}


def walk_index(rows: tuple[int, Iterable[tuple]], payloads: Iterable) -> tuple[dict[str, list], int]:
    """The :meth:`MultiMap.walk` index of integer rows over a denominator d (:func:`integer_rows`)
    and d: name -> the ``(position, numerator, payload)`` of each row holding it, in position
    order, with its payload from ``payloads``."""
    den, rows = rows
    index: dict[str, list] = {}
    for position, (row, payload) in enumerate(zip(rows, payloads)):
        for name, n in row:
            index.setdefault(name, []).append((position, n, payload))
    return index, den


class Totals:
    """Key -> name -> ``int`` sums over one denominator, the lcm of every denominator added
    (:meth:`over`): what the integer kernels add into.  A key is a word, or None for a
    vector's one value; :meth:`family` and :meth:`element` build the result once.

    >>> V, totals = GradedSpace([("a", 0)]), Totals()
    >>> totals.add([(1, Element(V, 0, {"a": Fraction(1, 2)})), (-1, Element(V, 0, {"a": Fraction(1, 3)}))])
    >>> totals.sums, totals.den, totals.element(V, 0)
    ({None: {'a': 1}}, 6, 1/6*a)
    """

    __slots__ = ("sums", "den")

    def __init__(self, sums: dict | None = None, den: int = 1):
        self.sums: dict = {} if sums is None else sums
        self.den = den

    def over(self, d: int) -> tuple[dict, int]:
        """The sums, over the lcm of their denominator and d, and the factor an integer over d takes."""
        if self.den % d:
            den = lcm(self.den, d)
            up, self.den = den // self.den, den
            for into in self.sums.values():
                for name in into:
                    into[name] *= up
        return self.sums, self.den // d

    def add(self, parts: Iterable[tuple[int, object]], d: int = 1) -> None:
        """Add c/d times each vector of ``parts``, pairs (c, vector), over one lcm: the elements'
        integer rows (one :func:`integer_rows`) at key None, a map's :attr:`MultiMap.rows` by
        word, and each map of a mapping-space vector."""
        parts = list(parts)
        elements = [(c, v.coeffs) for c, v in parts if isinstance(v, Element)]
        den, rows = integer_rows(coeffs for _, coeffs in elements)
        batch = [(den, c, [(None, row)]) for (c, _), row in zip(elements, rows)]
        for c, v in parts:
            for m in () if isinstance(v, Element) else (v,) if isinstance(v, MultiMap) else v.terms.values():
                batch.append((m.rows[0], c, zip(m.words, m.rows[1].values())))
        den = lcm(*(den for den, _, _ in batch))
        sums, up = self.over(den * d)
        for part, c, keyed in batch:
            c *= up * (den // part)
            for key, row in keyed:
                into = sums.setdefault(key, {})
                for name, n in row:
                    into[name] = into.get(name, 0) + c * n

    def element(self, space: GradedSpace, degree: int) -> "Element":
        """The degree-``degree`` vector of the sums at None."""
        return Element(space, degree, {name: Fraction(n, self.den) for name, n in self.sums.get(None, {}).items() if n})

    def family(self, source: GradedSpace, target: GradedSpace, degree: int) -> dict[int, "MultiMap"]:
        """The degree-``degree`` family of the words' nonzero sums as integer :attr:`MultiMap.rows`
        over each map's least denominator, no ``Fraction`` or ``Element`` made: the one place a
        value's degree, the word's plus ``degree`` less its weight, is worked out and checked."""
        per_weight: dict[int, list] = {}
        for word, into in self.sums.items():
            row = tuple(into.items()) if 0 not in into.values() else tuple(kv for kv in into.items() if kv[1])
            if row:
                per_weight.setdefault(len(word.factors), []).append((word, into, row))
        family = {}
        for n, got in per_weight.items():
            g = gcd(self.den, *(k for _, _, row in got for _, k in row))
            rows = {}
            for word, into, row in got:
                if not target._of_degree.get(word.degree + degree - n, {}).keys() >= into.keys():
                    Element(target, word.degree + degree - n, into)  # raises the checking constructor's refusal
                rows[word.factors] = tuple((name, k // g) for name, k in row) if g > 1 else row
            family[n] = MultiMap(source, target, n, degree - n, rows=(self.den // g, rows), words=[w for w, *_ in got])
        return family


class Combination:
    """Immutable sparse linear combination: ``terms`` maps a key to a nonzero coefficient.

    A coefficient is an exact scalar or a vector of the same kind, and counts
    as zero when it is false; a vector is false when it is zero.  A subclass
    supplies ``_home()``, what must match for ``+``, ``-`` and ``==``, and
    ``_like(terms)``, a rebuild through its own constructor, which validates
    the terms and drops zero coefficients.  Combining vectors of different
    homes raises :class:`InputError`.
    """

    __slots__ = ("terms",)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self

    def _merged(self, other, scalar):
        if type(other) is not type(self) or other._home() != self._home():
            raise InputError("%s vectors live in different spaces or degrees" % type(self).__name__)
        terms = dict(self.terms)
        add_scaled(terms, other, scalar)
        return self._like(terms)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, scalar):
        if not scalar:
            return self._like({})
        return self._like({key: c * scalar for key, c in self.terms.items()})

    __mul__ = scale

    def __eq__(self, other):
        return type(other) is type(self) and self._home() == other._home() and self.terms == other.terms


class Element(Combination):
    """Homogeneous element of a graded space: name -> rational coefficient.

    Coefficients are rationals, ``Fraction`` or ``int``: the map kernels
    read them as integer numerators over a denominator
    (:func:`integer_rows`), so a nonzero coefficient of any other type
    (``float``, ``bool``) raises :class:`InputError`.
    """

    __slots__ = ("space", "degree")
    coeffs = Combination.terms

    def __init__(self, space: GradedSpace, degree: int, coeffs: Mapping | None = None):
        self.space = space
        self.degree = degree
        names, clean = space._of_degree.get(degree, ()), {}
        for name, c in (coeffs or {}).items():
            if name not in names:
                raise InputError(
                    "basis name %r has degree %d, element declared degree %d"
                    % (name, space.degree(name), degree)
                )
            if c:
                if type(c) is not int and type(c) is not Fraction:
                    raise InputError("coefficient %r of %r is not an int or a Fraction" % (c, name))
                clean[name] = c
        self.terms = clean

    def _home(self) -> tuple:
        return self.space, self.degree

    def _like(self, terms: dict) -> "Element":
        return Element(self.space, self.degree, terms)

    @classmethod
    def zero(cls, space: GradedSpace, degree: int) -> "Element":
        return cls(space, degree, {})

    @classmethod
    def basis(cls, space: GradedSpace, name: str, coeff=Fraction(1)) -> "Element":
        return cls(space, space.degree(name), {name: coeff})

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.space.index(kv[0]))

    def to_json(self) -> dict[str, str]:
        """Name -> coefficient as ``p`` or ``p/q`` text, in basis order."""
        return {name: str(coeff) for name, coeff in self.items()}

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%s*%s" % (c, n) for n, c in self.items())


class MultiMap(Combination):
    """Weight-n graded-antisymmetric multilinear map, stored sparsely.

    Values live on canonical words only; evaluation on an arbitrary tuple is
    the canonicalization sign times the stored value, zero when the tuple
    canonicalizes to zero.  A weight-n map of degree d sends a word of degree
    w to an element of degree w + d.  The one stored form is :attr:`rows`,
    each nonzero value's integer numerators over the least common denominator
    by factor tuple, its word in :attr:`words`: ``bool`` and ``==`` read them,
    and ``values`` and ``by_factors`` are ``Element`` views built on first
    read, once; all three are read-only mappings.  Given ``values`` are
    checked and become the rows and the built view; ``rows`` and ``words``
    from :meth:`Totals.family` are taken as checked.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, weight: int, degree: int,
                 values: Mapping[Word, Element] | None = None, rows: tuple[int, dict] | None = None,
                 words: Sequence[Word] = ()):
        if weight < 1:
            raise InputError("map weight must be >= 1")
        self.source, self.target, self.weight, self.degree = source, target, weight, degree
        self._values: Mapping[Word, Element] | None = None
        if rows is None:
            stored: dict[Word, Element] = {}
            for word, value in (values or {}).items():
                if len(word.factors) != weight:
                    raise StructureError("word %r has weight %d, map has weight %d"
                                         % (word.factors, len(word.factors), weight))
                if value.degree != word.degree + degree:
                    raise StructureError("value on %r has degree %d, expected %d"
                                         % (word.factors, value.degree, word.degree + degree))
                if value:
                    stored[word] = value
            den, numerators = integer_rows(v.coeffs for v in stored.values())
            rows, words = (den, dict(zip((w.factors for w in stored), numerators))), stored
            self._values = MappingProxyType(stored)
        self.rows: tuple[int, Mapping[tuple[str, ...], tuple]] = rows[0], MappingProxyType(rows[1])
        self.words: tuple[Word, ...] = tuple(words)

    @classmethod
    def from_entries(
        cls,
        source: GradedSpace,
        target: GradedSpace,
        weight: int,
        degree: int,
        entries: Mapping[Sequence[str], Mapping[str, Fraction]],
    ) -> "MultiMap":
        """Build from raw tuples, each value of the one degree of its names; entries on
        non-canonical tuples are signed in.  Entries on two orderings of one word add up,
        and may cancel.
        """
        values: dict[Word, Element] = {}
        for names, combo in entries.items():
            word, sign = canonicalize_word(tuple(names), source)
            if word is None:
                raise InputError("entry on %r, which canonicalizes to zero" % (names,))
            degrees = {target.degree(n) for n, c in combo.items() if c}
            if len(degrees) != 1:
                raise InputError("entry on %r has names of degrees %s, not of one degree" % (names, sorted(degrees)))
            value = Element(target, degrees.pop(), combo).scale(sign)
            got = values.get(word)
            values[word] = value if got is None else got + value
        return cls(source, target, weight, degree, values)

    def _home(self) -> tuple:
        return self.source, self.target, self.weight, self.degree

    def _like(self, terms: dict) -> "MultiMap":
        return MultiMap(self.source, self.target, self.weight, self.degree, terms)

    def __bool__(self) -> bool:
        return bool(self.rows[1])

    def __eq__(self, other):
        if type(other) is not type(self) or self._home() != other._home() or self.rows[0] != other.rows[0]:
            return False
        # each row as name -> numerator: two builds may list a row's names in different orders
        return {f: dict(row) for f, row in self.rows[1].items()} == {f: dict(row) for f, row in other.rows[1].items()}

    @property
    def values(self) -> Mapping[Word, Element]:
        """Word -> value ``Element``, built from :attr:`rows` on first read, once."""
        if self._values is None:
            den, rows = self.rows
            self._values = MappingProxyType({
                word: Element(self.target, word.degree + self.degree, {name: Fraction(n, den) for name, n in row})
                for word, row in zip(self.words, rows.values())})
        return self._values

    terms = values

    @cached_property
    def by_factors(self) -> Mapping[tuple[str, ...], Element]:
        """The values by factor tuple, so a tuple of names is looked up before any sign or Word is built."""
        return MappingProxyType(dict(zip(self.rows[1], self.values.values())))

    def value(self, word: Word) -> Element:
        return self.values.get(word) or Element.zero(self.target, word.degree + self.degree)

    def evaluate(self, names: Sequence[str]) -> Element:
        """Value on an arbitrary ordered tuple of basis names."""
        word, sign = canonicalize_word(tuple(names), self.source)
        if word is None:
            degree = sum(self.source.degree(n) for n in names) + self.degree
            return Element.zero(self.target, degree)
        return self.value(word).scale(sign)

    @cached_property
    def key_index(self) -> tuple[dict[str, int], set[int], dict[int, tuple], dict]:
        """The code ``(weight + 1)**index`` of each source name, the code sums
        of every sub-multiset of a stored word, the integer :attr:`rows` by
        code, and :meth:`walk`'s memo of the names extending a code; built once."""
        base = self.weight + 1
        codes = {name: base**i for i, name in enumerate(self.source.names)}
        subcodes = {0}
        for factors in self.rows[1]:
            grown = {0}
            for name in factors:
                grown |= {c + codes[name] for c in grown}
            subcodes |= grown
        by_code = {sum(map(codes.get, factors)): row for factors, row in self.rows[1].items()}
        return codes, subcodes, by_code, {}

    @cached_property
    def stored_names(self) -> frozenset[str]:
        """The source names the stored words read; built once."""
        return frozenset(name for factors in self.rows[1] for name in factors)

    def walk(self, slots: Sequence[tuple[Mapping, bool]], scalar: int, step, state) -> Iterator[tuple]:
        """The terms of the stored words made up of one name of one row per slot.

        Slot j is ``(index, run)``: ``index`` maps a source name to the rows
        ``(position, numerator, row)`` holding it, by position; a ``run``
        slot reads slot j - 1's rows as a multiset, at no lower position.  A
        tuple keeps a name only while its code (:attr:`key_index`) stays
        inside a stored word, exact since no name repeats past the weight,
        and a complete tuple reads its value's integer :attr:`rows` row by
        its code.  ``step(state, row)``, unless None,
        folds a row into the state once per prefix; a None state drops the
        row.  Yields ``(state, row, coefficient)`` in ``int``: the ``scalar``
        times the numerators, the Koszul sign of sorting the names, and the
        r!/(m_1! ... m_k!) orderings of each run of r rows, m_i of them the
        same.  A run reads b before 3a once, counted twice; sorting costs -1:

        >>> V = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
        >>> m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": 1}})
        >>> rows = {"b": [(0, 1, "b")], "a": [(1, 3, "a")]}
        >>> list(m.walk([(rows, False), (rows, True)], 1, lambda s, row: s + row, ""))
        [('ba', (('b', 1),), -6)]
        """
        codes, subcodes, by_code, successors = self.key_index
        # code, name mask, odd-name mask, sign parity, coefficient, orderings,
        # state, the last row's position and how many rows at the end repeat it
        prefixes = [(0, 0, 0, 0, scalar, 1, state, 0, 0)]
        place = 0  # the slot's place in its run
        for index, run in slots:
            place = place + 1 if run else 1
            grown = []
            for code, names, odds, parity, coeff, count, now, last, ties in prefixes:
                nexts = successors.get(code)
                if nexts is None:
                    nexts = successors[code] = {
                        name: (code + x, (1 << i) - 1, i, -(self.source.degree(name) % 2))
                        for i, (name, x) in enumerate(codes.items()) if code + x in subcodes
                    }
                stepped: dict = {}
                small, large = (index, nexts) if len(index) < len(nexts) else (nexts, index)
                for name in small:
                    if name not in large:
                        continue
                    new, low, i, odd = nexts[name]
                    # an odd name passes the earlier even names, an even one all of them
                    flip = parity ^ ((names ^ (odds & odd)) >> i) & 1
                    for position, c, row in index[name]:
                        if run and position < last:
                            continue
                        after = now
                        if step is not None:
                            if position not in stepped:
                                stepped[position] = step(now, row)
                            after = stepped[position]
                            if after is None:
                                continue
                        same = ties + 1 if run and position == last else 1
                        grown.append((new, names ^ low, odds ^ (low & odd), flip, coeff * c,
                                      count * place // same, after, position, same))
            prefixes = grown
        for code, _, _, parity, coeff, count, now, _, _ in prefixes:
            yield now, by_code[code], coeff * (-count if parity else count)

    def apply(self, elements: Sequence[Element]) -> Element:
        """Multilinear evaluation on elements of the source (expanded over their supports)."""
        if len(elements) != self.weight:
            raise InputError("map of weight %d applied to %d arguments" % (self.weight, len(elements)))
        for e in elements:
            if e.space is not self.source and e.space != self.source:
                raise InputError("argument does not live in the map's source space")
        totals = Totals()
        self.accumulate(totals, elements, 1)
        return totals.element(self.target, sum(e.degree for e in elements) + self.degree)

    def accumulate(self, totals: Totals, elements: Sequence[Element], scalar) -> None:
        """Add ``scalar`` times the value on ``elements`` into the sums of ``totals`` at None:
        one :meth:`walk` over one-row slots of integer numerators, one per argument.

        >>> V = GradedSpace([("a", 0), ("b", 1), ("c", 2), ("d", 1)])
        >>> m = MultiMap.from_entries(V, V, 2, 0, {("a", "b"): {"b": 2}, ("b", "b"): {"c": 1}})
        >>> m.key_index[0], sorted(m.key_index[1])
        ({'a': 1, 'b': 3, 'c': 9, 'd': 27}, [0, 1, 3, 4, 6])
        >>> m.apply([Element(V, 1, {"b": 3, "d": 5})] * 2)
        9*c
        """
        den, slots = self.rows[0] * scalar.denominator, []
        for e in elements:
            index, d = walk_index(integer_rows([e.coeffs]), [None])
            den *= d
            slots.append((index, False))
        sums, up = totals.over(den)
        into = sums.setdefault(None, {})
        for _, row, c in self.walk(slots, scalar.numerator * up, None, None):
            for name, n in row:
                into[name] = into.get(name, 0) + c * n

    def __repr__(self):
        return "MultiMap(weight=%d, degree=%d, %d entries)" % (self.weight, self.degree, len(self.rows[1]))


def map_family(
    maps: Mapping[int, MultiMap | None],
    source: GradedSpace,
    target: GradedSpace,
    cap: int,
    degree: int,
) -> dict[int, MultiMap]:
    """The nonzero maps of a degree-``degree`` family, checked against its contract.

    Weight n holds a map ``source -> target`` of weight n and degree
    ``degree - n``, n up to ``cap``: structure maps are the degree-2 family,
    morphism components a degree-1 one.  A breach raises :class:`StructureError`.
    """
    family: dict[int, MultiMap] = {}
    for n, m in sorted(maps.items()):
        if not m:
            continue
        if n != m.weight:
            raise StructureError("map stored at weight %d has weight %d" % (n, m.weight))
        if n > cap:
            raise StructureError("map of weight %d exceeds cap %d" % (n, cap))
        if m.degree != degree - n:
            raise StructureError("map of weight %d has degree %d, expected %d" % (n, m.degree, degree - n))
        if (m.source is not source and m.source != source) or (m.target is not target and m.target != target):
            raise StructureError("map of weight %d maps between the wrong spaces" % n)
        family[n] = m
    return family


def tabulate(
    source: GradedSpace,
    target: GradedSpace,
    degree: int,
    totals: Mapping[Word, Mapping[str, Fraction]],
) -> dict[int, MultiMap]:
    """The degree-``degree`` family taking each word of ``totals`` to its
    name -> coefficient dict, zeros dropped, through :meth:`Totals.family`."""
    den, rows = integer_rows(totals.values())
    return Totals({word: dict(row) for word, row in zip(totals, rows)}, den).family(source, target, degree)


class CoalgebraElement(Combination):
    """Sparse combination of canonical words across weights 1..cap."""

    __slots__ = ("space",)

    def __init__(self, space: GradedSpace, terms: Mapping[Word, Fraction] | None = None):
        self.space = space
        self.terms: dict[Word, Fraction] = {w: c for w, c in (terms or {}).items() if c}

    def _home(self) -> tuple:
        return (self.space,)

    def _like(self, terms: dict) -> "CoalgebraElement":
        return CoalgebraElement(self.space, terms)

    @classmethod
    def from_word(cls, space: GradedSpace, word: Word, coeff=Fraction(1)):
        return cls(space, {word: coeff})

    @classmethod
    def wedge(cls, space: GradedSpace, values: Sequence[Element]) -> "CoalgebraElement":
        """The product of ``values``, expanded over their supports and canonicalised."""
        terms: dict = {}
        for combo in product(*(v.items() for v in values)):
            word, sign = canonicalize_word(tuple(name for name, _ in combo), space)
            if word is None:
                continue
            coeff = sign
            for _, c in combo:
                coeff *= c
            add_scaled(terms, cls.from_word(space, word), coeff)
        return cls(space, terms)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].factors)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*(%s)" % (c, w.label()) for w, c in self.items())


def subword(word: Word, positions: Sequence[int], space: GradedSpace) -> Word:
    """Sub-word at the given (sorted) positions; stays canonical."""
    names = tuple(word.factors[i] for i in positions)
    return Word(names, sum(space.degree(n) for n in names))
