"""The word-by-word reference layer: a word's signed splittings and unshuffles,
coalgebra elements, and the independent unshuffle evaluator of the relations.

No kernel imports it: the kernels form maps after either lift from stored
entries (:func:`linfty.algebra.entry_splittings`), while the references here
list one word's terms, for both lifts' ``on_word`` and for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Mapping, Sequence

from .grading import Combination, Element, GradedSpace, Word, add_scaled, canonicalize_word, koszul_sign
from .algebra import LInftyStructure


def classical_koszul_sign(permutation: Sequence[int], degrees: Sequence[int]) -> int:
    """Classical Koszul sign: ``(-1)**(p*q)`` per adjacent transposition, :func:`~linfty.grading.koszul_sign`
    less the permutation's own sign, which is the Koszul sign on degrees 0."""
    return koszul_sign(permutation, degrees) * koszul_sign(permutation, [0] * len(degrees))


def desuspension_sign(degrees: Sequence[int]) -> int:
    """Sign of pulling one suspension out of each tensor factor in turn.

    Equals ``(-1)**sum(degrees[i] for i < j)`` over pairs i < j; it converts between
    :mod:`linfty.grading`'s convention and the classical one on shifted degrees.
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


def unshuffle_residual(structure: LInftyStructure, word: Word) -> Element:
    """Independent evaluator of the quadratic identity at one word.

    Computes sum over i + j = n + 1 of (-1)**(i*(j-1)) times the signed sum
    over (i, n-i)-unshuffles of Q_j(Q_i(. . .), rest).  Shares no code with
    the coderivation lift beyond word canonicalization.
    """
    L = structure
    space = L.space
    n = word.weight
    degrees = space.degrees_of(word.factors)
    coeffs: dict = {}
    for i in range(1, n + 1):
        j = n - i + 1
        if j > L.cap or i > L.cap:
            continue
        qi = L.maps.get(i)
        qj = L.maps.get(j)
        if qi is None or qj is None:
            continue
        coeff_sign = -1 if (i * (j - 1)) % 2 else 1
        for chosen in combinations(range(n), i):
            rest = tuple(p for p in range(n) if p not in chosen)
            sign = koszul_sign(chosen + rest, degrees)
            inner = qi.evaluate(tuple(word.factors[p] for p in chosen))
            if inner.is_zero():
                continue
            rest_names = tuple(word.factors[p] for p in rest)
            for name, c in inner.coeffs.items():
                outer = qj.evaluate((name,) + rest_names)
                add_scaled(coeffs, outer, Fraction(coeff_sign * sign) * c)
    return Element(space, word.degree + 3 - n, coeffs)
