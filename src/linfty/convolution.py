"""The convolution structure on maps from the coalgebra of one structure
into another, whose flat degree-1 elements are the morphisms.

A map collection {a_n} with a_n of weight n and degree u - n is an element
of degree u here, and a morphism is exactly a degree-1 element, one object,
so :func:`morphism_to_mc` only checks the degree and returns its argument.
The n-ary operations pair the target structure maps with the n-fold reduced
coproduct of the source coalgebra:

    (q_n(a_1, ..., a_n))(X) = Q'_n applied to (a_1 (x) ... (x) a_n)
                              of the n-block splittings of X,
    q_1(a) = Q'_1 o a - (-1)**(u-1) a o Q.

Sign conventions (the one table everything below refers to):

  * evaluation, storage and the public splitting signs follow the word
    convention of :mod:`linfty.grading` (``-(-1)**(p*q)`` per swap);
  * an ordered n-block splitting B_1, ..., B_n of a word has the
    block-splitting sign of :mod:`linfty.algebra`, on shifted degrees, as
    both lifts read it;
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
  * q_n, q_1's Q'_1 part included, never lists a word's splittings: it is
    :func:`~linfty.algebra.entry_splittings` over the arguments' stored
    entries, each argument's :attr:`~linfty.morphism.HomElement.entry_index`
    a slot at shift u - 1; an odd-degree argument repeated in consecutive
    slots (shift u - 1 even) is a run, chosen once per multiset;
  * with these choices the degree-2 curvature of a degree-1 element equals
    the morphism compatibility residual weight by weight with sign +1, which
    is the identity that pins all the constants above.

The mapping space's only vector is :class:`~linfty.morphism.HomElement`,
re-exported here.  :mod:`linfty.mc` and :mod:`linfty.homotopy` read it
through the algebra protocol of :mod:`linfty.mc`: in it,
:meth:`ConvolutionAlgebra.accumulate` adds any q_n into integer word totals
(:class:`~linfty.grading.Totals`), Q'_n through the kernel and the
differential's part after Q by :meth:`~linfty.algebra.Coderivation.precompose`,
and ``build`` makes a vector of them once; ``bracket`` runs both.  No word
list is read.  ``hom_space`` (names ``word>name``) and ``hom_to_element``
are a coordinate view for tests and tracing, read by no computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .grading import Element, GradedSpace, InputError, Totals, Word
from .algebra import Coderivation, LInftyStructure, entry_splittings, require_verified
from .morphism import HomElement, require_morphism
from .mc import mc_residual


def morphism_to_mc(vector: HomElement) -> HomElement:
    """A morphism as a Maurer-Cartan candidate, or back: both are the one
    degree-1 vector, so this checks the degree and returns its argument."""
    require_morphism(vector)
    return vector


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
        self._lift = Coderivation(source)

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

    def accumulate(self, totals: Totals, n: int, alphas: Sequence[HomElement], scalar) -> None:
        """Add ``scalar`` times the n-ary operation on ``alphas`` into word totals: the terms
        of :func:`~linfty.algebra.entry_splittings` that Q'_n reads off one slot per argument,
        its :attr:`~linfty.morphism.HomElement.entry_index` at shift u - 1, and for n = 1 less
        the signed :meth:`~linfty.algebra.Coderivation.precompose` of the components.  One
        block crosses nothing and splits with sign +1, so Q'_1 after alpha is that kernel too.
        An argument of another pair or cap raises :class:`~linfty.grading.InputError`."""
        if len(alphas) != n:
            raise InputError("%d-ary bracket applied to %d arguments" % (n, len(alphas)))
        pair = self._pair()
        for a in alphas:
            if not isinstance(a, HomElement) or (a.cap, a.source.space, a.target.space) != pair:
                raise InputError("argument is not an element of this mapping space")
        if n == 1:
            # minus the crossing sign (-1)**(u - 1) of alpha past Q
            alpha = alphas[0]
            self._lift.precompose(alpha.components, scalar if alpha.degree % 2 == 0 else -scalar, totals)
        qn = self.target.maps.get(n)
        if qn is not None:
            entry_splittings(totals, self.source, [(a.degree - 1, a.entry_index) for a in alphas], qn, scalar)

    def build(self, degree: int, totals: Totals) -> HomElement:
        return HomElement.from_totals(self.source, self.target, degree, totals)

    def differential(self, alpha: HomElement) -> HomElement:
        """Mapping-space differential: Q'_1 after, minus signed Q before."""
        return self.bracket([alpha])

    def bracket(self, alphas: Sequence[HomElement]) -> HomElement:
        """The n-ary operation on n elements: :meth:`accumulate`, then :meth:`build`."""
        totals = Totals()
        self.accumulate(totals, len(alphas), alphas, 1)
        return self.build(sum(a.degree for a in alphas) + 2 - len(alphas), totals)

    def arities(self) -> set[int]:
        """1 and the target's stored weights from 2: ``bracket`` is zero elsewhere."""
        return {1} | {n for n in self.target.maps if n >= 2}

    def mc_residual(self, alpha: HomElement) -> HomElement:
        """Curvature of a degree-1 element in the truncated mapping space."""
        return mc_residual(self, alpha)


def build_convolution(
    source: LInftyStructure, target: LInftyStructure, cap: int
) -> ConvolutionAlgebra:
    return ConvolutionAlgebra(source, target, cap)
