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
  * block bookkeeping inside q_n is done on shifted degrees: splittings are
    signed classically on degrees lowered by one, a map collection of degree
    u crosses a block B at cost ``(-1)**((u-1)*(deg B - weight B))``, and
    each application of a weight-k component or of Q'_n contributes the
    desuspension sign of its arguments' plain degrees;
  * q_n carries one constant for its arguments, the desuspension sign of
    their shifted degrees u_1 - 1, ..., u_n - 1 (that of u_1, ..., u_n
    times ``(-1)**(n*(n-1)/2)``); it is +1 when every u_i = 1 or when only
    the last is 0, and it makes q_n graded-antisymmetric in the word
    convention, so the mapping space is a structure in the same convention
    as its source and target;
  * with these choices the degree-2 curvature of a degree-1 element equals
    the morphism compatibility residual weight by weight with sign +1, which
    is the identity that pins all the constants above.

:class:`ConvolutionAlgebra` offers ``cap`` and ``apply(n, elements)`` on
hom-space coordinates, which is all the Maurer-Cartan calculus of
:mod:`linfty.mc` and :mod:`linfty.homotopy` reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Mapping, Sequence

from .grading import (
    CoalgebraElement,
    Element,
    GradedSpace,
    InputError,
    MultiMap,
    StructureError,
    Word,
    canonicalize_word,
    classical_koszul_sign,
    desuspension_sign,
    koszul_sign,
    subword,
)
from .algebra import LInftyStructure, check_relations, lift_coderivation
from .morphism import MorphismComponents, _set_partitions
from .mc import twisting_series


def iterated_coproduct(
    element: CoalgebraElement | Word, n: int, space: GradedSpace | None = None
) -> dict[tuple[Word, ...], Fraction]:
    """Reduced n-fold coproduct: ordered splittings signed by the word rule.

    Zero on words of weight below n; the two-block splitting of a weight-2
    word (a, b) with degrees 0, 1 is a(x)b - b(x)a.
    """
    if n < 2:
        raise InputError("iterated coproduct needs n >= 2")
    if isinstance(element, Word):
        if space is None:
            raise InputError("a bare word needs its space")
        element = CoalgebraElement.from_word(space, element)
    out: dict[tuple[Word, ...], Fraction] = {}
    space = element.space
    for word, coeff in element.terms.items():
        m = word.weight
        if n > m:
            continue
        degrees = space.degrees_of(word.factors)
        for blocks in _ordered_splittings(m, n):
            arrangement = [i for b in blocks for i in b]
            sign = koszul_sign(arrangement, degrees)
            key = tuple(subword(word, b, space) for b in blocks)
            prev = out.get(key, Fraction(0))
            new = prev + coeff * sign
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


@lru_cache(maxsize=None)
def _ordered_splittings(m: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Ordered partitions of range(m) into n nonempty blocks (blocks sorted)."""

    def go(remaining: tuple[int, ...], blocks_left: int):
        if blocks_left == 1:
            yield (remaining,)
            return
        first = remaining[0]
        rest = remaining[1:]
        # anchoring the first remaining position enumerates unordered partitions
        for extra in range(0, len(rest) - blocks_left + 2):
            for chosen in combinations(rest, extra):
                block = (first,) + chosen
                left = tuple(p for p in rest if p not in chosen)
                for tail in go(left, blocks_left - 1):
                    yield (block,) + tail

    out = []
    for blocks in go(tuple(range(m)), n):
        for order in permutations(range(n)):
            out.append(tuple(blocks[i] for i in order))
    return tuple(out)


class HomElement:
    """Weight-indexed component maps viewed as one element of the mapping space."""

    def __init__(
        self,
        source: LInftyStructure,
        target: LInftyStructure,
        u_degree: int,
        components: Mapping[int, MultiMap],
    ):
        if source.cap != target.cap:
            raise InputError("source and target caps differ")
        self.source = source
        self.target = target
        self.cap = source.cap
        self.u_degree = u_degree
        self.components: dict[int, MultiMap] = {}
        for n, comp in sorted(components.items()):
            if comp is None or comp.is_zero():
                continue
            if comp.weight != n or n > self.cap:
                raise StructureError("component stored at weight %d is invalid" % n)
            if comp.degree != u_degree - n:
                raise StructureError(
                    "weight-%d component has degree %d, expected %d"
                    % (n, comp.degree, u_degree - n)
                )
            if comp.source != source.space or comp.target != target.space:
                raise StructureError("component %d maps between the wrong spaces" % n)
            self.components[n] = comp

    @property
    def filtration_level(self) -> int:
        """Smallest weight carrying a nonzero component; cap+1 when zero."""
        if not self.components:
            return self.cap + 1
        return min(self.components)

    def component(self, n: int) -> MultiMap:
        got = self.components.get(n)
        if got is None:
            return MultiMap(
                self.source.space, self.target.space, n, self.u_degree - n
            )
        return got

    def value(self, word: Word) -> Element:
        return self.component(word.weight).value(word)

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "HomElement") -> "HomElement":
        self._check(other)
        comps: dict[int, MultiMap] = {}
        for n in sorted(set(self.components) | set(other.components)):
            a = self.components.get(n)
            b = other.components.get(n)
            if a is None:
                comps[n] = b
                continue
            if b is None:
                comps[n] = a
                continue
            values = dict(a.values)
            for w, v in b.values.items():
                values[w] = values[w] + v if w in values else v
            comps[n] = MultiMap(
                a.source, a.target, n, self.u_degree - n,
                {w: v for w, v in values.items() if not v.is_zero()},
            )
        return HomElement(self.source, self.target, self.u_degree, comps)

    def __sub__(self, other: "HomElement") -> "HomElement":
        return self + other.scale(Fraction(-1))

    def scale(self, scalar) -> "HomElement":
        comps = {
            n: MultiMap(
                c.source, c.target, n, self.u_degree - n,
                {w: v.scale(scalar) for w, v in c.values.items()},
            )
            for n, c in self.components.items()
        }
        return HomElement(self.source, self.target, self.u_degree, comps)

    def _check(self, other: "HomElement"):
        if (
            self.source.space != other.source.space
            or self.target.space != other.target.space
            or self.u_degree != other.u_degree
        ):
            raise InputError("mapping-space elements are incompatible")

    def __eq__(self, other):
        return (
            isinstance(other, HomElement)
            and self.source.space == other.source.space
            and self.target.space == other.target.space
            and self.u_degree == other.u_degree
            and self.components == other.components
        )

    def __repr__(self):
        return "HomElement(u_degree=%d, weights=%s, level=%d)" % (
            self.u_degree,
            sorted(self.components),
            self.filtration_level,
        )


def morphism_to_mc(morphism: MorphismComponents) -> HomElement:
    """Repackage morphism components as a degree-1 mapping-space element."""
    return HomElement(morphism.source, morphism.target, 1, morphism.components)


def mc_to_morphism(alpha: HomElement) -> MorphismComponents:
    """Inverse repackaging; only degree-1 elements are morphism-shaped."""
    if alpha.u_degree != 1:
        raise InputError(
            "only degree-1 elements correspond to morphisms, got degree %d"
            % alpha.u_degree
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
        for structure, label in ((source, "source"), (target, "target")):
            if not structure.verified:
                if not check_relations(structure).passed:
                    raise StructureError("%s structure fails its relations" % label)
        self.source = source
        self.target = target
        self.cap = cap
        self.words: list[Word] = source.words()
        basis = []
        self._basis_pairs: list[tuple[Word, str]] = []
        for word in self.words:
            for name in target.space.names:
                u = target.space.degree(name) - word.degree + word.weight
                basis.append(("%s>%s" % (word.label(), name), u))
                self._basis_pairs.append((word, name))
        self.hom_space = GradedSpace(basis)
        self._lift = lift_coderivation(source)

    # -- conversions ------------------------------------------------------

    def hom_to_element(self, alpha: HomElement) -> Element:
        coeffs: dict[str, Fraction] = {}
        for (word, name), hom_name in zip(self._basis_pairs, self.hom_space.names):
            comp = alpha.components.get(word.weight)
            if comp is None:
                continue
            c = comp.value(word).coeffs.get(name)
            if c:
                coeffs[hom_name] = c
        return Element(self.hom_space, alpha.u_degree, coeffs)

    def element_to_hom(self, element: Element) -> HomElement:
        if element.space is not self.hom_space and element.space != self.hom_space:
            raise InputError("element does not live in the mapping space")
        per_weight: dict[int, dict[Word, dict[str, Fraction]]] = {}
        for hom_name, c in element.coeffs.items():
            word, name = self._basis_pairs[self.hom_space.index(hom_name)]
            per_weight.setdefault(word.weight, {}).setdefault(word, {})[name] = c
        comps = {}
        for n, words in per_weight.items():
            values = {
                w: Element(self.target.space, w.degree + element.degree - n, combo)
                for w, combo in words.items()
            }
            comps[n] = MultiMap(
                self.source.space, self.target.space, n, element.degree - n, values
            )
        return HomElement(self.source, self.target, element.degree, comps)

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

    def zero_hom(self, u_degree: int) -> HomElement:
        return HomElement(self.source, self.target, u_degree, {})

    # -- structure maps ---------------------------------------------------

    def differential(self, alpha: HomElement) -> HomElement:
        """Mapping-space differential: Q'_1 after, minus signed Q before."""
        tgt = self.target
        q1 = tgt.maps.get(1)
        cross = -1 if (alpha.u_degree - 1) % 2 else 1
        comps: dict[int, dict[Word, Element]] = {}
        for word in self.words:
            m = word.weight
            total = Element.zero(tgt.space, word.degree + alpha.u_degree + 1 - m)
            val = alpha.component(m).value(word)
            if q1 is not None and not val.is_zero():
                total = total + q1.apply([val])
            pre = self._lift.on_word(word)
            for w2, c in pre.terms.items():
                inner = alpha.component(w2.weight).value(w2)
                if not inner.is_zero():
                    total = total - inner.scale(Fraction(cross) * c)
            if not total.is_zero():
                comps.setdefault(m, {})[word] = total
        return self._assemble(alpha.u_degree + 1, comps)

    def bracket(self, alphas: Sequence[HomElement]) -> HomElement:
        """The n-ary operation on n mapping-space elements."""
        n = len(alphas)
        if n == 1:
            return self.differential(alphas[0])
        u_out = sum(a.u_degree for a in alphas) + 2 - n
        qn = self.target.maps.get(n)
        if qn is None:
            return self.zero_hom(u_out)
        src_space = self.source.space
        hom_shift = [a.u_degree - 1 for a in alphas]
        constant = desuspension_sign(hom_shift)
        comps: dict[int, dict[Word, Element]] = {}
        for word in self.words:
            m = word.weight
            if m < n:
                continue
            degrees = src_space.degrees_of(word.factors)
            shifted = [d - 1 for d in degrees]
            word_sign = constant * desuspension_sign(degrees)
            total = Element.zero(
                self.target.space, word.degree + u_out - m
            )
            for blocks in _ordered_splittings(m, n):
                vals: list[Element] = []
                ok = True
                sign = word_sign
                block_shifted_degrees = []
                for i, block in enumerate(blocks):
                    bdeg = [degrees[p] for p in block]
                    block_shifted_degrees.append(sum(bdeg) - len(block))
                    wpart = subword(word, block, src_space)
                    val = alphas[i].component(len(block)).value(wpart)
                    if val.is_zero():
                        ok = False
                        break
                    sign *= desuspension_sign(bdeg)
                    vals.append(val)
                if not ok:
                    continue
                arrangement = [p for b in blocks for p in b]
                sign *= classical_koszul_sign(arrangement, shifted)
                crossing = 0
                for j in range(n):
                    for i in range(j):
                        crossing += hom_shift[j] * block_shifted_degrees[i]
                if crossing % 2:
                    sign = -sign
                sign *= desuspension_sign([v.degree for v in vals])
                term = qn.apply(vals)
                if not term.is_zero():
                    total = total + term.scale(Fraction(sign))
            if not total.is_zero():
                comps.setdefault(m, {})[word] = total
        return self._assemble(u_out, comps)

    def _assemble(
        self, u_degree: int, comps: Mapping[int, Mapping[Word, Element]]
    ) -> HomElement:
        built = {
            n: MultiMap(
                self.source.space,
                self.target.space,
                n,
                u_degree - n,
                dict(values),
            )
            for n, values in comps.items()
        }
        return HomElement(self.source, self.target, u_degree, built)

    def apply(self, n: int, elements: Sequence[Element]) -> Element:
        """The n-ary operation on hom-space coordinates."""
        return self.hom_to_element(
            self.bracket([self.element_to_hom(x) for x in elements])
        )

    def mc_residual(self, alpha: HomElement) -> HomElement:
        """Curvature of a degree-1 element in the truncated mapping space."""
        if alpha.u_degree != 1:
            raise InputError("curvature is defined for degree-1 elements")
        return twisting_series(lambda n, alphas: self.bracket(alphas), self.cap, alpha)


def coalgebra_partitions(
    word: Word, space: GradedSpace
) -> list[tuple[int, list[Word]]]:
    """Unordered partitions of a word into sub-words, suspension-signed.

    This is the comonad coproduct of the free coalgebra in component form:
    blocks are ordered by their minimal position and the sign combines the
    shifted-degree rearrangement with the desuspension signs of the blocks
    and of the resulting word of blocks.
    """
    m = word.weight
    degrees = space.degrees_of(word.factors)
    chi_in = desuspension_sign(degrees)
    shifted = [d - 1 for d in degrees]
    out: list[tuple[int, list[Word]]] = []
    for blocks in _set_partitions(tuple(range(m))):
        arrangement = [p for b in blocks for p in b]
        sign = chi_in * classical_koszul_sign(arrangement, shifted)
        words = []
        outer_degrees = []
        for block in blocks:
            bdeg = [degrees[p] for p in block]
            sign *= desuspension_sign(bdeg)
            wpart = subword(word, block, space)
            words.append(wpart)
            outer_degrees.append(wpart.suspended_degree())
        sign *= desuspension_sign(outer_degrees)
        out.append((sign, words))
    return out


def partial_derivation(
    b: HomElement, f: HomElement, blocks: Sequence[Word]
) -> CoalgebraElement:
    """One-slot replacement sum over a word of coalgebra elements.

    Every slot but one is fed to the degree-0 map ``f``, the chosen slot to
    ``b``; the term's sign is ``(-1)**(|b| * (n - 1 + sum of earlier slot
    degrees))`` with slot degrees read in the coalgebra grading and n - 1
    the degree of the weight-n cooperad coefficient.  Output words assemble
    with the plain convention signs; together with
    :func:`coalgebra_partitions` this rebuilds a compatibility defect from
    its cogenerator part exactly.
    """
    if f.u_degree != 1:
        raise InputError("the passive map must have degree 0 (element degree 1)")
    n = len(blocks)
    if n == 0:
        raise InputError("need at least one slot")
    tgt_space = b.target.space
    b_degree = b.u_degree - 1
    out = CoalgebraElement(tgt_space)
    gamma_degree = n - 1
    for i in range(n):
        prefix = sum(w.suspended_degree() for w in blocks[:i])
        slot_sign = -1 if (b_degree * (gamma_degree + prefix)) % 2 else 1
        vals: list[Element] = []
        ok = True
        for j, w in enumerate(blocks):
            hom = b if j == i else f
            val = hom.component(w.weight).value(w)
            if val.is_zero():
                ok = False
                break
            vals.append(val)
        if not ok:
            continue
        sign = slot_sign
        for combo in product(*(v.items() for v in vals)):
            names = tuple(name for name, _ in combo)
            coeff = Fraction(sign)
            for _, c in combo:
                coeff *= c
            new_word, csign = canonicalize_word(names, tgt_space)
            if new_word is None:
                continue
            out.add_term(new_word, coeff * csign)
    return out


def build_convolution(
    source: LInftyStructure, target: LInftyStructure, cap: int
) -> ConvolutionAlgebra:
    return ConvolutionAlgebra(source, target, cap)
