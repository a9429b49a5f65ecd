"""Textual document format: one document, one object.

Documents are line-oriented: ``key: value`` headers, then sections like
``basis:`` or ``map 2:`` whose entries are indented by two spaces.  All
scalars are exact rationals printed as ``p`` or ``p/q``; coefficients are
always explicit (``1*x``, never ``x``), words are space-separated canonical
factors, and entries are sorted by basis order, so parsing followed by
serializing reproduces a canonical document byte for byte.

One table, ``_LAYOUT``, holds the layout rules: each kind's headers, the
kind of document a header names by relative path, and the section heads.
:func:`parse_document` checks them once, keying each section by its head
and weight, and one loader resolves every reference against the directory
of the document holding it.  One grammar reads every ``c*name + ...``
combination: a coefficient is a rational ``c``, or ``[c0 c1 ...]``,
polynomial in t, only in ``h0`` and ``h1`` sections.  Every map and
homotopy section is read by one family reader, which builds each power of
t once from integer rows, and written by one section writer.

Morphisms, mapping-space elements and paths are built by the loaders that
need them, which import their modules, so reading an algebra loads only
the grading and algebra layers.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Mapping

from .grading import Element, GradedSpace, InputError, MultiMap, Word, canonicalize_word, tabulate
from .algebra import LInftyStructure, make_linfty

if TYPE_CHECKING:
    from .morphism import HomElement
    from .homotopy import HomotopyElement

# kind -> (its headers after ``kind``, in written order, each with the kind of
# document it names by relative path or None; its section heads).  ``basis``
# is the one head without a weight: any other section is named by its head
# and the weight of its entries, as in ``map 2``.
_LAYOUT = {
    "algebra": ({"cap": None}, ("basis", "map")),
    "morphism": ({"cap": None, "source": "algebra", "target": "algebra"}, ("map",)),
    "mc-element": ({"algebra": "algebra", "value": None}, ()),
    "map": ({"source": "algebra", "target": "algebra", "weight": None, "degree": None}, ("map",)),
    "request": ({"morphism": "morphism", "weight": None}, ("map",)),
    "homotopy": ({"first": "morphism", "second": "morphism"}, ("h0", "h1")),
}


class DocumentError(InputError):
    """Malformed document: unknown fields, bad rationals, unresolved names."""


_RATIONAL = re.compile(r"-?\d+(/\d*[1-9]\d*)?")
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _integer(text: str, what: str) -> int:
    """``text`` as an integer spelled only as ``str(n)`` spells it: ``02``, ``+2`` and `` 2`` are refused."""
    if not _INTEGER.fullmatch(text):
        raise DocumentError("%s is not an integer written plainly: %r" % (what, text))
    return int(text)


def _header(doc: dict, key: str, integer: bool = False):
    """A required header, as text or parsed as an integer."""
    value = doc["headers"].get(key)
    if value is None:
        raise DocumentError("%s document lacks %r" % (doc["kind"], key))
    return _integer(value, key) if integer else value


def parse_document(text: str) -> dict:
    """Split a document into headers and sections, checked against ``_LAYOUT``.

    Sections are keyed by ``(head, weight)``, the weight ``None`` for ``basis``.
    """
    headers: dict[str, str] = {}
    named: list[tuple[int, str, list[str]]] = []
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.startswith("  "):
            if current is None:
                raise DocumentError("line %d: entry outside any section" % lineno)
            current.append(raw[2:])
            continue
        if not raw.endswith(":") and ":" in raw:
            key, _, value = (part.strip() for part in raw.partition(":"))
            if key in headers:
                raise DocumentError("line %d: duplicate header %r" % (lineno, key))
            headers[key] = value
            current = None
            continue
        if raw.endswith(":"):
            current = []
            named.append((lineno, raw[:-1].strip(), current))
            continue
        raise DocumentError("line %d: cannot parse %r" % (lineno, raw))
    kind = headers.get("kind")
    if kind not in _LAYOUT:
        raise DocumentError("unknown document kind %r" % kind)
    header_keys, heads = _LAYOUT[kind]
    unknown = set(headers) - {"kind", *header_keys}
    if unknown:
        raise DocumentError("unknown fields for %s: %s" % (kind, sorted(unknown)))
    sections: dict[tuple[str, int | None], list[str]] = {}
    for lineno, name, lines in named:
        head, sep, weight = name.partition(" ")
        if head not in heads or (head == "basis") == bool(sep):
            raise DocumentError("unknown section %r for kind %s" % (name, kind))
        key = (head, None if head == "basis" else _integer(weight, "weight of section %r" % name))
        if key in sections:
            raise DocumentError("line %d: duplicate section %r" % (lineno, name))
        sections[key] = lines
    return {"kind": kind, "headers": headers, "sections": sections}


def _document(kind: str, values: Iterable, sections: Iterable[str] = ()) -> str:
    """A ``kind`` document: its ``_LAYOUT`` headers set to ``values`` in order, then ``sections``."""
    headers = ["%s: %s" % pair for pair in zip(_LAYOUT[kind][0], values, strict=True)]
    return "\n".join(["kind: %s" % kind, *headers, *sections]) + "\n"


def _combination(space: GradedSpace, text: str, polynomial: bool = False) -> tuple[dict[str, list], int]:
    """``c*name + ...`` as name -> its coefficients by power of t, and the one degree of its names.

    A coefficient is a rational ``p`` or ``p/q``, or ``[c0 c1 ...]`` if
    ``polynomial``; repeated names add up, and a name whose coefficients
    are all zero is left out, but not every name may be.
    """
    combo: dict[str, list[Fraction]] = {}
    for term in text.split(" + "):
        coeff_text, star, name = term.strip().partition("*")
        if not star:
            raise DocumentError("term %r of %r lacks an explicit coefficient" % (term, text))
        if name not in space:
            raise DocumentError("unknown basis name %r" % name)
        bracketed = polynomial and coeff_text[:1] == "[" and coeff_text[-1:] == "]"
        parts = coeff_text[1:-1].split() if bracketed else [coeff_text]
        if not parts or not all(_RATIONAL.fullmatch(part) for part in parts):
            spelled = "p, p/q or [c0 c1 ...]" if polynomial else "p or p/q"
            raise DocumentError("bad coefficient %r in %r (use %s)" % (coeff_text, text, spelled))
        summed = zip_longest(combo.get(name, ()), map(Fraction, parts), fillvalue=0)
        combo[name] = [a + b for a, b in summed]
    combo = {name: poly for name, poly in combo.items() if any(poly)}
    if not combo:
        raise DocumentError("empty combination %r" % text)
    degrees = {space.degree(name) for name in combo}
    if len(degrees) != 1:
        raise DocumentError("combination %r mixes degrees" % text)
    return combo, degrees.pop()


def parse_element(space: GradedSpace, text: str) -> Element:
    combo, degree = _combination(space, text)
    return Element(space, degree, {name: poly[0] for name, poly in combo.items()})


def _families(
    doc: dict, head: str, source: GradedSpace, target: GradedSpace, degree: int
) -> dict[int, dict[int, MultiMap]]:
    """Power of t -> the degree-``degree`` family (:func:`~linfty.grading.tabulate`) of the
    ``head`` sections' ``factors -> value`` entries at that power.

    Each entry is signed into its canonical word, which may not vanish or
    repeat, and its value must have the degree of the word plus ``degree``
    less its weight; coefficients are polynomial in t only in ``h0`` and
    ``h1`` sections, so a ``map`` family sits at power 0.
    """
    totals: dict[int, dict[Word, dict[str, Fraction]]] = {}
    seen: set[Word] = set()
    for (section, weight), lines in doc["sections"].items():
        if section != head:
            continue
        for line in lines:
            lhs, arrow, rhs = line.partition(" -> ")
            if not arrow:
                raise DocumentError("map entry %r lacks ' -> '" % line)
            factors = tuple(lhs.split())
            if len(factors) != weight:
                raise DocumentError("entry %r has %d factors in a weight-%d map" % (line, len(factors), weight))
            word, sign = canonicalize_word(factors, source)
            if word is None:
                raise DocumentError("entry %r is on a vanishing word" % line)
            if word in seen:
                raise DocumentError("duplicate entry for word %r" % (factors,))
            seen.add(word)
            combo, got = _combination(target, rhs, polynomial=head != "map")
            expected = word.degree + degree - weight
            if got != expected:
                raise DocumentError("value on %r has degree %d, expected %d" % (factors, got, expected))
            for name, poly in combo.items():
                for power, coeff in enumerate(poly):
                    if coeff:
                        totals.setdefault(power, {}).setdefault(word, {})[name] = sign * coeff
    return {power: tabulate(source, target, degree, per_word) for power, per_word in totals.items()}


def _format_poly(coeffs: list[Fraction]) -> str:
    """``c`` for a constant, else ``[c0 c1 ...]``; the writer's polynomials end in a nonzero coefficient."""
    text = " ".join(map(str, coeffs))
    return text if len(coeffs) == 1 else "[%s]" % text


def _format_combination(combo: Mapping[str, list[Fraction]], space: GradedSpace) -> str:
    """``c*name + ...`` in basis order, each name's coefficients by power of t."""
    if not combo:
        raise DocumentError("zero combinations are omitted, not serialized")
    return " + ".join("%s*%s" % (_format_poly(combo[name]), name) for name in sorted(combo, key=space.index))


def _sections(
    head: str, families: Mapping[int, Mapping[int, MultiMap]], source: GradedSpace, target: GradedSpace
) -> list[str]:
    """A ``<head> <weight>:`` section per weight of ``families``, power of t -> weight -> map,
    its ``word -> value`` entries in basis order, read from the maps' integer rows."""
    # weight -> word factors -> name -> coefficients by power
    entries: dict[int, dict[tuple[str, ...], dict[str, list[Fraction]]]] = {}
    for power, family in families.items():
        for weight, m in family.items():
            den, rows = m.rows
            for factors, row in rows.items():
                combo = entries.setdefault(weight, {}).setdefault(factors, {})
                for name, n in row:
                    poly = combo.setdefault(name, [])
                    poly.extend([Fraction(0)] * (power + 1 - len(poly)))
                    poly[power] = Fraction(n, den)
    lines = []
    for weight, values in sorted(entries.items()):
        lines.append("%s %d:" % (head, weight))
        for factors in sorted(values, key=lambda f: [source.index(n) for n in f]):
            lines.append("  %s -> %s" % (" ".join(factors), _format_combination(values[factors], target)))
    return lines


def _sole_map(
    doc: dict, weight: int, source: LInftyStructure, target: LInftyStructure, degree: int
) -> MultiMap:
    """The map in the one section of a map or request document, ``map <weight>``."""
    if list(doc["sections"]) != [("map", weight)]:
        raise DocumentError("%s document needs one section, 'map %d'" % (doc["kind"], weight))
    family = _families(doc, "map", source.space, target.space, degree + weight).get(0)
    return family[weight] if family else MultiMap(source.space, target.space, weight, degree)


# -- algebra ---------------------------------------------------------------


def algebra_from_document(doc: dict, cap_override: int | None = None) -> LInftyStructure:
    sections = doc["sections"]
    if ("basis", None) not in sections:
        raise DocumentError("algebra document needs a basis section")
    basis = []
    for line in sections["basis", None]:
        parts = line.split()
        if len(parts) != 2:
            raise DocumentError("basis entry %r is not 'name degree'" % line)
        basis.append((parts[0], _integer(parts[1], "degree in basis entry %r" % line)))
    space = GradedSpace(basis)
    cap = cap_override if cap_override is not None else _header(doc, "cap", integer=True)
    return make_linfty(space, _families(doc, "map", space, space, 2).get(0, {}), cap)


def algebra_to_document(structure: LInftyStructure) -> str:
    space = structure.space
    basis = ["basis:"] + ["  %s %d" % (name, space.degree(name)) for name in space.names]
    return _document("algebra", [structure.cap], basis + _sections("map", {0: structure.maps}, space, space))


# -- loading with cross-references ------------------------------------------


def load_document(path: str, kind: str) -> dict:
    """Read and parse the document at ``path``, which must be of ``kind``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc
    doc = parse_document(text)
    if doc["kind"] != kind:
        raise DocumentError("%s is a %s document, expected %s" % (path, doc["kind"], kind))
    return doc


def write_document(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError("cannot write %s: %s" % (path, exc)) from exc


def _load(path: str, kind: str, cap_override: int | None) -> tuple[dict, dict]:
    """The ``kind`` document at ``path``, and by header the objects it names (``_LAYOUT``),
    each loaded from its path taken relative to the directory of ``path``."""
    doc = load_document(path, kind)
    loaders = {"algebra": load_algebra, "morphism": load_morphism}  # read when called, as rebound
    references = {}
    for key, named in _LAYOUT[kind][0].items():
        if named is not None:
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), _header(doc, key)))
            references[key] = loaders[named](resolved, cap_override)
    return doc, references


def load_algebra(path: str, cap_override: int | None = None) -> LInftyStructure:
    return algebra_from_document(load_document(path, "algebra"), cap_override)


def load_morphism(
    path: str, cap_override: int | None = None
) -> HomElement:
    from .morphism import HomElement

    doc, refs = _load(path, "morphism", cap_override)
    source, target = refs["source"], refs["target"]
    cap = cap_override if cap_override is not None else _header(doc, "cap", integer=True)
    if source.cap != cap or target.cap != cap:
        raise DocumentError("morphism cap %d disagrees with its structures" % cap)
    return HomElement(source, target, 1, _families(doc, "map", source.space, target.space, 1).get(0, {}))


def morphism_to_document(
    morphism: HomElement, source_ref: str, target_ref: str
) -> str:
    sections = _sections("map", {0: morphism.components}, morphism.source.space, morphism.target.space)
    return _document("morphism", [morphism.cap, source_ref, target_ref], sections)


def load_mc_element(path: str, cap_override: int | None = None):
    doc, refs = _load(path, "mc-element", cap_override)
    structure = refs["algebra"]
    return structure, parse_element(structure.space, _header(doc, "value"))


def mc_to_document(value: Element, algebra_ref: str) -> str:
    combo = {name: [coeff] for name, coeff in value.coeffs.items()}
    return _document("mc-element", [algebra_ref, _format_combination(combo, value.space)])


def load_map(path: str, cap_override: int | None = None):
    doc, refs = _load(path, "map", cap_override)
    source, target = refs["source"], refs["target"]
    weight = _header(doc, "weight", integer=True)
    degree = _header(doc, "degree", integer=True)
    return source, target, _sole_map(doc, weight, source, target, degree)


def map_to_document(
    m: MultiMap, source_ref: str, target_ref: str
) -> str:
    sections = _sections("map", {0: {m.weight: m}}, m.source, m.target)
    return _document("map", [source_ref, target_ref, m.weight, m.degree], sections)


def load_request(path: str, cap_override: int | None = None):
    doc, refs = _load(path, "request", cap_override)
    morphism = refs["morphism"]
    weight = _header(doc, "weight", integer=True)
    correction = _sole_map(doc, weight, morphism.source, morphism.target, -weight)
    return morphism, weight, correction


# -- homotopy documents ------------------------------------------------------


def load_homotopy(
    path: str, cap_override: int | None = None
) -> tuple[HomElement, HomElement, HomotopyElement]:
    """The two morphisms a homotopy document names, and the homotopy between them.

    A ``h0 n:`` or ``h1 n:`` entry takes a weight-n word to target names
    with coefficients polynomial in t, ``[c0 c1 ...]`` or a constant ``c``.
    The homotopy lives over a newly built mapping space of the first
    morphism's source and target.
    """
    from .morphism import HomElement
    from .convolution import build_convolution
    from .mc import PolyPath
    from .homotopy import HomotopyElement

    doc, refs = _load(path, "homotopy", cap_override)
    first, second = refs["first"], refs["second"]
    conv = build_convolution(first.source, first.target, first.cap)

    def path_of(head: str, degree: int) -> PolyPath:
        families = _families(doc, head, first.source.space, first.target.space, degree)
        coefficients = {power: HomElement(first.source, first.target, degree, family)
                        for power, family in families.items()}
        return PolyPath(conv, degree, coefficients)

    return first, second, HomotopyElement(conv, path_of("h0", 1), path_of("h1", 0))


def homotopy_to_document(h: HomotopyElement, first_ref: str, second_ref: str) -> str:
    source, target = h.conv.source.space, h.conv.target.space
    sections = []
    for head, path in (("h0", h.h0), ("h1", h.h1)):
        families = {power: value.components for power, value in path.coefficients.items()}
        sections += _sections(head, families, source, target)
    return _document("homotopy", [first_ref, second_ref], sections)
