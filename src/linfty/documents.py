"""Textual document format: one document, one object.

Documents are line-oriented: ``key: value`` headers, then sections like
``basis:`` or ``map 2:`` whose entries are indented by two spaces.  All
scalars are exact rationals printed as ``p`` or ``p/q``; coefficients are
always explicit (``1*x``, never ``x``), words are space-separated canonical
factors, and entries are sorted by basis order, so parsing followed by
serializing reproduces a canonical document byte for byte.  Objects refer
to each other by relative file path, never by inline duplication.

The layout rules live in one table, ``_LAYOUT``, and :func:`parse_document`
checks them once, keying each section by its head and weight, so no loader
reads a section name.  Map and homotopy sections share one entry reader and
one section writer; every writer prints its kind and headers through one
header writer.

Morphisms, mapping-space elements and paths are built by the loaders that
need them, which import their modules, so reading an algebra loads only
the grading and algebra layers.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .grading import Element, GradedSpace, InputError, MultiMap, Word, canonicalize_word, tabulate
from .algebra import LInftyStructure, make_linfty

if TYPE_CHECKING:
    from .morphism import HomElement
    from .homotopy import HomotopyElement

# kind -> (its headers after ``kind``, in written order; its section heads).
# ``basis`` is the one head without a weight: any other section is named by
# its head and the weight of its entries, as in ``map 2``.
_LAYOUT = {
    "algebra": (("cap",), ("basis", "map")),
    "morphism": (("cap", "source", "target"), ("map",)),
    "mc-element": (("algebra", "value"), ()),
    "map": (("source", "target", "weight", "degree"), ("map",)),
    "request": (("morphism", "weight"), ("map",)),
    "homotopy": (("first", "second"), ("h0", "h1")),
}


class DocumentError(InputError):
    """Malformed document: unknown fields, bad rationals, unresolved names."""


_RATIONAL = re.compile(r"-?\d+(/\d+)?$")
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _parse_fraction(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise DocumentError("bad rational %r (use p or p/q)" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("bad rational %r" % text) from exc


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


def _format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


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


def _terms(space: GradedSpace, text: str):
    """Split ``c*name + ...`` into (coefficient text, name) pairs, names checked."""
    for term in text.split(" + "):
        term = term.strip()
        if not term:
            raise DocumentError("empty term in %r" % text)
        if "*" not in term:
            raise DocumentError("term %r lacks an explicit coefficient" % term)
        coeff_text, _, name = term.partition("*")
        if name not in space:
            raise DocumentError("unknown basis name %r" % name)
        yield coeff_text, name


def _format_element(element: Element) -> str:
    if element.is_zero():
        raise DocumentError("zero combinations are omitted, not serialized")
    return " + ".join("%s*%s" % (_format_fraction(c), n) for n, c in element.items())


def parse_element(space: GradedSpace, text: str) -> Element:
    summed: dict[str, Fraction] = {}
    for coeff_text, name in _terms(space, text):
        summed[name] = summed.get(name, Fraction(0)) + _parse_fraction(coeff_text)
    combo = {n: c for n, c in summed.items() if c}
    if not combo:
        raise DocumentError("empty combination %r" % text)
    degrees = {space.degree(n) for n in combo}
    if len(degrees) != 1:
        raise DocumentError("combination %r mixes degrees" % text)
    return Element(space, degrees.pop(), combo)


def _entries(lines: list[str], source: GradedSpace, weight: int):
    """Each ``factors -> value`` entry as (canonical word, its sign, value text); no word may vanish or repeat."""
    seen: set[Word] = set()
    for line in lines:
        if " -> " not in line:
            raise DocumentError("map entry %r lacks ' -> '" % line)
        lhs, _, rhs = line.partition(" -> ")
        factors = tuple(lhs.split())
        if len(factors) != weight:
            raise DocumentError("entry %r has %d factors in a weight-%d map" % (line, len(factors), weight))
        word, sign = canonicalize_word(factors, source)
        if word is None:
            raise DocumentError("entry %r is on a vanishing word" % line)
        if word in seen:
            raise DocumentError("duplicate entry for word %r" % (word.factors,))
        seen.add(word)
        yield word, sign, rhs


def _section_lines(
    sections: Mapping[tuple[str, int], Mapping], space: GradedSpace, value_text: Callable
) -> list[str]:
    """A ``<head> <weight>:`` section per key, in key order, its ``word -> value`` entries in basis order."""
    lines = []
    for (head, weight), values in sorted(sections.items()):
        lines.append("%s %d:" % (head, weight))
        for word in sorted(values, key=lambda w: [space.index(n) for n in w.factors]):
            lines.append("  %s -> %s" % (" ".join(word.factors), value_text(values[word])))
    return lines


def _parse_map_section(
    lines: list[str], source: GradedSpace, target: GradedSpace, weight: int, degree: int
) -> MultiMap:
    values = {word: parse_element(target, rhs).scale(sign) for word, sign, rhs in _entries(lines, source, weight)}
    return MultiMap(source, target, weight, degree, values)


def _sole_map(
    doc: dict, weight: int, source: LInftyStructure, target: LInftyStructure, degree: int
) -> MultiMap:
    """The map in the one section of a map or request document, ``map <weight>``."""
    if list(doc["sections"]) != [("map", weight)]:
        raise DocumentError("%s document needs one section, 'map %d'" % (doc["kind"], weight))
    return _parse_map_section(doc["sections"]["map", weight], source.space, target.space, weight, degree)


def _map_sections(maps: Mapping[int, MultiMap], space: GradedSpace) -> list[str]:
    """One ``map n:`` section per weight n."""
    return _section_lines({("map", weight): m.values for weight, m in maps.items()}, space, _format_element)


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
    cap = cap_override if cap_override is not None else _integer(doc["headers"].get("cap", "0"), "cap")
    if cap < 1:
        raise DocumentError("algebra cap must be a positive integer")
    maps: dict[int, MultiMap] = {}
    for (head, weight), lines in sections.items():
        if head == "map":
            maps[weight] = _parse_map_section(lines, space, space, weight, 2 - weight)
    return make_linfty(space, maps, cap)


def algebra_to_document(structure: LInftyStructure) -> str:
    space = structure.space
    basis = ["basis:"] + ["  %s %d" % (name, space.degree(name)) for name in space.names]
    return _document("algebra", [structure.cap], basis + _map_sections(structure.maps, space))


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


def _resolve(base_path: str, reference: str) -> str:
    return os.path.normpath(os.path.join(os.path.dirname(base_path), reference))


def load_algebra(path: str, cap_override: int | None = None) -> LInftyStructure:
    return algebra_from_document(load_document(path, "algebra"), cap_override)


def load_morphism(
    path: str, cap_override: int | None = None
) -> HomElement:
    from .morphism import HomElement

    doc = load_document(path, "morphism")
    source = load_algebra(_resolve(path, _header(doc, "source")), cap_override)
    target = load_algebra(_resolve(path, _header(doc, "target")), cap_override)
    cap = _header(doc, "cap", integer=True)
    if cap_override is not None:
        cap = cap_override
    if source.cap != cap or target.cap != cap:
        raise DocumentError("morphism cap %d disagrees with its structures" % cap)
    components: dict[int, MultiMap] = {}
    for (_, weight), lines in doc["sections"].items():
        components[weight] = _parse_map_section(lines, source.space, target.space, weight, 1 - weight)
    return HomElement(source, target, 1, components)


def morphism_to_document(
    morphism: HomElement, source_ref: str, target_ref: str
) -> str:
    sections = _map_sections(morphism.components, morphism.source.space)
    return _document("morphism", [morphism.cap, source_ref, target_ref], sections)


def load_mc_element(path: str, cap_override: int | None = None):
    doc = load_document(path, "mc-element")
    structure = load_algebra(_resolve(path, _header(doc, "algebra")), cap_override)
    value = parse_element(structure.space, _header(doc, "value"))
    return structure, value


def mc_to_document(value: Element, algebra_ref: str) -> str:
    return _document("mc-element", [algebra_ref, _format_element(value)])


def load_map(path: str, cap_override: int | None = None):
    doc = load_document(path, "map")
    source = load_algebra(_resolve(path, _header(doc, "source")), cap_override)
    target = load_algebra(_resolve(path, _header(doc, "target")), cap_override)
    weight = _header(doc, "weight", integer=True)
    degree = _header(doc, "degree", integer=True)
    m = _sole_map(doc, weight, source, target, degree)
    return source, target, m


def map_to_document(
    m: MultiMap, source_ref: str, target_ref: str
) -> str:
    sections = _map_sections({m.weight: m}, m.source)
    return _document("map", [source_ref, target_ref, m.weight, m.degree], sections)


def load_request(path: str, cap_override: int | None = None):
    doc = load_document(path, "request")
    morphism = load_morphism(_resolve(path, _header(doc, "morphism")), cap_override)
    weight = _header(doc, "weight", integer=True)
    correction = _sole_map(doc, weight, morphism.source, morphism.target, -weight)
    return morphism, weight, correction


# -- homotopy documents ------------------------------------------------------


def _parse_poly(text: str) -> list[Fraction]:
    parts = text[1:-1].split() if text.startswith("[") and text.endswith("]") else [text]
    if not parts:
        raise DocumentError("bad polynomial %r (use [c0 c1 ...] or c)" % text)
    return [_parse_fraction(p) for p in parts]


def _format_poly(coeffs: list[Fraction]) -> str:
    """``[c0 c1 ...]``, or ``c0`` alone; the writer's polynomials end in a nonzero coefficient."""
    if len(coeffs) == 1:
        return _format_fraction(coeffs[0])
    return "[%s]" % " ".join(_format_fraction(c) for c in coeffs)


def load_homotopy(
    path: str, cap_override: int | None = None
) -> tuple[HomElement, HomElement, HomotopyElement]:
    """The two morphisms a homotopy document names, and the homotopy between them.

    A ``h0 n:`` or ``h1 n:`` entry takes a weight-n word to target names
    with coefficients polynomial in t, ``[c0 c1 ...]`` or a constant ``c``;
    repeated names add up.  The homotopy lives over a newly built mapping
    space of the first morphism's source and target.
    """
    from .morphism import HomElement
    from .convolution import build_convolution
    from .mc import PolyPath
    from .homotopy import HomotopyElement

    doc = load_document(path, "homotopy")
    first = load_morphism(_resolve(path, _header(doc, "first")), cap_override)
    second = load_morphism(_resolve(path, _header(doc, "second")), cap_override)
    source, target = first.source.space, first.target.space
    # head -> power -> word -> name -> coefficient, zeros left out
    parts: dict[str, dict[int, dict[Word, dict[str, Fraction]]]] = {"h0": {}, "h1": {}}
    for (head, weight), lines in doc["sections"].items():
        for word, sign, rhs in _entries(lines, source, weight):
            combo: dict[str, list[Fraction]] = {}
            for coeff_text, name in _terms(target, rhs):
                poly = [c * sign for c in _parse_poly(coeff_text)]
                summed = zip_longest(combo.get(name, []), poly, fillvalue=0)
                combo[name] = [a + b for a, b in summed]
            if not any(any(poly) for poly in combo.values()):
                raise DocumentError("empty combination %r" % rhs)
            for name, poly in combo.items():
                for power, coeff in enumerate(poly):
                    if coeff:
                        parts[head].setdefault(power, {}).setdefault(word, {})[name] = coeff
    conv = build_convolution(first.source, first.target, first.cap)

    def build(per_power, degree: int) -> PolyPath:
        coefficients = {}
        for power, combos in per_power.items():
            coefficients[power] = HomElement(first.source, first.target, degree, tabulate(source, target, degree, combos))
        return PolyPath(conv, degree, coefficients)

    return first, second, HomotopyElement(conv, build(parts["h0"], 1), build(parts["h1"], 0))


def homotopy_to_document(h: HomotopyElement, first_ref: str, second_ref: str) -> str:
    source, target = h.conv.source.space, h.conv.target.space

    def terms(combo: dict[str, list[Fraction]]) -> str:
        return " + ".join("%s*%s" % (_format_poly(combo[n]), n) for n in target.names if n in combo)

    # (head, weight) -> word -> name -> coefficients by power
    sections: dict[tuple[str, int], dict[Word, dict[str, list[Fraction]]]] = {}
    for head, path in (("h0", h.h0), ("h1", h.h1)):
        for power, value in path.coefficients.items():
            for weight, comp in value.components.items():
                for word, element in comp.values.items():
                    for name, coeff in element.coeffs.items():
                        poly = sections.setdefault((head, weight), {}).setdefault(word, {}).setdefault(name, [])
                        poly.extend([Fraction(0)] * (power + 1 - len(poly)))
                        poly[power] = coeff
    return _document("homotopy", [first_ref, second_ref], _section_lines(sections, source, terms))
