"""Textual document format: one document, one object.

Documents are line-oriented: ``key: value`` headers, then sections like
``basis:`` or ``map 2:`` whose entries are indented by two spaces.  All
scalars are exact rationals printed as ``p`` or ``p/q``; coefficients are
always explicit (``1*x``, never ``x``), words are space-separated canonical
factors, and entries are sorted by basis order, so parsing followed by
serializing reproduces a canonical document byte for byte.  Objects refer
to each other by relative file path, never by inline duplication.

Morphisms, mapping-space elements and paths are built by the loaders that
need them, which import their modules, so reading an algebra loads only
the grading and algebra layers.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Mapping

from .grading import Element, GradedSpace, InputError, MultiMap, Word, canonicalize_word, tabulate
from .algebra import LInftyStructure, make_linfty

if TYPE_CHECKING:
    from .morphism import HomElement
    from .homotopy import HomotopyElement

KINDS = ("algebra", "morphism", "mc-element", "map", "request", "homotopy")

_HEADER_KEYS = {
    "algebra": {"kind", "cap"},
    "morphism": {"kind", "cap", "source", "target"},
    "mc-element": {"kind", "algebra", "value"},
    "map": {"kind", "source", "target", "weight", "degree"},
    "request": {"kind", "morphism", "weight"},
    "homotopy": {"kind", "first", "second"},
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


def _section_weight(name: str) -> int:
    return _integer(name.partition(" ")[2], "weight of section %r" % name)


def _sole_map_section(doc: dict, weight: int) -> list[str]:
    """The one section of a map or request document, ``map <weight>``."""
    if [_section_weight(name) for name in doc["sections"]] != [weight]:
        raise DocumentError("%s document needs one section, 'map %d'" % (doc["kind"], weight))
    return doc["sections"]["map %d" % weight]


def _format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def parse_document(text: str) -> dict:
    """Split a document into headers and sections; rejects unknown fields."""
    headers: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.startswith("  "):
            if current is None:
                raise DocumentError("line %d: entry outside any section" % lineno)
            sections[current].append(raw[2:])
            continue
        if not raw.endswith(":") and ":" in raw:
            key, _, value = (part.strip() for part in raw.partition(":"))
            if key in headers:
                raise DocumentError("line %d: duplicate header %r" % (lineno, key))
            headers[key] = value
            current = None
            continue
        if raw.endswith(":"):
            current = raw[:-1].strip()
            if current in sections:
                raise DocumentError("line %d: duplicate section %r" % (lineno, current))
            sections[current] = []
            continue
        raise DocumentError("line %d: cannot parse %r" % (lineno, raw))
    kind = headers.get("kind")
    if kind not in KINDS:
        raise DocumentError("unknown document kind %r" % kind)
    allowed = _HEADER_KEYS[kind]
    unknown = set(headers) - allowed
    if unknown:
        raise DocumentError("unknown fields for %s: %s" % (kind, sorted(unknown)))
    for name in sections:
        ok = (
            (kind == "algebra" and (name == "basis" or name.startswith("map ")))
            or (kind in ("morphism", "map", "request") and name.startswith("map "))
            or (kind == "homotopy" and (name.startswith("h0 ") or name.startswith("h1 ")))
        )
        if not ok:
            raise DocumentError("unknown section %r for kind %s" % (name, kind))
    return {"kind": kind, "headers": headers, "sections": sections}


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


def _parse_combination(space: GradedSpace, text: str) -> dict[str, Fraction]:
    combo: dict[str, Fraction] = {}
    for coeff_text, name in _terms(space, text):
        combo[name] = combo.get(name, Fraction(0)) + _parse_fraction(coeff_text)
    return {n: c for n, c in combo.items() if c}


def _format_element(element: Element) -> str:
    if element.is_zero():
        raise DocumentError("zero combinations are omitted, not serialized")
    return " + ".join("%s*%s" % (_format_fraction(c), n) for n, c in element.items())


def parse_element(space: GradedSpace, text: str) -> Element:
    combo = _parse_combination(space, text)
    if not combo:
        raise DocumentError("empty combination %r" % text)
    degrees = {space.degree(n) for n in combo}
    if len(degrees) != 1:
        raise DocumentError("combination %r mixes degrees" % text)
    return Element(space, degrees.pop(), combo)


def _parse_entry(line: str, source: GradedSpace, weight: int) -> tuple[Word, int, str]:
    """Split ``factors -> value`` into the canonical word, its sign and the value text."""
    if " -> " not in line:
        raise DocumentError("map entry %r lacks ' -> '" % line)
    lhs, _, rhs = line.partition(" -> ")
    factors = tuple(lhs.split())
    if len(factors) != weight:
        raise DocumentError("entry %r has %d factors in a weight-%d map" % (line, len(factors), weight))
    word, sign = canonicalize_word(factors, source)
    if word is None:
        raise DocumentError("entry %r is on a vanishing word" % line)
    return word, sign, rhs


def _parse_map_section(
    lines: list[str],
    source: GradedSpace,
    target: GradedSpace,
    weight: int,
    degree: int,
) -> MultiMap:
    values: dict[Word, Element] = {}
    for line in lines:
        word, sign, rhs = _parse_entry(line, source, weight)
        value = parse_element(target, rhs).scale(sign)
        if word in values:
            raise DocumentError("duplicate entry for word %r" % (word.factors,))
        values[word] = value
    return MultiMap(source, target, weight, degree, values)


def _in_basis_order(words, space: GradedSpace) -> list[Word]:
    return sorted(words, key=lambda w: tuple(space.index(n) for n in w.factors))


def _map_sections(maps: Mapping[int, MultiMap]) -> list[str]:
    """One ``map n:`` section per weight, its entries in basis order of their words."""
    lines = []
    for weight, m in sorted(maps.items()):
        lines.append("map %d:" % weight)
        for word in _in_basis_order(m.values, m.source):
            lines.append("  %s -> %s" % (" ".join(word.factors), _format_element(m.values[word])))
    return lines


# -- algebra ---------------------------------------------------------------


def algebra_from_document(doc: dict, cap_override: int | None = None) -> LInftyStructure:
    headers = doc["headers"]
    sections = doc["sections"]
    if "basis" not in sections:
        raise DocumentError("algebra document needs a basis section")
    basis = []
    for line in sections["basis"]:
        parts = line.split()
        if len(parts) != 2:
            raise DocumentError("basis entry %r is not 'name degree'" % line)
        basis.append((parts[0], _integer(parts[1], "degree in basis entry %r" % line)))
    space = GradedSpace(basis)
    cap = cap_override if cap_override is not None else _integer(headers.get("cap", "0"), "cap")
    if cap < 1:
        raise DocumentError("algebra cap must be a positive integer")
    maps: dict[int, MultiMap] = {}
    for name, lines in sections.items():
        if not name.startswith("map "):
            continue
        weight = _section_weight(name)
        maps[weight] = _parse_map_section(lines, space, space, weight, 2 - weight)
    return make_linfty(space, maps, cap)


def algebra_to_document(structure: LInftyStructure) -> str:
    lines = ["kind: algebra", "cap: %d" % structure.cap, "basis:"]
    for name in structure.space.names:
        lines.append("  %s %d" % (name, structure.space.degree(name)))
    return "\n".join(lines + _map_sections(structure.maps)) + "\n"


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
    doc = load_document(path, "algebra")
    return algebra_from_document(doc, cap_override)


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
    for name, lines in doc["sections"].items():
        weight = _section_weight(name)
        components[weight] = _parse_map_section(lines, source.space, target.space, weight, 1 - weight)
    return HomElement(source, target, 1, components)


def morphism_to_document(
    morphism: HomElement, source_ref: str, target_ref: str
) -> str:
    lines = [
        "kind: morphism",
        "cap: %d" % morphism.cap,
        "source: %s" % source_ref,
        "target: %s" % target_ref,
    ]
    return "\n".join(lines + _map_sections(morphism.components)) + "\n"


def load_mc_element(path: str, cap_override: int | None = None):
    doc = load_document(path, "mc-element")
    structure = load_algebra(_resolve(path, _header(doc, "algebra")), cap_override)
    value = parse_element(structure.space, _header(doc, "value"))
    return structure, value


def mc_to_document(value: Element, algebra_ref: str) -> str:
    lines = ["kind: mc-element", "algebra: %s" % algebra_ref, "value: %s" % _format_element(value)]
    return "\n".join(lines) + "\n"


def load_map(path: str, cap_override: int | None = None):
    doc = load_document(path, "map")
    source = load_algebra(_resolve(path, _header(doc, "source")), cap_override)
    target = load_algebra(_resolve(path, _header(doc, "target")), cap_override)
    weight = _header(doc, "weight", integer=True)
    degree = _header(doc, "degree", integer=True)
    m = _parse_map_section(_sole_map_section(doc, weight), source.space, target.space, weight, degree)
    return source, target, m


def map_to_document(
    m: MultiMap, source_ref: str, target_ref: str
) -> str:
    lines = [
        "kind: map",
        "source: %s" % source_ref,
        "target: %s" % target_ref,
        "weight: %d" % m.weight,
        "degree: %d" % m.degree,
    ]
    return "\n".join(lines + _map_sections({m.weight: m})) + "\n"


def load_request(path: str, cap_override: int | None = None):
    doc = load_document(path, "request")
    morphism = load_morphism(_resolve(path, _header(doc, "morphism")), cap_override)
    weight = _header(doc, "weight", integer=True)
    correction = _parse_map_section(
        _sole_map_section(doc, weight), morphism.source.space, morphism.target.space, weight, -weight
    )
    return morphism, weight, correction


# -- homotopy documents ------------------------------------------------------


def _parse_poly(text: str) -> list[Fraction]:
    parts = text[1:-1].split() if text.startswith("[") and text.endswith("]") else [text]
    if not parts:
        raise DocumentError("bad polynomial %r (use [c0 c1 ...] or c)" % text)
    return [_parse_fraction(p) for p in parts]


def _format_poly(coeffs: list[Fraction]) -> str:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return "0"
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
    # part -> power -> word -> name -> coefficient, zeros left out
    parts: dict[str, dict[int, dict[Word, dict[str, Fraction]]]] = {"h0": {}, "h1": {}}
    for section, lines in doc["sections"].items():
        weight = _section_weight(section)
        per_power = parts[section.partition(" ")[0]]
        seen = set()
        for line in lines:
            word, sign, rhs = _parse_entry(line, source, weight)
            combo: dict[str, list[Fraction]] = {}
            for coeff_text, name in _terms(target, rhs):
                poly = [c * sign for c in _parse_poly(coeff_text)]
                summed = zip_longest(combo.get(name, []), poly, fillvalue=0)
                combo[name] = [a + b for a, b in summed]
            if word in seen:
                raise DocumentError("duplicate entry for word %r" % (word.factors,))
            if not any(any(poly) for poly in combo.values()):
                raise DocumentError("empty combination %r" % rhs)
            seen.add(word)
            for name, poly in combo.items():
                for power, coeff in enumerate(poly):
                    if coeff:
                        per_power.setdefault(power, {}).setdefault(word, {})[name] = coeff
    conv = build_convolution(first.source, first.target, first.cap)

    def build(per_power, degree: int) -> PolyPath:
        coefficients = {}
        for power, combos in per_power.items():
            coefficients[power] = HomElement(first.source, first.target, degree, tabulate(source, target, degree, combos))
        return PolyPath(conv, degree, coefficients)

    return first, second, HomotopyElement(conv, build(parts["h0"], 1), build(parts["h1"], 0))


def homotopy_to_document(h: HomotopyElement, first_ref: str, second_ref: str) -> str:
    lines = ["kind: homotopy", "first: %s" % first_ref, "second: %s" % second_ref]
    source, target = h.conv.source.space, h.conv.target.space
    for tag, path in (("h0", h.h0), ("h1", h.h1)):
        # weight -> word -> name -> coefficients by power
        per_weight: dict[int, dict[Word, dict[str, list[Fraction]]]] = {}
        for power, value in path.coefficients.items():
            for weight, comp in value.components.items():
                for word, element in comp.values.items():
                    for name, coeff in element.coeffs.items():
                        combo = per_weight.setdefault(weight, {}).setdefault(word, {})
                        poly = combo.setdefault(name, [])
                        poly.extend([Fraction(0)] * (power + 1 - len(poly)))
                        poly[power] = coeff
        for weight, words in sorted(per_weight.items()):
            lines.append("%s %d:" % (tag, weight))
            for word in _in_basis_order(words, source):
                combo = words[word]
                terms = ["%s*%s" % (_format_poly(combo[n]), n) for n in target.names if n in combo]
                lines.append("  %s -> %s" % (" ".join(word.factors), " + ".join(terms)))
    return "\n".join(lines) + "\n"
