"""Textual document format: one document, one object.

Documents are line-oriented: ``key: value`` headers, then sections like
``basis:`` or ``map 2:`` whose entries are indented by two spaces.  All
scalars are exact rationals printed as ``p`` or ``p/q``; coefficients are
always explicit (``1*x``, never ``x``), words are space-separated canonical
factors, and entries are sorted by basis order, so parsing followed by
serializing reproduces a canonical document byte for byte.  Objects refer
to each other by relative file path, never by inline duplication.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .grading import Element, GradedSpace, InputError, MultiMap, Word, canonicalize_word
from .algebra import LInftyStructure, make_linfty
from .morphism import MorphismComponents
from .convolution import HomElement
from .mc import PolyPath

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


def _parse_fraction(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise DocumentError("bad rational %r (use p or p/q)" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError("bad rational %r" % text) from exc


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DocumentError("%s is not an integer: %r" % (what, text)) from None


def _header(doc: dict, key: str, integer: bool = False):
    """A required header, as text or parsed as an integer."""
    value = doc["headers"].get(key)
    if value is None:
        raise DocumentError("%s document lacks %r" % (doc["kind"], key))
    return _integer(value, key) if integer else value


def _section_weight(name: str) -> int:
    return _integer(name.partition(" ")[2], "weight of section %r" % name)


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
            key, _, value = raw.partition(":")
            headers[key.strip()] = value.strip()
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


def _parse_combination(space: GradedSpace, text: str) -> dict[str, Fraction]:
    combo: dict[str, Fraction] = {}
    for term in text.split(" + "):
        term = term.strip()
        if not term:
            raise DocumentError("empty term in %r" % text)
        if "*" not in term:
            raise DocumentError("term %r lacks an explicit coefficient" % term)
        coeff_text, _, name = term.partition("*")
        if name not in space:
            raise DocumentError("unknown basis name %r" % name)
        combo[name] = combo.get(name, Fraction(0)) + _parse_fraction(coeff_text)
    return {n: c for n, c in combo.items() if c}


def _format_element(element: Element) -> str:
    if element.is_zero():
        raise DocumentError("zero combinations are omitted, not serialized")
    return " + ".join(
        "%s*%s" % (_format_fraction(c), n) for n, c in element.items()
    )


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
        raise DocumentError(
            "entry %r has %d factors in a weight-%d map" % (line, len(factors), weight)
        )
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
        value = parse_element(target, rhs).scale(Fraction(sign))
        if word in values:
            raise DocumentError("duplicate entry for word %r" % (word.factors,))
        values[word] = value
    return MultiMap(source, target, weight, degree, values)


def _format_map_entries(m: MultiMap, space: GradedSpace) -> list[str]:
    lines = []
    for word in sorted(m.values, key=lambda w: tuple(space.index(n) for n in w.factors)):
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
        try:
            basis.append((parts[0], int(parts[1])))
        except ValueError as exc:
            raise DocumentError("bad degree in basis entry %r" % line) from exc
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
    for weight in sorted(structure.maps):
        m = structure.maps[weight]
        if m.is_zero():
            continue
        lines.append("map %d:" % weight)
        lines.extend(_format_map_entries(m, structure.space))
    return "\n".join(lines) + "\n"


# -- loading with cross-references ------------------------------------------


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc
    doc = parse_document(text)
    doc["path"] = path
    return doc


def _resolve(base_path: str, reference: str) -> str:
    return os.path.normpath(os.path.join(os.path.dirname(base_path), reference))


def load_algebra(path: str, cap_override: int | None = None) -> LInftyStructure:
    doc = load_document(path)
    if doc["kind"] != "algebra":
        raise DocumentError("%s is a %s document, expected algebra" % (path, doc["kind"]))
    return algebra_from_document(doc, cap_override)


def load_morphism(
    path: str, cap_override: int | None = None
) -> MorphismComponents:
    doc = load_document(path)
    if doc["kind"] != "morphism":
        raise DocumentError("%s is a %s document, expected morphism" % (path, doc["kind"]))
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
        components[weight] = _parse_map_section(
            lines, source.space, target.space, weight, 1 - weight
        )
    return MorphismComponents(source, target, components)


def morphism_to_document(
    morphism: MorphismComponents, source_ref: str, target_ref: str
) -> str:
    lines = [
        "kind: morphism",
        "cap: %d" % morphism.cap,
        "source: %s" % source_ref,
        "target: %s" % target_ref,
    ]
    for weight in sorted(morphism.components):
        comp = morphism.components[weight]
        if comp.is_zero():
            continue
        lines.append("map %d:" % weight)
        lines.extend(_format_map_entries(comp, morphism.source.space))
    return "\n".join(lines) + "\n"


def load_mc_element(path: str, cap_override: int | None = None):
    doc = load_document(path)
    if doc["kind"] != "mc-element":
        raise DocumentError("%s is a %s document, expected mc-element" % (path, doc["kind"]))
    structure = load_algebra(_resolve(path, _header(doc, "algebra")), cap_override)
    value = parse_element(structure.space, _header(doc, "value"))
    return structure, value


def mc_to_document(value: Element, algebra_ref: str) -> str:
    lines = [
        "kind: mc-element",
        "algebra: %s" % algebra_ref,
        "value: %s" % _format_element(value),
    ]
    return "\n".join(lines) + "\n"


def load_map(path: str, cap_override: int | None = None):
    doc = load_document(path)
    if doc["kind"] != "map":
        raise DocumentError("%s is a %s document, expected map" % (path, doc["kind"]))
    source = load_algebra(_resolve(path, _header(doc, "source")), cap_override)
    target = load_algebra(_resolve(path, _header(doc, "target")), cap_override)
    weight = _header(doc, "weight", integer=True)
    degree = _header(doc, "degree", integer=True)
    section = doc["sections"].get("map %d" % weight)
    if section is None:
        raise DocumentError("map document lacks its 'map %d' section" % weight)
    m = _parse_map_section(section, source.space, target.space, weight, degree)
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
        "map %d:" % m.weight,
    ]
    lines.extend(_format_map_entries(m, m.source))
    return "\n".join(lines) + "\n"


def load_request(path: str, cap_override: int | None = None):
    doc = load_document(path)
    if doc["kind"] != "request":
        raise DocumentError("%s is a %s document, expected request" % (path, doc["kind"]))
    morphism = load_morphism(_resolve(path, _header(doc, "morphism")), cap_override)
    weight = _header(doc, "weight", integer=True)
    section = doc["sections"].get("map %d" % weight)
    if section is None:
        raise DocumentError("request lacks its 'map %d' section" % weight)
    correction = _parse_map_section(
        section, morphism.source.space, morphism.target.space, weight, -weight
    )
    return morphism, weight, correction


# -- homotopy documents ------------------------------------------------------


def _parse_poly(text: str) -> list[Fraction]:
    if text.startswith("[") and text.endswith("]"):
        return [_parse_fraction(p) for p in text[1:-1].split()]
    return [_parse_fraction(text)]


def _format_poly(coeffs: list[Fraction]) -> str:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return "0"
    if len(coeffs) == 1:
        return _format_fraction(coeffs[0])
    return "[%s]" % " ".join(_format_fraction(c) for c in coeffs)


def _parse_poly_section(
    lines: list[str],
    source: GradedSpace,
    target: GradedSpace,
    weight: int,
) -> dict[Word, dict[str, list[Fraction]]]:
    out: dict[Word, dict[str, list[Fraction]]] = {}
    for line in lines:
        word, sign, rhs = _parse_entry(line, source, weight)
        combo: dict[str, list[Fraction]] = {}
        for term in rhs.split(" + "):
            coeff_text, _, name = term.partition("*")
            if name not in target:
                raise DocumentError("unknown basis name %r" % name)
            poly = [c * sign for c in _parse_poly(coeff_text)]
            combo[name] = poly
        out[word] = combo
    return out


def load_homotopy(path: str, cap_override: int | None = None):
    """Returns (first, second, h0_parts, h1_parts); parts map weight -> entries."""
    doc = load_document(path)
    if doc["kind"] != "homotopy":
        raise DocumentError("%s is a %s document, expected homotopy" % (path, doc["kind"]))
    first = load_morphism(_resolve(path, _header(doc, "first")), cap_override)
    second = load_morphism(_resolve(path, _header(doc, "second")), cap_override)
    parts: dict[str, dict[int, dict]] = {"h0": {}, "h1": {}}
    for name, lines in doc["sections"].items():
        weight = _section_weight(name)
        parts[name.partition(" ")[0]][weight] = _parse_poly_section(
            lines, first.source.space, first.target.space, weight
        )
    return first, second, parts["h0"], parts["h1"]


def homotopy_parts_to_polypaths(conv, h0_parts, h1_parts) -> tuple[PolyPath, PolyPath]:
    """Assemble parsed per-weight polynomial entries into mapping-space paths."""

    def build(parts, u_degree):
        per_power: dict[int, dict[int, dict[Word, dict[str, Fraction]]]] = {}
        for weight, entries in parts.items():
            for word, combo in entries.items():
                for name, poly in combo.items():
                    for power, coeff in enumerate(poly):
                        if coeff:
                            per_power.setdefault(power, {}).setdefault(
                                weight, {}
                            ).setdefault(word, {})[name] = coeff
        coefficients = {}
        for power, weights in per_power.items():
            comps = {}
            for weight, words in weights.items():
                values = {
                    w: Element(
                        conv.target.space, w.degree + u_degree - weight, combo
                    )
                    for w, combo in words.items()
                }
                comps[weight] = MultiMap(
                    conv.source.space,
                    conv.target.space,
                    weight,
                    u_degree - weight,
                    values,
                )
            hom = HomElement(conv.source, conv.target, u_degree, comps)
            coefficients[power] = conv.hom_to_element(hom)
        return PolyPath(conv.hom_space, u_degree, coefficients)

    return build(h0_parts, 1), build(h1_parts, 0)


def homotopy_to_document(
    conv, h0: PolyPath, h1: PolyPath, first_ref: str, second_ref: str
) -> str:
    lines = [
        "kind: homotopy",
        "first: %s" % first_ref,
        "second: %s" % second_ref,
    ]
    src = conv.source.space
    for tag, path in (("h0", h0), ("h1", h1)):
        per_weight: dict[int, dict[Word, dict[str, list[Fraction]]]] = {}
        for power in sorted(path.coefficients):
            hom = conv.element_to_hom(path.coefficients[power])
            for weight, comp in hom.components.items():
                for word, value in comp.values.items():
                    for name, coeff in value.coeffs.items():
                        poly = (
                            per_weight.setdefault(weight, {})
                            .setdefault(word, {})
                            .setdefault(name, [])
                        )
                        while len(poly) <= power:
                            poly.append(Fraction(0))
                        poly[power] = coeff
        for weight in sorted(per_weight):
            lines.append("%s %d:" % (tag, weight))
            words = per_weight[weight]
            for word in sorted(
                words, key=lambda w: tuple(src.index(n) for n in w.factors)
            ):
                terms = []
                combo = words[word]
                for name in conv.target.space.names:
                    if name in combo:
                        terms.append("%s*%s" % (_format_poly(combo[name]), name))
                lines.append("  %s -> %s" % (" ".join(word.factors), " + ".join(terms)))
    return "\n".join(lines) + "\n"
