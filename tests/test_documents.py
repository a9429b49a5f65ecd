import os
import shutil
from fractions import Fraction

import pytest

from linfty.documents import (
    DocumentError,
    algebra_from_document,
    algebra_to_document,
    homotopy_to_document,
    load_algebra,
    load_homotopy,
    load_map,
    load_mc_element,
    load_morphism,
    load_request,
    map_to_document,
    mc_to_document,
    morphism_to_document,
    parse_document,
    parse_element,
)

F = Fraction
DATA = os.path.join(os.path.dirname(__file__), "data")


def corpus_files():
    return sorted(
        name
        for name in os.listdir(DATA)
        if name.endswith((".alg", ".mor", ".mc", ".map", ".req", ".hom"))
    )


def test_corpus_is_large_enough():
    assert len(corpus_files()) >= 12


# kind -> (corpus suffix, the document its loaded object writes given the
# path and the document's headers); a request document has no writer
REWRITERS = {
    "algebra": (".alg", lambda path, h: algebra_to_document(load_algebra(path))),
    "morphism": (".mor", lambda path, h: morphism_to_document(load_morphism(path), h["source"], h["target"])),
    "map": (".map", lambda path, h: map_to_document(load_map(path)[2], h["source"], h["target"])),
    "mc-element": (".mc", lambda path, h: mc_to_document(load_mc_element(path)[1], h["algebra"])),
    "homotopy": (".hom", lambda path, h: homotopy_to_document(load_homotopy(path)[2], h["first"], h["second"])),
}


@pytest.mark.parametrize("kind", list(REWRITERS))
def test_round_trip_bytes(kind):
    suffix, rewrite = REWRITERS[kind]
    names = [name for name in corpus_files() if name.endswith(suffix)]
    assert names
    for name in names:
        path = os.path.join(DATA, name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert rewrite(path, parse_document(text)["headers"]) == text, name


def test_unknown_fields_rejected():
    with pytest.raises(DocumentError):
        parse_document("kind: algebra\ncap: 2\ncolor: blue\n")
    with pytest.raises(DocumentError):
        parse_document("kind: mystery\n")
    with pytest.raises(DocumentError):
        parse_document("kind: algebra\ncap: 2\nnonsense section:\n  x 1\n")


def test_bad_rational_rejected():
    space_doc = (
        "kind: algebra\ncap: 2\nbasis:\n  a 0\n  b 1\nmap 1:\n  a -> 0.5*b\n"
    )
    with pytest.raises(DocumentError):
        algebra_from_document(parse_document(space_doc))


def test_unknown_basis_name_rejected():
    from linfty import InputError

    space_doc = "kind: algebra\ncap: 2\nbasis:\n  a 0\nmap 1:\n  q -> 1*a\n"
    with pytest.raises(InputError):
        algebra_from_document(parse_document(space_doc))


def test_cap_override():
    structure = load_algebra(os.path.join(DATA, "heis.alg"), cap_override=2)
    assert structure.cap == 2


def test_load_mc_and_map_and_request():
    structure, value = load_mc_element(os.path.join(DATA, "heis_pi.mc"))
    assert value.degree == 1 and value.coeffs == {"x": F(1)}
    src, tgt, correction = load_map(os.path.join(DATA, "corr.map"))
    assert correction.weight == 2 and correction.degree == -2
    morphism, weight, corr2 = load_request(os.path.join(DATA, "pert.req"))
    assert weight == 2
    assert corr2.values == correction.values


def test_load_homotopy_document():
    first, second, h = load_homotopy(os.path.join(DATA, "flow.hom"))
    assert first.cap == second.cap == h.conv.cap == 3
    assert {n for c in h.h0.coefficients.values() for n in c.components} == {1, 2}
    assert {n for c in h.h1.coefficients.values() for n in c.components} == {2}


def test_homotopy_entries_sum_repeated_names(tmp_path):
    corpus = tmp_path / "data"
    shutil.copytree(DATA, corpus)
    path = corpus / "flow.hom"
    text = path.read_text()
    assert "  b -> 1*b\n" in text
    path.write_text(text.replace("  b -> 1*b\n", "  b -> 1*b + 5*b\n"))
    _, _, h = load_homotopy(str(path))
    (word,) = [w for w in h.h0.coefficients[0].component(1).values if w.factors == ("b",)]
    assert h.h0.coefficients[0].value(word).coeffs == {"b": F(6)}
    assert all(c.value(word).is_zero() for p, c in h.h0.coefficients.items() if p)


def test_parse_element_mixed_degree_rejected(two_term):
    with pytest.raises(DocumentError):
        parse_element(two_term.space, "1*a + 1*b")
    element = parse_element(two_term.space, "1*b + -2*b")
    assert element.coeffs == {"b": F(-1)}


def test_entries_on_non_canonical_words_are_signed_in():
    text = "kind: algebra\ncap: 2\nbasis:\n  a 0\n  b 1\nmap 2:\n  b a -> 1*b\n"
    structure = algebra_from_document(parse_document(text))
    # storing on (b, a) is the signed value on (a, b)
    assert structure.maps[2].evaluate(("a", "b")).coeffs == {"b": F(-1)}
