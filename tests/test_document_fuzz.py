"""Mutated corpus documents through the command line, in process, and
generated documents through their loaders and writers.

Each case edits one ``tests/data`` document a few times at random, from a
fixed seed, and runs every command listed for its kind on the copy.
Whatever the edits, a run returns 0, 1 or 2 without raising, and returns 2
exactly when it reports an input error; a run with ``--format json``, on
an edited document or on the corpus as it stands, returns 1 only with a
report whose verdict is false.  A canonical document generated from seeded
structures reads back to an object that writes the same bytes.
"""

import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from linfty import Element, identity_morphism
from linfty.cli import main
from linfty.documents import (
    algebra_to_document,
    homotopy_to_document,
    map_to_document,
    mc_to_document,
    morphism_to_document,
    parse_document,
)
from linfty.perturbation import PerturbationRequest, flow_morphism

from conftest import SMALL_SPACES, heis, random_component_family, random_valid_structure, twostep3
from test_documents import REWRITERS

DATA = os.path.join(os.path.dirname(__file__), "data")

# corpus suffix -> the commands that read a document of that kind, each
# given the document's name as its last argument
COMMANDS = {
    ".alg": [
        ["check-linfty"],
        ["cohomology"],
        ["twist", "--pi", "1*x + 1*y"],  # heis.alg's names; not flat there
        ["gauge-flow", "--pi", "1*v", "--xi", "1*w"],  # nonnilp.alg's names; does not converge there
    ],
    ".mor": [["check-morphism"], ["convolution-mc"]],
    ".mc": [["mc-check"]],
    ".map": [["lemma1", "id_twoterm.mor", "--n", "2", "--H"]],
    ".req": [["lemma1", "id_twoterm.mor", "--request"]],
    ".hom": [["homotopy-check"]],
}

# near misses of the corpus spellings, drawn next to the corpus's own tokens
NEAR_MISSES = ["02", "+2", "-1", "0", "1/0", "1/2", "[]", "[0", "1]", "0*a", "map", "h0", "h1", "basis", "->", "*", ":"]


def corpus() -> dict[str, str]:
    texts = {}
    for name in sorted(os.listdir(DATA)):
        if os.path.splitext(name)[1] in COMMANDS:
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
    return texts


def mutate(text: str, rng: random.Random, tokens: list[str], pool: list[str]) -> str:
    """``text`` after one to three random line, token or character edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(pool))
            continue
        i = rng.randrange(len(lines))
        line = lines[i]
        k = rng.randrange(len(line) + 1)
        op = rng.randrange(7)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, line)
        elif op == 2:
            lines.insert(i, rng.choice(pool))
        elif op == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], line
        elif op == 4:
            words = line.split(" ")
            words[rng.randrange(len(words))] = rng.choice(tokens)
            lines[i] = " ".join(words)
        elif op == 5:
            lines[i] = line[:k] + line[k + 1:]
        else:
            lines[i] = line[:k] + rng.choice(" :*-01[]/+") + line[k:]
    return "\n".join(lines) + "\n"


def cases(seed: int, count: int):
    """``count`` pairs (corpus name, mutated text) drawn from ``seed``."""
    texts = corpus()
    pool = sorted({line for text in texts.values() for line in text.splitlines()})
    tokens = sorted({token for line in pool for token in line.split()} | set(NEAR_MISSES))
    rng = random.Random(seed)
    names = sorted(texts)
    for _ in range(count):
        name = rng.choice(names)
        yield name, mutate(texts[name], rng, tokens, pool)


def runs(name: str, text: str, options: tuple[str, ...] = ()):
    """Write ``text`` as ``name`` in the working directory and run each command on it,
    ``options`` after the command's name.

    Yields (argv, exit code, stdout, stderr); the original document is put back after.
    """
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        for command in COMMANDS[os.path.splitext(name)[1]]:
            argv = [command[0], *options, *command[1:], name]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            yield argv, code, out.getvalue(), err.getvalue()
    finally:
        shutil.copy(os.path.join(DATA, name), name)


def test_mutated_documents_exit_cleanly(tmp_path, monkeypatch):
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path / "data")
    codes = set()
    for name, text in cases(seed=20071, count=300):
        for argv, code, _, err in runs(name, text):
            assert code in (0, 1, 2), argv
            assert (code == 2) == err.startswith("input error:"), (argv, text, err)
            codes.add(code)
    assert codes == {0, 1, 2}


def test_mutated_documents_exit_1_only_with_a_false_verdict(tmp_path, monkeypatch):
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path / "data")
    failed = []
    # the corpus as it stands comes first: broken.alg fails its relations, and on
    # nonnilp.alg, which no mutation from this seed leaves intact, gauge-flow does not converge
    for name, text in [*corpus().items(), *cases(seed=20071, count=300)]:
        for argv, code, out, err in runs(name, text, ("--format", "json")):
            if code == 1:
                assert json.loads(out or "{}").get("passed") is False, (argv, text, out, err)
                failed.append(argv[0])
    assert set(failed) == {
        "check-linfty", "check-morphism", "convolution-mc", "homotopy-check", "twist", "gauge-flow",
    }, len(failed)


def generated_documents(rng: random.Random) -> dict[str, str]:
    """File name -> canonical document: for each seeded structure its algebra, an element
    and the identity, and for each weight n of a random correction family the weight-n
    correction, the morphism that perturbs the identity by it and their gauge homotopy."""
    structures = {
        "heis": heis(3, rng),
        "heis_pair": heis(2, rng, pair=True),
        "twostep3": twostep3(3, rng),
        **{"random%d" % i: random_valid_structure(space, 3, rng) for i, space in enumerate(SMALL_SPACES)},
    }
    texts = {}
    for name, s in structures.items():
        alg, first = name + ".alg", name + "_id.mor"
        identity = identity_morphism(s)
        texts[alg] = algebra_to_document(s)
        texts[first] = morphism_to_document(identity, alg, alg)
        value = {n: rng.choice((1, -2, F(1, 3))) for n in s.space.basis_of_degree(1)}
        texts[name + ".mc"] = mc_to_document(Element(s.space, 1, value), alg)
        for n, correction in random_component_family(s, s, 2, rng, degree=0).items():
            perturbed, h = flow_morphism(PerturbationRequest(identity, n, correction))
            stem = "%s_%d" % (name, n)
            texts[stem + ".map"] = map_to_document(correction, alg, alg)
            texts[stem + ".mor"] = morphism_to_document(perturbed, alg, alg)
            texts[stem + ".hom"] = homotopy_to_document(h, first, stem + ".mor")
    return texts


def test_generated_documents_round_trip_bytes(tmp_path):
    texts = generated_documents(random.Random(20072))
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    kinds = set()
    for name, text in texts.items():
        doc = parse_document(text)
        kinds.add(doc["kind"])
        _, rewrite = REWRITERS[doc["kind"]]
        assert rewrite(str(tmp_path / name), doc["headers"]) == text, name
    assert kinds == set(REWRITERS)
