"""Every module in ``src/linfty``, ``tests`` and ``demos`` uses each name it imports.

``__init__.py`` is exempt: it imports names to export them.  A name counts
as used when the module's syntax tree reads it anywhere, including inside a
quoted annotation; ``from __future__`` imports are compiler directives.

Vector arithmetic is defined once, on ``grading.Combination``: no other
class in ``src/linfty`` defines it again.

No private helper is orphaned: every underscore-named module-level function
or class, and every underscore-named method, in ``src/linfty`` is read by
code in ``src/linfty`` outside its own definition.

No module in ``src/linfty`` imports an underscore-named name from another
linfty module: what two modules share is public.
"""

import ast
import os

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src", "linfty")
DEMOS_DIR = os.path.join(os.path.dirname(TESTS_DIR), "demos")


def _modules():
    for directory in (SRC_DIR, TESTS_DIR, DEMOS_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted("%s (line %d)" % (name, line) for name, line in imported.items() if name not in used)


def test_modules_use_every_import():
    offenders = {}
    for path in _modules():
        with open(path, encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        if unused:
            offenders[os.path.relpath(path, os.path.dirname(TESTS_DIR))] = unused
    assert offenders == {}


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Mapping, Sequence\nx: 'Mapping[str, int]' = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 2)"]


ARITHMETIC = {"__add__", "__sub__", "__neg__", "scale", "is_zero"}


def arithmetic_definitions(source: str) -> list[str]:
    """``Class.method`` for each arithmetic method defined outside ``Combination``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name != "Combination":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in ARITHMETIC:
                    found.append("%s.%s" % (node.name, item.name))
    return found


def test_only_the_base_defines_vector_arithmetic():
    offenders = {}
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
                found = arithmetic_definitions(fh.read())
            if found:
                offenders[name] = found
    assert offenders == {}


def test_arithmetic_definition_is_reported():
    source = "class Combination:\n    def scale(self): pass\nclass V:\n    def __neg__(self): pass\n"
    assert arithmetic_definitions(source) == ["V.__neg__"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private function, class or method that no
    code in ``sources`` (module name -> source) reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    readers: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, []).append(node)
    found = []
    for module, tree in trees.items():
        helpers = [(node.name, node) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        helpers += [("%s.%s" % (node.name, item.name), item) for node in tree.body if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef)]
        for label, helper in helpers:
            inside = {id(node) for node in ast.walk(helper)}
            if _private(helper.name) and all(id(node) in inside for node in readers.get(helper.name, [])):
                found.append("%s:%s" % (module, label))
    return sorted(found)


def test_no_private_helper_is_orphaned():
    sources = {}
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert orphaned_helpers(sources) == []


def test_orphaned_helper_is_reported():
    sources = {
        "a.py": "def _used(): pass\ndef _recursive(): _recursive()\nclass C:\n    def _m(self): pass\n",
        "b.py": "from a import _used\n_used()\n",
    }
    assert orphaned_helpers(sources) == ["a.py:C._m", "a.py:_recursive"]


def private_imports(source: str) -> list[str]:
    """``module.name (line n)`` of each underscore-named name imported from a linfty module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "linfty"):
            module = "." * node.level + (node.module or "")
            found += ["%s.%s (line %d)" % (module, a.name, node.lineno) for a in node.names if _private(a.name)]
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {}
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
                found = private_imports(fh.read())
            if found:
                offenders[name] = found
    assert offenders == {}


def test_private_import_is_reported():
    source = (
        "from .algebra import _entry_index, entry_splittings\nfrom linfty.grading import _partitions\n"
        "from os import _exit\nfrom . import linalg, __version__\n"
    )
    assert private_imports(source) == [".algebra._entry_index (line 1)", "linfty.grading._partitions (line 2)"]
