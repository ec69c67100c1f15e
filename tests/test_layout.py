"""Layout rules for the library source, read with ast: no unreferenced
top-level definitions, no assert statements, and no module reaching into
another module's private names."""

import ast
import functools
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "xmodforge")

# The orbit check of exchanger_from_homomorphism fires on valid inputs
# (CHANGES.md, FOUND: exchanger._check_pphi_orbits); it stays an assert
# until that is mended.
ASSERT_ALLOWED = {("exchanger", "_check_pphi_orbits")}


def python_files(*dirs):
    for d in dirs:
        for dirpath, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


@functools.lru_cache(maxsize=None)
def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def library_modules():
    for path in python_files(os.path.join("src", "xmodforge")):
        yield os.path.basename(path)[:-3], parse(path)


def names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_definition_is_referenced():
    # a name counts when a Name or an attribute reads it outside its own
    # top-level definition, in the library, the tests or the benchmark
    used = {}
    for path in python_files("src", "tests", "perfbench"):
        for top in parse(path).body:
            for name in names_used(top):
                used.setdefault(name, set()).add((path, id(top)))
    unreferenced = []
    for module, tree in library_modules():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = (os.path.join(SRC, module + ".py"), id(top))
                if not used.get(top.name, set()) - {own}:
                    unreferenced.append(f"{module}.{top.name}")
    assert unreferenced == []


def test_no_assert_outside_the_allow_list():
    found = []
    for module, tree in library_modules():
        for top in tree.body:
            for sub in ast.walk(top):
                if isinstance(sub, ast.Assert):
                    where = (module, getattr(top, "name", None))
                    if where not in ASSERT_ALLOWED:
                        found.append((*where, sub.lineno))
    assert found == []


def test_no_module_reads_another_modules_private_names():
    found = []
    for module, tree in library_modules():
        aliases = set()
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and (
                    sub.level > 0 or (sub.module or "").startswith("xmodforge")):
                for alias in sub.names:
                    if alias.name.startswith("_"):
                        found.append((module, "import", alias.name))
                    if sub.module is None or sub.module == "xmodforge":
                        aliases.add(alias.asname or alias.name)
        for sub in ast.walk(tree):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in aliases and sub.attr.startswith("_")):
                found.append((module, sub.value.id, sub.attr))
    assert found == []


def test_the_label_algebra_lives_in_util():
    # the benchmark reads the unpair cache through fingrpd.unpair
    from xmodforge import fingrpd, util
    assert fingrpd.unpair is util.unpair
    assert util.unpair.cache_info().maxsize == 1 << 18
    label_names = {"pair", "unpair", "cls_label", "strip_class"}
    defined = {(module, top.name) for module, tree in library_modules()
               for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name in label_names}
    assert defined == {("util", name) for name in label_names}
