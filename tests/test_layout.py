"""Layout rules for the library source, read with ast: no unreferenced
top-level definitions, module-level names or methods, no imported name that
nothing reads, no assert statements, no module reaching into
another module's private names, label sets built once by util.labelset and
never re-sorted or copied, every quotient built by util.quotient, every
constructed groupoid built by fingrpd.groupoid_of_parts, the groupoid
constructors called only in fingrpd and the GDF reader, and labels read
through the parts tables of the objects that built them."""

import ast
import functools
import itertools
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "xmodforge")

ASSERT_ALLOWED = set()


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


def defined_names(top):
    """Names a top-level statement defines: a function, a class, or the
    plain names a module-level assignment binds, dunders excepted."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else \
        [top.target] if isinstance(top, (ast.AnnAssign, ast.AugAssign)) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not sub.id.startswith("__")]


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
            own = (os.path.join(SRC, module + ".py"), id(top))
            for name in defined_names(top):
                if not used.get(name, set()) - {own}:
                    unreferenced.append(f"{module}.{name}")
    assert unreferenced == []


def script_trees(tree):
    """The trees of the multi-line string constants of a module that parse
    as Python: the scripts a test runs in a subprocess."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and "\n" in sub.value:
            try:
                yield ast.parse(sub.value)
            except SyntaxError:
                pass


def test_every_method_is_read():
    # a method other than a dunder counts when an attribute of its name is
    # read outside its own definition, in the library, the tests, the
    # scripts the tests run or the benchmark
    reads = {}
    for path in python_files("src", "tests", "perfbench"):
        tree = parse(path)
        for sub in itertools.chain(*map(ast.walk, [tree, *script_trees(tree)])):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.setdefault(sub.attr, []).append(sub)
    unread = []
    for module, tree in library_modules():
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    own = set(map(id, ast.walk(method)))
                    if all(id(sub) in own for sub in reads.get(method.name, ())):
                        unread.append(f"{module}.{cls.name}.{method.name}")
    assert unread == []


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


# label-set attributes: Groupoid.objects/arrows, and TwoGroupoid.g0/g1/g2,
# which are its levels' own
LABEL_SETS = {"objects", "arrows", "g0", "g1", "g2"}


def calls(tree, *names):
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                yield sub


def test_label_sets_are_built_once_by_labelset():
    # the Groupoid constructor builds every label set with util.labelset, a
    # TwoGroupoid reads its levels' sets, and no module stores one as a
    # frozenset or re-sorts a Groupoid's arrows
    built, found = set(), []
    for module, tree in library_modules():
        for sub in ast.walk(tree):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if isinstance(target, ast.Attribute) and target.attr in LABEL_SETS:
                    if isinstance(sub.value, ast.Call) and \
                            getattr(sub.value.func, "id", None) == "labelset":
                        built.add((module, target.attr))
                    elif any(calls(sub.value, "frozenset")):
                        found.append((module, target.attr, sub.lineno))
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and top.name == "Groupoid":
                found += [(module, "Groupoid", c.lineno) for c in calls(top, "sorted", "sort")]
    assert found == []
    assert built == {("fingrpd", "objects"), ("fingrpd", "arrows")}


def test_no_sorted_or_set_copy_of_a_label_set():
    # a label set already iterates in label order and supports set algebra
    found = []
    for module, tree in library_modules():
        for call in calls(tree, "sorted", "set"):
            if isinstance(call.func, ast.Name) and len(call.args) == 1 and \
                    not call.keywords and isinstance(call.args[0], ast.Attribute) \
                    and call.args[0].attr in LABEL_SETS:
                found.append((module, call.func.id, call.lineno))
    assert found == []


def test_every_quotient_is_built_by_util_quotient():
    # classes are named by cls_label in util alone, and no union-find is
    # defined or read outside it
    found = []
    for module, tree in library_modules():
        found += [(module, "cls_label", call.lineno) for call in calls(tree, "cls_label")
                  if module != "util"]
        found += [(module, "UnionFind") for name in names_used(tree) if name == "UnionFind"]
        found += [(module, "import UnionFind") for sub in library_import_froms(tree)
                  for alias in sub.names if alias.name == "UnionFind"]
        found += [(module, top.name) for top in tree.body
                  if isinstance(top, ast.ClassDef) and top.name == "UnionFind"]
    assert found == []


def library_import_froms(tree):
    """The `from ... import` statements that import from xmodforge."""
    return [sub for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom) and (
        sub.level > 0 or (sub.module or "").startswith("xmodforge"))]


def reads_through(path):
    """{(module, name)}: the names a file reads off a library module, as
    an attribute of its alias or by importing them from it."""
    tree, aliases, out = parse(path), {}, set()
    for sub in library_import_froms(tree):
        source = (sub.module or "").rpartition(".")[2]
        for alias in sub.names:
            if source in ("", "xmodforge"):
                aliases[alias.asname or alias.name] = alias.name
            else:
                out.add((source, alias.name))
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in aliases:
            out.add((aliases[sub.value.id], sub.attr))
    return out


def test_every_imported_name_is_read():
    # an imported name is read in the module that imports it, or through
    # that module by the library, the tests or the benchmark
    through = set()
    for path in python_files("src", "tests", "perfbench"):
        through |= reads_through(path)
    unread = []
    for module, tree in library_modules():
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for sub in library_import_froms(tree):
            for name in (alias.asname or alias.name for alias in sub.names):
                if name not in read and (module, name) not in through:
                    unread.append(f"{module}.{name}")
    assert unread == []


def test_constructed_groupoids_go_through_groupoid_of_parts():
    # a construction builds its groupoid or group bundle with
    # fingrpd.groupoid_of_parts; only the builder, the bundle validator, the
    # GDF reader and the merge of generated blocks validate tables directly,
    # by a call or, in the reader's table of builders, by a reference
    callers = {"validate_groupoid": set(), "validate_group_bundle": set()}
    for module, tree in library_modules():
        for top in tree.body:
            for name in names_used(top):
                if name in callers:
                    callers[name].add(module if module == "gdf" else f"{module}.{top.name}")
    assert callers == {
        "validate_groupoid": {"fingrpd.groupoid_of_parts", "fingrpd.validate_group_bundle",
                              "gdf", "generators._merge"},
        "validate_group_bundle": {"gdf"}}


def test_only_fingrpd_and_the_gdf_reader_construct_groupoids():
    # every other module takes its groupoids from the builders, so no level
    # of a 2-groupoid or other view is a copy of another groupoid's tables
    found = [(module, getattr(call.func, "id", None) or call.func.attr, call.lineno)
             for module, tree in library_modules() if module not in ("fingrpd", "gdf")
             for call in calls(tree, "Groupoid", "GroupBundle")]
    assert found == []


# the functions that read tuple labels of an object their caller supplied:
# none, every reader goes through the parts tables
UNPAIR_ALLOWED = set()


def test_labels_are_read_from_parts_tables():
    # a construction reads the parts its builder kept in .parts; unpair is
    # left for caller-supplied labels, and no class label is stripped
    found = []
    for module, tree in library_modules():
        if module == "util":
            continue
        for top in tree.body:
            name = getattr(top, "name", None)
            found += [(module, name, "strip_class") for _ in calls(top, "strip_class")]
            found += [(module, name, "unpair") for _ in calls(top, "unpair")
                      if (module, name) not in UNPAIR_ALLOWED]
            if name == "AutBundle":
                found.append((module, name, "class"))
    assert found == []


# the second bodies that certificates once had beside their sweeps: a law
# is one function, run on the generators by the certificate and on every
# instance by the sweep; and the morphism out of a bullet that the weak-unit
# witnesses once built beside the unitors' (exchanger._read_off); and the
# GDF format's key tables and first-token reader, which gdf.SCHEMA and
# gdf._read replaced
RETIRED_BODIES = {"_light_certifies", "_laws_certify", "_action_sweep", "_commuting_sweep",
                  "_unique_division", "_hom_certifies", "bullet_to_trivial",
                  "KEY_ORDER", "REQUIRED", "_ORDERED_KEYS", "_first"}


def test_each_certified_law_has_one_body():
    found = [(module, name) for module, tree in library_modules()
             for sub in ast.walk(tree) if isinstance(sub, ast.stmt)
             for name in defined_names(sub) if name in RETIRED_BODIES]
    assert found == []


def test_gdf_format_is_read_through_the_schema():
    # gdf.SCHEMA says how each key reads, and gdf._read alone reads it: no
    # builder turns a block's tokens into maps or tables itself
    found = [(module, getattr(top, "name", None)) for module, tree in library_modules()
             for top in tree.body for _ in calls(top, "_pairs", "_comp_pairs")]
    assert set(found) == {("gdf", "_read")}


def test_xmod_builds_whiskers_not_hcomp():
    # the 2-groupoid of a crossed module stores its whiskers, and its hcomp
    # is computed from them: no subscript store into a table named hcomp,
    # so the all-pairs loop survives only as the tests' oracle
    tree = parse(os.path.join(SRC, "xmod.py"))
    found = []
    for sub in ast.walk(tree):
        targets = sub.targets if isinstance(sub, ast.Assign) else \
            [sub.target] if isinstance(sub, (ast.AugAssign, ast.AnnAssign)) else []
        for target in targets:
            for store in ast.walk(target):
                if isinstance(store, ast.Subscript):
                    table = store.value
                    name = table.id if isinstance(table, ast.Name) else \
                        table.attr if isinstance(table, ast.Attribute) else None
                    if name == "hcomp":
                        found.append(store.lineno)
    assert found == []
