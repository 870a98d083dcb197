"""Every module in src/cdcover and tests/ uses each name it imports. Every
definition in src/cdcover is used somewhere, and no f-string in it lacks a
placeholder. No module names a map between two vertex id spaces, and none
in src/cdcover reads the environment. Cached properties are filled from
outside their own code at a fixed list of sites, and none is a
`functools.cached_property`. Every `_require` passes constant text as
its message, so a check that holds builds no text.
The decomposer builds no graph from scratch, and only `EdgeColoredGraph.edit`
builds one without its validating constructor. Only the decomposer's
removal check asks whether a removal leaves a Type X vertex, only its
entry points check a graph in full, and only its entry and the output's
certificate read a goodness report, as the engine's state is a graph and
its bad vertex. Only the removal check makes the record of a removal it
accepted, and only `extract_case2_2_pattern`
builds a `CasePattern`. No lift in the decomposer refuses, and no
reduction or child builder refuses what a lemma proves. Only `graphs.lowpoint_search` stores discovery times and
lowpoints. The brute-force oracle and the decomposer it certifies import nothing from
each other. No module in src/cdcover imports `dataclasses`, and importing
the package and its CLI loads none of `dataclasses`, `inspect`, `ast` and
`pathlib`. Every layer the benchmark's tracer wraps still exists under
the name it wraps. Only a pinned few definitions are called, and a
pinned few parameters set, by tests alone, and no default is overridden
by every call outside the tests. Outside the engine corpus, no test
both generates random graphs and patches the engine, by `setattr`, an
assignment or a `unittest.mock` patch.

No linter ships with the project, so these are stdlib stand-ins for the
unused-import, dead-code and empty f-string checks. `__init__.py` is
exempt from the first: its imports are re-exports, and the package's
`__all__` lists exactly those names, once each, which are the names the
README's Library section lists. The CLI's options are the flags the README
names.
"""
import argparse
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path

import pytest

import cdcover
from cdcover.cli import build_parser

SRC = Path(cdcover.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_unused_imports_detects_and_allows():
    assert unused_imports("import os\nfrom a import b as c\n") == [
        "line 2: c", "line 1: os"]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from x import y, z\ndef f(a: y): pass\n") == ["line 1: z"]


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def export_mismatches(source: str, exported: list[str]) -> list[str]:
    """How `exported`, a package's `__all__`, differs from the names that
    its `__init__` `source` binds by a `from ... import`: `missing: name`
    for an import it lacks, `stale: name` for an export no import binds,
    and `repeated: name` for one it lists twice. Sorted."""
    imported = {alias.asname or alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    counts = Counter(exported)
    return sorted([f"missing: {name}" for name in imported - counts.keys()]
                  + [f"stale: {name}" for name in counts.keys() - imported]
                  + [f"repeated: {name}" for name, k in counts.items() if k > 1])


def test_export_mismatches_detects_and_allows():
    src = ("from __future__ import annotations\n"
           "from .a import b, c as d\n"
           "from .e import (\n    f,\n)\n"
           "import os\n")
    assert export_mismatches(src, ["b", "c", "f", "f"]) == [
        "missing: d", "repeated: f", "stale: c"]
    assert export_mismatches(src, ["f", "d", "b"]) == []


def test_exports_are_the_imports():
    """`cdcover.__all__` is the set of names `__init__.py` imports: a public
    name removed from its module fails the import, and so cannot leave a
    stale export behind, and no re-export goes unlisted."""
    assert export_mismatches((SRC / "__init__.py").read_text(), cdcover.__all__) == []


def documented_exports(readme: str) -> set[str]:
    """The names in backticks in the `## Library` section of `readme`, up
    to the next `## ` heading; a span that is not one identifier, such as
    `cdcover.graphs` or `f(x)`, is prose, not a name."""
    section = readme.partition("\n## Library\n")[2].partition("\n## ")[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def test_documented_exports_detects_and_allows():
    readme = ("# pkg\n`before`\n## Library\n\nFrom `pkg.mod`: `f`, `G` and\n"
              "`f(x)`; see `tests/t.py`.\n- `_h`\n## Formats\n`after`\n")
    assert documented_exports(readme) == {"f", "G", "_h"}
    assert documented_exports("# pkg\n`f`\n") == set()


def test_exports_are_the_readme_library():
    """`cdcover.__all__` is the README's Library list: a new export fails
    here until the README lists it, and so does a listed name that is no
    longer exported."""
    assert documented_exports((ROOT / "README.md").read_text()) == set(cdcover.__all__)


def documented_flags(readme: str) -> set[str]:
    """The `--flags` that `readme` names outside its `## Install and test`
    section, whose flags are pip's, not the CLI's."""
    before, _, after = readme.partition("\n## Install and test\n")
    text = before + after.partition("\n## ")[2]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def parser_flags(parser) -> set[str]:
    """The `--` options, bar `--help`, of `parser` and its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags - {"--help"}


def test_documented_flags_detects_and_allows():
    readme = ("# pkg\n`x --input -`\n## Install and test\npip --no-deps\n"
              "## CLI\n--n-max, a--b, ---c and --n\n## Formats\n(--mode)\n")
    assert documented_flags(readme) == {"--input", "--n-max", "--n", "--mode"}
    parser = argparse.ArgumentParser()
    parser.add_argument("--top")
    sub = parser.add_subparsers().add_parser("go")
    sub.add_argument("-q", "--quiet")
    sub.add_argument("path")
    assert parser_flags(parser) == {"--top", "--quiet"}


def test_cli_options_are_the_readme_flags():
    """The options `cli.build_parser()` defines are the flags the README
    names: an option the README omits fails here, and so does a flag the
    README still names after its option is gone."""
    assert documented_flags((ROOT / "README.md").read_text()) == parser_flags(build_parser())


def _names(tree: ast.AST) -> Counter:
    """How often each name is read as a Name or an Attribute in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def dead_definitions(sources: dict[str, str], others: list[str]) -> list[str]:
    """`label:line: name` for each function, class or non-dunder method in
    `sources` that no Name or Attribute in `sources` or `others` names
    outside its own definition."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    used = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used += _names(tree)
    dead = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] == _names(node)[name]:
                dead.append((label, node.lineno, name))
    return [f"{label}:{line}: {name}" for label, line, name in sorted(dead)]


def test_dead_definitions_detects_and_allows():
    src = ("class A:\n"
           "    def __len__(self): return 0\n"
           "    def used(self): return self.unused_elsewhere()\n"
           "    def recursive(self): return self.recursive()\n"
           "def helper(): return helper\n"
           "def caller(): return A().used()\n")
    assert dead_definitions({"m": src}, ["caller()\n"]) == [
        "m:4: recursive", "m:5: helper"]
    assert dead_definitions({"m": src}, ["caller(); helper(); A.recursive\n"]) == []


def _dead_in_src(callers: tuple[str, ...]) -> list[str]:
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted((ROOT / "src" / "cdcover").glob("*.py"))}
    others = [p.read_text() for d in callers
              for p in sorted((ROOT / d).rglob("*.py"))
              if str(p.relative_to(ROOT)) not in sources]
    return dead_definitions(sources, others)


def test_no_dead_definitions():
    assert _dead_in_src(("src", "tests", "perfbench")) == []


# The definitions in src/ that only tests call, and why each stays public.
TEST_ONLY_API: set[tuple[str, str]] = set()


def test_public_api_that_only_tests_call_is_pinned():
    """No public API that only tests call, beyond the pinned few: a
    definition that loses its last caller in src/ or perfbench/ fails here
    until it is deleted or pinned with a reason."""
    found = {(entry.split(":")[0], entry.rsplit(": ", 1)[1])
             for entry in _dead_in_src(("src", "perfbench"))}
    assert found == TEST_ONLY_API


def default_settings(sources: dict[str, str], others: list[str],
                     ) -> list[tuple[str, str, list[bool | None]]]:
    """(label, `function(parameter)`, settings) for each parameter with a
    default of a `def` in `sources`, sorted by label and line. Settings has
    one entry per call in `sources` or `others`: True if the call sets the
    parameter by keyword or by position, False if it does not, None if it
    spreads `*` or `**`, which may or may not. A call is matched to a
    definition by the name it calls, an `__init__` by its class's name. A
    method's first parameter, `self` or `cls`, takes no position."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    calls: dict[str, list[tuple[int, set[str] | None]]] = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), None if spread else {k.arg for k in node.keywords}))
    found = []
    for label, tree in trees.items():
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            if id(node) in methods:
                positional = positional[1:]
            called = (methods[id(node)] if node.name == "__init__" and id(node) in methods
                      else node.name)
            for param in defaulted:
                at = positional.index(param) if param in positional else None
                settings = [None if keywords is None
                            else param in keywords or (at is not None and count > at)
                            for count, keywords in calls.get(called, ())]
                found.append((label, node.lineno, f"{node.name}({param})", settings))
    return [(label, entry, settings) for label, _, entry, settings in sorted(found)]


def unset_parameters(sources: dict[str, str], others: list[str]) -> list[str]:
    """`label: function(parameter)` for each parameter with a default that
    no call sets, as `default_settings` matches them; a call through `*` or
    `**` counts as setting it."""
    return [f"{label}: {entry}" for label, entry, settings
            in default_settings(sources, others)
            if not any(s is None or s for s in settings)]


def overridden_defaults(sources: dict[str, str], others: list[str]) -> list[str]:
    """`label: function(parameter)` for each parameter with a default that
    every call sets, when there is one, as `default_settings` matches them;
    a call through `*` or `**` counts as not setting it."""
    return [f"{label}: {entry}" for label, entry, settings
            in default_settings(sources, others)
            if settings and all(s is True for s in settings)]


def test_unset_parameters_detects_and_allows():
    src = ("class A:\n"
           "    def __init__(self, x=1, y=2): pass\n"
           "    def m(self, a, b=0, *, c=None): pass\n"
           "    @staticmethod\n"
           "    def s(p=0): pass\n"
           "def f(u, v=1, w=2): pass\n"
           "def g(k=0): pass\n"
           "def h(q=0): pass\n"
           "A(5)\n"
           "A().m(1, c=2)\n"
           "A.s(1)\n"
           "f(0, w=3)\n"
           "g(*args)\n")
    assert unset_parameters({"m": src}, []) == [
        "m: __init__(y)", "m: m(b)", "m: f(v)", "m: h(q)"]
    assert unset_parameters({"m": src}, ["A(y=1)\nx.m(1, 2)\nf(**kw)\nh(0)\n"]) == []


def test_overridden_defaults_detects_and_allows():
    src = ("def f(a, b=1, *, c=2, d=3): pass\n"
           "def g(k=0): pass\n"
           "def h(q=0): pass\n"
           "class A:\n"
           "    def __init__(self, x=1): pass\n"
           "f(0, 5, c=1)\n"
           "f(0, 6, c=2, d=4)\n"
           "g(k=1)\n"
           "g(**kw)\n"
           "A(2)\n")
    assert overridden_defaults({"m": src}, []) == [
        "m: f(b)", "m: f(c)", "m: __init__(x)"]
    assert overridden_defaults({"m": src}, ["f(0, d=3)\nA()\n"]) == []


def _src_and_callers() -> tuple[dict[str, str], list[str]]:
    """The modules of src/ by path, and the texts of perfbench/'s."""
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.glob("*.py"))}
    return sources, [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]


# The parameters of definitions in src/ that only tests set, and why each
# stays; the definitions pinned in TEST_ONLY_API are exempt.
TEST_ONLY_PARAMETERS = {
    # the console entry point calls `main()`, which reads `sys.argv`
    "src/cdcover/cli.py: main(argv)",
}


def test_no_parameter_that_only_tests_set():
    """No parameter that only tests set, beyond the pinned few: a default
    that nothing in src/ or perfbench/ overrides is a second code path that
    only tests take, and fails here until it is deleted or pinned with a
    reason."""
    exempt = {f"{path}: {name}(" for path, name in TEST_ONLY_API}
    found = {entry for entry in unset_parameters(*_src_and_callers())
             if not any(entry.startswith(prefix) for prefix in exempt)}
    assert found == TEST_ONLY_PARAMETERS


def test_no_default_that_only_tests_rely_on():
    """No default that every call in src/ and perfbench/ overrides: the
    path it stands for is taken by tests alone, so the parameter should be
    required, and tests should pass what they mean."""
    assert overridden_defaults(*_src_and_callers()) == []


def cached_properties(source: str) -> set[str]:
    """Names of the methods in `source` decorated with `cached_property`."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
                    == "cached_property" for d in node.decorator_list)}


# The one cache fill whose key is not a string: the `cached_property`
# descriptor's, which stores each cached fact under its function's name.
DESCRIPTOR_FILL = ("cached_property.__get__", "self.name")


def stray_cache_keys(source: str, cached: set[str]) -> list[str]:
    """`line N: key` for each `X.__dict__[key]` and `key in X.__dict__` in
    `source` whose key is not a string naming one of `cached`, except the
    descriptor's own fill, `DESCRIPTOR_FILL`. Such code fills a cached property,
    or asks whether it is filled; a mistyped key fills or finds nothing,
    and the value is computed again."""
    stray = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Subscript):
            holder, key = node.value, node.slice
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            holder, key = node.comparators[0], node.left
        else:
            continue
        if not (isinstance(holder, ast.Attribute) and holder.attr == "__dict__"):
            continue
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and (scope, ast.unparse(key)) == DESCRIPTOR_FILL):
            continue
        name = key.value if isinstance(key, ast.Constant) else None
        if not isinstance(name, str) or name not in cached:
            stray.append(f"line {node.lineno}: {ast.unparse(key)}")
    return stray


def test_stray_cache_keys_detects_and_allows():
    src = ("from functools import cached_property\n"
           "class A:\n"
           "    @cached_property\n"
           "    def adj(self): return ()\n"
           "a = A()\n"
           "a.__dict__['adj'] = ()\n"
           "a.__dict__['ajd'] = ()\n"
           "d = a.__dict__\n"
           "d['anything'] = 1\n"
           "a.__dict__[key] = 1\n"
           "if 'adj' in a.__dict__ and 'jda' not in a.__dict__: pass\n"
           "'x' in d\n")
    assert cached_properties(src) == {"adj"}
    assert cached_properties("import functools\nclass B:\n"
                             "    @functools.cached_property\n"
                             "    def m(self): pass\n"
                             "    @property\n"
                             "    def p(self): pass\n") == {"m"}
    assert stray_cache_keys(src, {"adj"}) == [
        "line 7: 'ajd'", "line 10: key", "line 11: 'jda'"]
    assert stray_cache_keys(src, {"adj", "ajd", "jda"}) == ["line 10: key"]
    descriptor = ("class cached_property:\n"
                  "    def __get__(self, obj, cls):\n"
                  "        obj.__dict__[self.name] = 1\n"
                  "        obj.__dict__[self.func] = 2\n"
                  "        return self.name in obj.__dict__\n"
                  "class Other:\n"
                  "    def __get__(self, obj, cls):\n"
                  "        obj.__dict__[self.name] = 3\n"
                  "def f(self, obj):\n"
                  "    obj.__dict__[self.name] = 4\n")
    assert stray_cache_keys(descriptor, {"adj"}) == [
        "line 4: self.func", "line 5: self.name", "line 8: self.name",
        "line 10: self.name"]


def test_cache_keys_name_cached_properties():
    paths = sorted(SRC.glob("*.py"))
    sources = [p.read_text() for p in paths]
    cached = set().union(*map(cached_properties, sources))
    assert {"adj", "components", "rainbow_triangle", "type1",
            "singular_chains", "type_x_sides"} <= cached
    assert [f"{p.name}: {s}" for p, text in zip(paths, sources)
            for s in stray_cache_keys(text, cached)] == []


def scoped_nodes(source: str) -> list[tuple[str, ast.AST]]:
    """(function, node) for each node in `source` below a statement. The
    function of a method is `Class.method`, of module code `<module>`."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            found.append((".".join(scope) or "<module>", child))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def cache_fills(source: str) -> list[tuple[str, str]]:
    """(function, key) for each `X.__dict__[key] = ...` in `source`, sorted,
    with functions named as `scoped_nodes` names them; a key that is not a
    string constant is given as its source text."""
    fills = []
    for scope, node in scoped_nodes(source):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "__dict__"):
                key = target.slice
                fills.append((scope, key.value if isinstance(key, ast.Constant)
                               else ast.unparse(key)))
    return sorted(fills)


def test_cache_fills_detects_and_allows():
    src = ("a.__dict__['x'] = 1\n"
           "class A:\n"
           "    def m(self, g):\n"
           "        n = g.__dict__['y'] = 2\n"
           "        if g:\n"
           "            g.graph.__dict__[k] = 3\n"
           "        def inner(): g.__dict__['z'] = 4\n"
           "        return g.__dict__['read'], g.other['w']\n"
           "def f(g):\n"
           "    g.__dict__['y'] = 5\n"
           "    g.__dict__['y'] = 6\n"
           "class cached_property:\n"
           "    def __get__(self, obj, cls):\n"
           "        value = obj.__dict__[self.name] = self.func(obj)\n"
           "        return value\n")
    assert cache_fills(src) == [
        ("<module>", "x"), ("A.m", "k"), ("A.m", "y"), ("A.m.inner", "z"),
        DESCRIPTOR_FILL, ("f", "y"), ("f", "y")]


# Each site that fills a cached property of another object: the parent's
# facts a child takes over, or the results a search hands to the graph it
# searched. A carried fact pays for itself only if a measurement shows it;
# a new site should come with one. The cycle enumeration fills none: it
# hands the cover search edge ids, not `Cycle`s, and the oracles build a
# `Cycle` only for a member of the cover they return. The descriptor's one
# generic fill, `DESCRIPTOR_FILL`, is how every cached fact is first stored.
# Three sites fill a graph's components and empty Type X map by a lemma of
# the coloring module docstring, in place of a Type X search: a removal
# that meets the one-arc removal lemma (`removal_leaves_type_x`), a child
# that a lemma proves good (`_good_reduction`: a contraction's, a Case2_1
# run's and Case2_2_2a's rewired child) and Case2_2_1b's end x-block
# (`_case2_2_1b`). With them, one pass of the `small-default` bench
# corpus runs 1,311 Type X searches, not 3,247, and one of `crosscheck`
# 421, not 1,118; `test_type_x_search_count_is_pinned` pins a count.
CACHE_FILLS = [
    ("EdgeColoredGraph.edit", "adj"),
    ("_case2_2_1b", "components"),
    ("_case2_2_1b", "type_x_sides"),
    ("_cut_search", "components"),
    ("_cut_search", "type_x_sides"),
    ("_good_reduction", "components"),
    ("_good_reduction", "type_x_sides"),
    DESCRIPTOR_FILL,
    ("case2_1", "rainbow_triangle"),
    ("case2_1", "singular_chains"),
    ("removal_leaves_type_x", "components"),
    ("removal_leaves_type_x", "type_x_sides"),
]


def test_cache_fill_sites():
    assert sorted(fill for p in sorted(SRC.glob("*.py"))
                  for fill in cache_fills(p.read_text())) == CACHE_FILLS


def functools_cached_properties(source: str) -> list[str]:
    """`line N` for each import of `cached_property` from `functools` in
    `source`, and each read of `functools.cached_property`. On Python 3.11
    that descriptor takes a class-wide lock on the first read of every
    cached fact; `graphs.cached_property` takes none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = node.module == "functools" and any(
                a.name == "cached_property" for a in node.names)
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "cached_property"
                   and isinstance(node.value, ast.Name) and node.value.id == "functools")
        if hit:
            found.append(f"line {node.lineno}")
    return found


def test_functools_cached_properties_detects_and_allows():
    src = ("from functools import cached_property\n"
           "from functools import cache, cached_property as cp\n"
           "import functools\n"
           "x = functools.cached_property\n"
           "from .graphs import cached_property\n"
           "from functools import cache\n"
           "class cached_property:\n"
           "    pass\n"
           "y = graphs.cached_property\n")
    assert functools_cached_properties(src) == ["line 1", "line 2", "line 4"]


def test_no_functools_cached_property():
    assert [f"{p.name}: {hit}" for p in sorted(SRC.glob("*.py"))
            for hit in functools_cached_properties(p.read_text())] == []


def graph_builds(source: str, classes: frozenset[str]) -> list[str]:
    """`function: call` for each call in `source` of one of `classes` or of
    an attribute of one, such as a constructor or `from_triples`, with
    functions as `scoped_nodes` names them. Sorted."""
    found = []
    for scope, node in scoped_nodes(source):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            func = func.value
        if isinstance(func, ast.Name) and func.id in classes:
            found.append(f"{scope}: {ast.unparse(node.func)}")
    return sorted(found)


GRAPH_CLASSES = frozenset({"Graph", "EdgeColoredGraph"})


def test_graph_builds_detects_and_allows():
    src = ("g = Graph(n, edges)\n"
           "h = EdgeColoredGraph.from_triples(n, ts)\n"
           "k = parent.edit(drop=ds)\n"
           "def f(g: EdgeColoredGraph) -> Graph: return g.graph\n"
           "isinstance(g, EdgeColoredGraph)\n"
           "def h(g):\n"
           "    return EdgeColoredGraph(g.n, {})\n")
    assert graph_builds(src, GRAPH_CLASSES) == [
        "<module>: EdgeColoredGraph.from_triples", "<module>: Graph",
        "h: EdgeColoredGraph"]


def test_decomposer_builds_no_graph():
    """Every reduction child, component part and peel remainder is an
    `edit` of its parent, with one exception: the empty remainder of a
    batch that covers its graph, which `_check_removal` builds as
    `EdgeColoredGraph(h.n, {})`, as copying the whole coloring to drop
    every edge costs more. The decomposer calls no other graph
    constructor."""
    assert graph_builds((SRC / "decomposer.py").read_text(), GRAPH_CLASSES) == [
        "_check_removal: EdgeColoredGraph"]


def unconstructed_builds(source: str) -> list[tuple[str, str, str]]:
    """(function, call, first argument) for each call in `source` that can
    make or set up an object without running its constructor: a call of a
    `__new__` or `__setattr__` attribute, such as `object.__new__(Graph)`,
    or of `__dict__.update`. Sorted; functions as `scoped_nodes` names
    them."""
    found = []
    for scope, node in scoped_nodes(source):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr in ("__new__", "__setattr__") or (
                func.attr == "update" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "__dict__"):
            first = ast.unparse(node.args[0]) if node.args else ""
            found.append((scope, ast.unparse(func), first))
    return sorted(found)


def test_unconstructed_builds_detects_and_allows():
    src = ("g = object.__new__(Graph)\n"
           "class C:\n"
           "    def __post_init__(self):\n"
           "        object.__setattr__(self, 'vertices', ())\n"
           "def f(h):\n"
           "    h.__dict__.update(n=3)\n"
           "    Graph.__new__(Graph)\n"
           "    h.__dict__['adj'] = ()\n"
           "    h.update(n=3)\n"
           "    Graph(3, frozenset())\n")
    assert unconstructed_builds(src) == [
        ("<module>", "object.__new__", "Graph"),
        ("C.__post_init__", "object.__setattr__", "self"),
        ("f", "Graph.__new__", "Graph"),
        ("f", "h.__dict__.update", "")]


# Each call in src/ that makes an object or sets its fields without its
# constructor. `_Record._set` is the one way a record's constructor sets its
# fields; `edit` is the one place that builds an `EdgeColoredGraph` without
# its constructor, after validating only the edges it adds. A second such
# path would skip the constructor's checks unseen.
UNCONSTRUCTED_BUILDS = [
    ("EdgeColoredGraph.edit", "child.__dict__.update", ""),
    ("EdgeColoredGraph.edit", "object.__new__", "EdgeColoredGraph"),
    ("_Record._set", "self.__dict__.update", "fields"),
]


def test_edit_is_the_only_unconstructed_graph_build():
    assert sorted(build for p in sorted(SRC.glob("*.py"))
                  for build in unconstructed_builds(p.read_text())) == \
        UNCONSTRUCTED_BUILDS


def placeholderless_fstrings(source: str) -> list[str]:
    """`line N: text` for each f-string in `source` with no placeholder. The
    format spec of a placeholder, as in `{x:>4}`, is an f-string nested in
    it and does not count."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec}
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)]


def test_placeholderless_fstrings_detects_and_allows():
    src = ("a = f'plain'\n"
           "b = f'{x}'\n"
           "c = f'{x:>4} and {y!r}'\n"
           "d = f'{x:{w}}'\n"
           "e = 'not an f-string'\n"
           "f = (f'joined'\n     f'{x}')\n")
    assert placeholderless_fstrings(src) == ["line 1: f'plain'"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=[p.name for p in sorted(SRC.glob("*.py"))])
def test_no_placeholderless_fstrings(path):
    assert placeholderless_fstrings(path.read_text()) == []


# the names of the maps between a reduction child's ids and its parent's,
# which the engine does without: a child keeps its parent's vertex ids
ID_MAP_NAMES = frozenset({"to_parent", "to_child", "_map_cycle"})


def named_identifiers(source: str, names: frozenset[str]) -> list[str]:
    """`line N: name` for each identifier in `source` that is one of
    `names`: a name read or bound, an attribute, a parameter, a keyword
    argument, an import or a definition. Strings and comments do not
    count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            ident = node.arg
        elif isinstance(node, ast.alias):
            ident = node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            ident = node.name
        else:
            continue
        if ident in names:
            found.append((node.lineno, ident))
    return [f"line {line}: {ident}" for line, ident in sorted(found)]


def test_named_identifiers_detects_and_allows():
    src = ("def _map_cycle(c, to_parent): pass\n"
           "x = f(to_child=1)\n"
           "y.to_parent[0] = 1\n"
           "from m import to_child\n"
           "'to_parent'  # to_child\n"
           "to_parents = _map_cycles = 0\n")
    assert named_identifiers(src, ID_MAP_NAMES) == [
        "line 1: _map_cycle", "line 1: to_parent", "line 2: to_child",
        "line 3: to_parent", "line 4: to_child"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=[p.name for p in sorted(SRC.glob("*.py"))])
def test_no_vertex_id_maps(path):
    assert named_identifiers(path.read_text(), ID_MAP_NAMES) == []


# the names by which Python code reads the process environment
ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})

# the reads of the environment in src/, as `path: line N: name`, and why
# each stays; a run of the program is set by its arguments alone
ENVIRONMENT_READS: set[str] = set()


def test_environment_reads_detected():
    src = ("import os\n"
           "x = os.environ.get('A')\n"
           "from os import getenv\n"
           "y = 'environ'  # os.getenv\n")
    assert named_identifiers(src, ENVIRONMENT_NAMES) == [
        "line 2: environ", "line 3: getenv"]


def test_no_environment_reads():
    """Nothing in src/ reads the environment beyond the pinned reads: a
    setting made there changes a run without showing in its command line,
    and a failure found under it does not replay."""
    found = {f"{p.relative_to(ROOT)}: {entry}" for p in sorted(SRC.glob("*.py"))
             for entry in named_identifiers(p.read_text(), ENVIRONMENT_NAMES)}
    assert found == ENVIRONMENT_READS


def call_scopes(source: str, name: str) -> list[str]:
    """The function, as `scoped_nodes` names it, of each call in `source`
    of `name` or of an attribute so named. Sorted."""
    found = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.append(scope)
    return sorted(found)


CALLS = ("check_goodness(g)\n"
         "def f(h, rep, cycles):\n"
         "    rest = h.edit(drop=[])\n"
         "    return removal_leaves_type_x(rest, h, cycles)\n"
         "class A:\n"
         "    def m(self, g):\n"
         "        return C.check_goodness(g), D.CaseFailure('x', '', '')\n"
         "def g(x):\n"
         "    y = check_goodness\n"
         "    return check(x), y(x), check_goodness.__name__, CaseFailure\n"
         "    def inner():\n"
         "        return CaseFailure(case, text, message)\n")


def test_full_goodness_calls_detects_and_allows():
    assert call_scopes(CALLS, "check_goodness") == ["<module>", "A.m"]


def test_incremental_goodness_calls_detects_and_allows():
    assert call_scopes(CALLS, "removal_leaves_type_x") == ["f"]


def test_case_failure_calls_detects_and_allows():
    assert call_scopes(CALLS, "CaseFailure") == ["A.m", "g.inner"]


def test_one_function_checks_goodness_after_a_removal():
    """Only `decomposer._check_removal` checks what a removal leaves, by
    `removal_leaves_type_x`: every removal is verified by its one typing
    sweep, which by the typing lemma settles conditions 1-5, and that one
    check of condition 6, so a second removal path, with its own notion of
    which removals are safe, would show here."""
    assert [f"{p.name}: {scope}" for p in MODULES
            for scope in call_scopes(p.read_text(), "removal_leaves_type_x")] == [
        "decomposer.py: _check_removal"]


def test_full_goodness_checks_only_at_the_roots():
    """In the decomposer, only the one entry, `decompose`, checks a graph's
    goodness in full, on the root it is given, with a prescribed cycle or
    without. Every other graph's bad vertex is derived: by the removal
    check's typing sweep and `removal_leaves_type_x` for what a removal
    leaves, or by a lemma of the coloring module docstring, for a
    reduction's child (from its Type X search alone, or with no search), a
    component or an end x-block."""
    source = (SRC / "decomposer.py").read_text()
    assert call_scopes(source, "check_goodness") == ["decompose"]


def test_two_readers_run_the_type_x_search():
    """Only the two cached properties it fills, `components` and
    `type_x_sides`, call `_cut_search`: every other reader of the cut
    structure reads those as they are."""
    assert [f"{p.name}: {scope}" for p in MODULES
            for scope in call_scopes(p.read_text(), "_cut_search")] == [
        "coloring.py: EdgeColoredGraph.components",
        "coloring.py: EdgeColoredGraph.type_x_sides"]


# the fields of a `GoodnessReport`
REPORT_FIELDS = frozenset({"verdict", "bad_vertex", "ok", "violations"})


def report_reads(source: str) -> list[str]:
    """`function: field` for each read in `source` of an attribute named in
    `REPORT_FIELDS`, and `function: import GoodnessVerdict` for each import
    of that name, with functions as `scoped_nodes` names them. Sorted."""
    found = []
    for scope, node in scoped_nodes(source):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in REPORT_FIELDS):
            found.append(f"{scope}: {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                a.name.split(".")[-1] == "GoodnessVerdict" for a in node.names):
            found.append(f"{scope}: import GoodnessVerdict")
    return sorted(found)


def test_report_reads_detects_and_allows():
    src = ("from .coloring import GOOD_REPORT, GoodnessVerdict\n"
           "def decompose(g):\n"
           "    rep = check(g)\n"
           "    return rep.ok, rep.verdict.value, rep.violations\n"
           "def _dispatch(comp, bad):\n"
           "    import cdcover.coloring.GoodnessVerdict\n"
           "    return bad, comp.verdict is not None\n"
           "class _Frame:\n"
           "    def take(self, checked):\n"
           "        self.bad, self.ok = checked.bad, True\n"
           "        return checked.report.bad_vertex\n")
    assert report_reads(src) == [
        "<module>: import GoodnessVerdict", "_Frame.take: bad_vertex",
        "_dispatch: import GoodnessVerdict", "_dispatch: verdict", "decompose: ok",
        "decompose: verdict", "decompose: violations"]


def test_only_the_entry_and_the_certificate_read_a_report():
    """The engine's state is a graph and its bad vertex, the one defect of
    a good or almost-good graph: only `decompose`, which checks the root in
    full, and `_verified_trace`, which gives each step of the output the
    root's report or `GOOD_REPORT`, read a `GoodnessReport`'s fields, and
    the decomposer does not import `GoodnessVerdict`. So no case, lift,
    frame, removal check or fallback search reads a verdict, and none
    checks one."""
    assert {entry.split(": ")[0] for entry in
            report_reads((SRC / "decomposer.py").read_text())} == {
        "decompose", "_verified_trace"}


def test_decomposer_builds_no_report_or_violation():
    """The decomposer takes every report it hands on from the coloring
    module (`GOOD_REPORT`, `almost_good_at`, `check_goodness`) and reads a
    child's Type X vertices from `type_x_sides`, so it builds no
    `GoodnessReport` or `Violation`."""
    source = (SRC / "decomposer.py").read_text()
    assert [scope for name in ("GoodnessReport", "Violation")
            for scope in call_scopes(source, name)] == []


def test_one_function_builds_a_case_failure():
    """Only `decomposer.decompose` builds a `CaseFailure`: every failure of
    a run, the refusal of a prescribed cycle too, reaches it as an
    `_EngineFailure`, so every failure a run reports is serialized one way
    and carries the prescribed cycle when its graph is the input."""
    source = (SRC / "decomposer.py").read_text()
    assert call_scopes(source, "CaseFailure") == ["decompose"]


def test_case_pattern_calls_detects_and_allows():
    src = ("def extract(g):\n"
           "    return 'a', CasePattern(v, x1, x2)\n"
           "def _swap_sides(p):\n"
           "    return D.CasePattern(p.v, p.x2, p.x1)\n"
           "def reads(p: CasePattern) -> CasePattern:\n"
           "    return isinstance(p, CasePattern) and p\n")
    assert call_scopes(src, "CasePattern") == ["_swap_sides", "extract"]


def test_one_function_builds_a_case_pattern():
    """Only `decomposer.extract_case2_2_pattern` builds a `CasePattern`,
    labelled as the subcase of its shape reads it, so no helper relabels
    one."""
    assert [f"{p.name}: {scope}" for p in MODULES
            for scope in call_scopes(p.read_text(), "CasePattern")] == [
        "decomposer.py: extract_case2_2_pattern"]


# the decomposer's calls that name a case, each with the index of its
# message argument, which may be any text, or None when it has none
CASE_NAMING_CALLS = {"CaseVerificationError": 1, "_EngineFailure": 2, "_require": 2,
                     "_contraction": None}


def literal_case_names(source: str) -> list[str]:
    """`function: text` for each string literal that `source` passes to a
    call of `CASE_NAMING_CALLS`, or of an attribute so named, other than as
    its message, with functions as `scoped_nodes` names them. Sorted."""
    found = []
    for scope, node in scoped_nodes(source):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in CASE_NAMING_CALLS:
            continue
        args = [a for i, a in enumerate(node.args) if i != CASE_NAMING_CALLS[name]]
        args += [k.value for k in node.keywords]
        found += [f"{scope}: {a.value}" for a in args
                  if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return sorted(found)


def test_literal_case_names_detects_and_allows():
    src = ("def f(g, tag):\n"
           "    _require(ok, tag, 'any message')\n"
           "    _require(ok, 'Case2_2', f'{x} message')\n"
           "    raise CaseVerificationError('Engine', 'case produced no cycles')\n"
           "def h(g):\n"
           "    child = D._build_transform(g, drop=[e])\n"
           "    return _contraction(g, 'ContractEdge', 'rectangle', merge=m)\n"
           "_EngineFailure('Probe', g, 'message', None, rep)\n"
           "check(g, 'Probe')\n")
    assert literal_case_names(src) == [
        "<module>: Probe", "f: Case2_2", "f: Engine", "h: ContractEdge", "h: rectangle"]


def test_every_decomposer_refusal_names_a_case():
    """Every refusal the decomposer raises, and so the `case` of every
    `case_failure` it writes, names a case: one of `CASE_TAGS`, passed by
    its constant, or `Engine` (the engine's own checks) or `Case2_2` (the
    pattern every Case2_2 subcase starts from). A child is lifted under
    its case's name, not under a name for the edit that builds it."""
    allowed = {"Engine", "Case2_2"}
    assert [entry for entry in literal_case_names((SRC / "decomposer.py").read_text())
            if entry.split(": ", 1)[1] not in allowed] == []


def built_require_messages(source: str) -> list[str]:
    """`line N: message` for each call of `_require`, or of an attribute so
    named, in `source` whose message, its third argument or `message=`, is
    not a string constant. An f-string, `.format`, `%` or `+` there builds
    the refusal's text on every call, though almost no call refuses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "_require":
            continue
        message = node.args[2] if len(node.args) > 2 else next(
            (k.value for k in node.keywords if k.arg == "message"), None)
        if not (isinstance(message, ast.Constant) and isinstance(message.value, str)):
            found.append(f"line {node.lineno}: "
                         f"{'<none>' if message is None else ast.unparse(message)}")
    return found


def test_built_require_messages_detects_and_allows():
    src = ("_require(ok, tag, 'flank is not Type II')\n"
           "_require(ok, tag, f'flank {x} is not Type II')\n"
           "_require(ok, tag, 'flank {}'.format(x))\n"
           "_require(ok, tag, 'flank %d' % x)\n"
           "D._require(ok, tag, 'flank ' + s)\n"
           "_require(ok, tag, message=f'{x}')\n"
           "_require(ok, tag, message='flank {}')\n"
           "_require(ok, tag, text)\n"
           "_require(ok, tag)\n"
           "_required(ok, tag, f'{x}')\n"
           "raise CaseVerificationError(tag, f'{x}')\n")
    assert built_require_messages(src) == [
        "line 2: f'flank {x} is not Type II'", "line 3: 'flank {}'.format(x)",
        "line 4: 'flank %d' % x", "line 5: 'flank ' + s", "line 6: f'{x}'",
        "line 8: text", "line 9: <none>"]


def test_require_messages_are_constant_templates():
    """Every `_require` in src/ passes its refusal text as constant text,
    so a check that holds builds none."""
    assert [f"{p.name}: {hit}" for p in MODULES
            for hit in built_require_messages(p.read_text())] == []


def refusals(source: str, within: Callable[[list[str]], bool]) -> list[str]:
    """`function: name` for each call of `_require`, or of an attribute so
    named, and each reading of `CaseVerificationError`, in a function whose
    name as `scoped_nodes` gives it, split at its dots, `within` accepts.
    Sorted."""
    found = []
    for scope, node in scoped_nodes(source):
        if not within(scope.split(".")):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "_require":
                found.append(f"{scope}: _require")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "CaseVerificationError":
                found.append(f"{scope}: CaseVerificationError")
    return sorted(found)


def lift_refusals(source: str) -> list[str]:
    """The `refusals` in a function named `lift` or `expand` nested in
    another, or in one nested in such a function."""
    return refusals(source, lambda names: bool({"lift", "expand"} & set(names[1:])))


# the decomposer's top-level functions that dispatch, peel or reduce, and
# the builder of a reduction's child
CASE_FUNCTIONS = frozenset({
    "_dispatch", "_all_type2_cycle", "_build_transform", "_contraction",
    "_good_reduction", "case1_1", "case1_2", "case2_1",
    "extract_case2_2_pattern", "case2_2_1", "_case2_2_1b", "_case2_2_2a",
    "_case2_2_2b", "_case2_2_2c", "_case2_2_2d"})


def case_refusals(source: str) -> list[str]:
    """The `refusals` in the body of a top-level function of
    `CASE_FUNCTIONS`, outside the functions nested in it."""
    return refusals(source, lambda names: len(names) == 1 and names[0] in CASE_FUNCTIONS)


def test_lift_refusals_detects_and_allows():
    src = ("def _contraction_lift(tag, m):\n"
           "    _require(m, tag, 'outside the lift')\n"
           "    def lift(sub):\n"
           "        _require(sub, tag, 'expected {}', len(sub))\n"
           "        return sub\n"
           "    return lift\n"
           "def _case(g, p):\n"
           "    def expand(a, b):\n"
           "        def turned(path):\n"
           "            raise D.CaseVerificationError(tag, 'no end')\n"
           "        return turned([a])\n"
           "    def lift(sub):\n"
           "        try:\n"
           "            return _check_removal(g, rep, sub)\n"
           "        except CaseVerificationError:\n"
           "            return D._require(False, tag, 'x')\n"
           "    def build(sub):\n"
           "        _require(sub, tag, 'not a lift')\n"
           "def lift(sub):\n"
           "    _require(sub, tag, 'a module-level function')\n"
           "def case1_1(g, v):\n"
           "    _check_removal(g, v, [])\n"
           "    D._require(g, tag, 'wrong case')\n"
           "    def lift(sub):\n"
           "        _require(sub, tag, 'nested')\n"
           "    return _contraction(g, tag)\n"
           "def _contraction(g, tag):\n"
           "    _require(g, tag, 'not good')\n"
           "    raise CaseVerificationError(tag, 'x')\n"
           "def _build_transform(parent, *, drop):\n"
           "    if drop - parent.edges:\n"
           "        raise D.CaseVerificationError('Engine', 'absent edges')\n"
           "    return parent.edit(drop=drop)\n"
           "def _build_child(parent):\n"
           "    raise CaseVerificationError('Engine', 'not a case function')\n"
           "class A:\n"
           "    def case1_2(self):\n"
           "        _require(self, tag, 'a method')\n")
    assert lift_refusals(src) == [
        "_case.expand.turned: CaseVerificationError", "_case.lift: CaseVerificationError",
        "_case.lift: _require", "_contraction_lift.lift: _require",
        "case1_1.lift: _require"]
    assert case_refusals(src) == [
        "_build_transform: CaseVerificationError",
        "_contraction: CaseVerificationError", "_contraction: _require",
        "case1_1: _require"]


def test_lifts_refuse_nothing_their_input_proves():
    """A lift's input is the child's partition into checked cycles, and
    the removal check of its batch is its one check, so no nested `lift`
    or `expand` in the decomposer refuses. Case2_2_2a's lift needs no
    check that the child cycle through w avoids v: the split lemma in
    the coloring module docstring proves it."""
    assert lift_refusals((SRC / "decomposer.py").read_text()) == []


def test_reductions_refuse_nothing_their_report_proves():
    """A case's hypothesis is in its signature: Case1_1 and Case1_2 take
    the bad vertex of an almost-good graph and every other case a good
    graph, which the engine proves of every graph it dispatches; with the
    dispatch branch that reaches it, and for a Case2_2 subcase the shape
    `extract_case2_2_pattern` read. The pattern the case reads and the
    child it builds follow from them by the lemmas in the coloring module
    docstring, the Type X contraction, end-block path, rectangle and
    rewired-child lemmas included. So a case function refuses only what
    they leave open, each public case its one wrong-case guard. Case2_2_2a
    reads `CaseVerificationError` only to catch its rectangle's refusal,
    and `_build_transform` and `_good_reduction` refuse nothing."""
    assert case_refusals((SRC / "decomposer.py").read_text()) == [
        "_case2_2_2a: CaseVerificationError",
        "case1_1: _require",
        "case1_2: _require",
        "case2_1: _require",
        "extract_case2_2_pattern: _require"]


def removal_records(source: str) -> list[str]:
    """Where `source` makes a removal record or applies a batch beside the
    removal check: the function, as `scoped_nodes` names it, of each call
    of `_Checked` or of an attribute so named, and `def _apply_batch` for
    each definition of that name. Sorted."""
    found = [f"def {node.name}" for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and node.name == "_apply_batch"]
    return sorted(found + call_scopes(source, "_Checked"))


def test_removal_records_detects_and_allows():
    src = ("def _check_removal(h, rep, batch):\n"
           "    return _Checked(batch, h, rep)\n"
           "def lift(sub):\n"
           "    return D._Checked(sub, None, None)\n"
           "class A:\n"
           "    def _apply_batch(self, b):\n"
           "        return isinstance(b, _Checked), b.rest, _Checked\n"
           "x: _Checked = y\n")
    assert removal_records(src) == ["_check_removal", "def _apply_batch", "lift"]


def test_only_the_removal_check_makes_a_removal_record():
    """Only `decomposer._check_removal` builds a `_Checked`, the record of a
    batch it accepted with its remainder and report, and no `_apply_batch`
    applies a batch beside it: so no case, lift or search can hand the
    engine a remainder that was not checked."""
    assert [f"{p.name}: {scope}" for p in MODULES
            for scope in removal_records(p.read_text())] == [
        "decomposer.py: _check_removal", "decomposer.py: _check_removal"]


# the engine modules and class that a test may patch, while it generates
# graphs, only through the engine corpus's recorder
PATCHED_TARGETS = ("cdcover.decomposer", "cdcover.coloring",
                   "cdcover.coloring.EdgeColoredGraph")


def engine_harvests(source: str) -> list[str]:
    """The top-level functions and classes of `source` (with their nested
    functions), or `<module>`, that both call `random_cubic_bridgeless`
    and patch an attribute of something in PATCHED_TARGETS: by a `setattr`
    call or a `unittest.mock` patch (`patch.object(target, ...)`, or
    `patch(...)` with a dotted string), called or used in a `with`, or by
    assigning to the attribute. A `setattr` may name its target as a
    dotted string too. Sorted."""
    nodes = scoped_nodes(source)
    aliases = {}  # a local name -> the dotted name it was imported as
    for _, node in nodes:
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}")
                           for a in node.names)

    def target(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.rsplit(".", 1)[0] in PATCHED_TARGETS
        if isinstance(node, ast.Name):
            return aliases.get(node.id) in PATCHED_TARGETS
        return isinstance(node, ast.Attribute) and ast.unparse(node) in PATCHED_TARGETS

    generating, patching = set(), set()
    for scope, node in nodes:
        top = scope.split(".")[0]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            # `patch` and `patch.object` name their target first, as `setattr`
            patcher = (name in ("setattr", "patch")
                       or ast.unparse(func).split(".")[-2:] == ["patch", "object"])
            if name == "random_cubic_bridgeless":
                generating.add(top)
            elif patcher and node.args and target(node.args[0]):
                patching.add(top)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and target(node.value)):
            patching.add(top)
    return sorted(generating & patching)


def test_engine_harvests_detects_and_allows():
    src = ("import sys\nimport cdcover.decomposer as D\nimport cdcover\n"
           "from cdcover.coloring import EdgeColoredGraph as ECG\n"
           "def test_a(monkeypatch):\n"
           "    monkeypatch.setattr(D, 'x', 1)\n"
           "    random_cubic_bridgeless(c)\n"
           "def _harvest():\n"
           "    def record():\n"
           "        return oracle.random_cubic_bridgeless(c)\n"
           "    D.case2_1, other.y = record, 1\n"
           "def test_b(mp):\n"
           "    mp.setattr(ECG, 'edit', None)\n"
           "    mp.setattr('cdcover.coloring.check_goodness', None)\n"
           "def test_c(mp):\n"
           "    mp.setattr(sys, 'setrecursionlimit', None)\n"
           "    ECG.edit(g), D.x, random_cubic_bridgeless(c)\n"
           "class T:\n"
           "    def test_d(self):\n"
           "        setattr(ECG, 'edit', None)\n"
           "        cdcover.coloring.x = random_cubic_bridgeless(c)\n"
           "def test_e(monkeypatch):\n"
           "    monkeypatch.setattr('cdcover.decomposer.x', random_cubic_bridgeless(c))\n")
    assert engine_harvests(src) == ["T", "_harvest", "test_a", "test_e"]
    mocked = ("from unittest import mock\n"
              "from unittest.mock import patch\n"
              "import cdcover.decomposer as D\n"
              "def test_f():\n"
              "    with mock.patch.object(D, '_fallback_cap', lambda g: 6):\n"
              "        random_cubic_bridgeless(c)\n"
              "def test_g():\n"
              "    patch.object(D, 'x', 1).start()\n"
              "    random_cubic_bridgeless(c)\n"
              "def test_h():\n"
              "    with patch('cdcover.decomposer.x', 1):\n"
              "        random_cubic_bridgeless(c)\n"
              "def test_i():\n"
              "    mock.patch('cdcover.coloring.check_goodness').start()\n"
              "    random_cubic_bridgeless(c)\n"
              "def test_j():\n"
              "    with mock.patch.object(os, 'x', 1), patch('os.path.x', 1):\n"
              "        random_cubic_bridgeless(c), D.patch(c), mock.patch.dict(D)\n"
              "def test_k():\n"
              "    with mock.patch('cdcover.decomposer.x', 1):\n"
              "        pass\n")
    assert engine_harvests(mocked) == ["test_f", "test_g", "test_h", "test_i"]


def test_engine_is_harvested_only_by_the_corpus():
    """Outside `tests/enginecorpus.py`, no test both generates random cubic
    graphs and patches the engine to watch it: the tests read what the
    engine does on generated graphs from the corpus's one recorded run, so
    a change to the engine moves one list, not one harvest per test."""
    paths = sorted(p for p in (ROOT / "tests").glob("*.py")
                   if p.name != "enginecorpus.py")
    assert [f"{p.name}: {f}" for p in paths
            for f in engine_harvests(p.read_text())] == []


def imported_modules(source: str) -> list[str]:
    """The dotted module paths that `source` imports, relative ones with
    their leading dots; `from . import x` counts as importing `.x`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            if node.module is None:
                out.extend(prefix + a.name for a in node.names)
            else:
                out.append(prefix)
    return out


def test_imported_modules_resolves_relative_imports():
    assert imported_modules("import a.b\nfrom .c import d\nfrom .. import e\n") == [
        "a.b", ".c", "..e"]


def test_oracle_does_not_import_the_decomposer():
    """The oracle certifies the engine, so it must not reuse the engine's
    cycle search or removal check, however much faster they are."""
    imported = imported_modules((SRC / "oracle.py").read_text())
    assert imported and not [m for m in imported if "decomposer" in m.split(".")]


def test_decomposer_does_not_import_the_oracle():
    """The decomposer must not lean on the search that certifies it: a
    cover the oracle's own search found would check nothing."""
    imported = imported_modules((SRC / "decomposer.py").read_text())
    assert imported and not [m for m in imported if "oracle" in m.split(".")]


def imports_module(source: str, module: str) -> bool:
    """Whether `source` imports the absolute module `module`, or one of
    its submodules, anywhere, a function body included."""
    return any(m.split(".")[0] == module for m in imported_modules(source))


def test_imports_module_detects_and_allows():
    assert imports_module("from dataclasses import dataclass\n", "dataclasses")
    assert imports_module("def f():\n    import dataclasses as dc\n", "dataclasses")
    assert imports_module("import os.path\n", "os")
    assert not imports_module("from .dataclasses import x\nimport dataclasses_json\n"
                              "# import dataclasses\ns = 'import dataclasses'\n",
                              "dataclasses")


def test_src_does_not_import_dataclasses():
    """The records are plain classes on `graphs._Record`: `dataclasses`
    imports `inspect`, `ast`, `dis` and `tokenize`, and execs the methods
    of each class it decorates, which cost `cdcover` most of its start-up."""
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if imports_module(p.read_text(), "dataclasses")] == []


# standard modules that no `cdcover` import should load
UNLOADED_AT_IMPORT = ("dataclasses", "inspect", "ast", "pathlib", "typing")


def test_import_leaves_slow_modules_unloaded():
    """`import cdcover, cdcover.cli` in a fresh interpreter loads none of
    `UNLOADED_AT_IMPORT`, directly or through another module. `-S` skips
    `site`, whose `.pth` files may load some of them first."""
    code = ("import sys\nimport cdcover, cdcover.cli\n"
            f"print([m for m in {UNLOADED_AT_IMPORT!r} if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.stdout.strip() == "[]"


LOWPOINT_NAMES = frozenset({"low", "disc"})


def lowpoint_stores(source: str) -> list[str]:
    """The functions, as `scoped_nodes` names them, that store into a
    `low[...]` or `disc[...]` subscript (of a name or an attribute so
    named) in `source`. Sorted, each once. Reads are not stores."""
    found = set()
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            held = node.value
            name = held.attr if isinstance(held, ast.Attribute) else getattr(held, "id", None)
            if name in LOWPOINT_NAMES:
                found.add(scope)
    return sorted(found)


def test_lowpoint_stores_detects_and_allows():
    src = ("def search(adj):\n"
           "    disc = [-1] * len(adj)\n"
           "    disc[0] = low[0] = 0\n"
           "class A:\n"
           "    def m(self):\n"
           "        self.low[2] += 1\n"
           "def bridges(disc, low, split):\n"
           "    lows, d = [0], {}\n"
           "    lows[0] = d['low'] = d['disc'] = 1\n"
           "    return [c for u in split for c in split[u] if low[c] > disc[u]]\n"
           "def nested():\n"
           "    def inner(): disc[1] = 1\n")
    assert lowpoint_stores(src) == ["A.m", "nested.inner", "search"]


def test_one_lowpoint_search():
    """`graphs.lowpoint_search` is the one function in src/ that computes
    discovery times and lowpoints: bridges, connectivity, components and
    the Type X cut vertices are all read from it, so a second copy of the
    search would show here."""
    assert [f"{p.name}: {scope}" for p in MODULES
            for scope in lowpoint_stores(p.read_text())] == [
        "graphs.py: lowpoint_search"]


def test_bench_tracer_wraps_existing_layers(monkeypatch):
    """Every (module, attr) that `perfbench/run.py` wraps for its per-layer
    metrics exists, except `decomposer.enumerate_cycles`, which the
    decomposer no longer imports since it stopped using the oracle. A
    renamed layer would otherwise read 0 in those metrics, with no error."""
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setitem(sys.modules, "op", importlib.import_module("op"))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def wrap(self, module, attr, name, count=None):
            self.wrapped.append((module.__name__, attr, hasattr(module, attr)))

    tracer = Recorder()
    run.install_spans(tracer)
    assert [(m, a) for m, a, present in tracer.wrapped if not present] == [
        ("cdcover.decomposer", "enumerate_cycles")]
    assert {("cdcover.decomposer", "_verified_trace", True),
            ("cdcover.decomposer", "fallback_search", True),
            ("cdcover.decomposer", "check_goodness", True)} <= set(tracer.wrapped)
