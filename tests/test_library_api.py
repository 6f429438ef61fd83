"""The library has no unused public API: every public top-level function
and class of `kempe` is referenced by other library code, or is listed in
`KEPT` with the reason it stays. And each private representation, a
graph's adjacency and a coloring's state, is read by its own module only."""

from __future__ import annotations

import ast
import importlib.util
import types
from pathlib import Path

import kempe

# name -> why it stays without a library caller
KEPT = {
    "masks_isomorphic": "a benchmark LAYERS name and an isomorphism test reference",
    "replay_proof_script": "kept by the ROADMAP for its documented, tested replay",
}


def unreferenced_public_names(package: Path) -> set[str]:
    """Public top-level functions and classes of the package's modules
    (`__init__.py` aside) that no other library code names. A reference is
    an `ast.Name` or `ast.Attribute` outside the definition itself, so an
    import, a docstring or a recursive call does not count."""
    trees = [
        ast.parse(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    ]
    defined: set[str] = set()
    referenced: set[str] = set()
    for tree in trees:
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined - referenced


# private attribute -> the one library module that may touch it
OWNERS = {"_adj": "graph.py", "_assign": "coloring.py", "_present": "coloring.py"}


def foreign_private_reads(package: Path) -> set[tuple[str, str]]:
    """(module, attribute) for each module of the package that reads a
    `Graph` adjacency or `PartialEdgeColoring` state attribute it does not
    own, so that representation stays known to one module."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in OWNERS
                and OWNERS[node.attr] != path.name
            ):
                found.add((path.name, node.attr))
    return found


def test_representations_have_one_owner():
    package = Path(kempe.__file__).parent
    assert foreign_private_reads(package) == set()


def test_a_foreign_private_read_is_found(tmp_path: Path):
    (tmp_path / "graph.py").write_text("def f(g):\n    return g._adj\n")
    (tmp_path / "structures.py").write_text(
        "def f(g, col):\n    return g._adj[0], col._present, col.graph\n"
    )
    assert foreign_private_reads(tmp_path) == {
        ("structures.py", "_adj"),
        ("structures.py", "_present"),
    }


def walk_and_solver_references(package: Path) -> set[tuple[str, str, str]]:
    """(module, top-level definition, name) for each reference to
    `kempe_walk` or `find_edge_coloring` in the package, read as in
    `unreferenced_public_names`; code outside a definition has owner ""."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in ("kempe_walk", "find_edge_coloring"):
                    found.add((path.name, owner, name))
    return found


def stray_walks(package: Path) -> set[tuple[str, str, str]]:
    """The references that bypass `classify.walk_then_search`: to
    `kempe_walk` outside coloring.py and that routine, and to either name
    in harness.py."""
    return {
        (module, owner, name)
        for module, owner, name in walk_and_solver_references(package)
        if module == "harness.py"
        or (
            name == "kempe_walk"
            and module != "coloring.py"
            and (module, owner) != ("classify.py", "walk_then_search")
        )
    }


def test_one_routine_walks_then_searches():
    """Every yes/no colorability question goes through one routine: it
    alone calls the walk, and the harness calls neither the walk nor the
    solver."""
    package = Path(kempe.__file__).parent
    assert stray_walks(package) == set()
    walks = {
        (module, owner)
        for module, owner, name in walk_and_solver_references(package)
        if name == "kempe_walk"
    }
    assert walks == {("classify.py", "walk_then_search")}


def test_a_stray_walk_is_found(tmp_path: Path):
    (tmp_path / "classify.py").write_text(
        "def walk_then_search(g, k, rng):\n"
        "    return kempe_walk(g, k, {}, [], rng, 0) or find_edge_coloring(g, k)\n\n\n"
        "def is_critical_edge(g, e):\n    return coloring.kempe_walk(g, 3)\n"
    )
    (tmp_path / "harness.py").write_text(
        '"""kempe_walk is documented here."""\n'
        "from .classify import find_edge_coloring\n\n"
        "SOLVE = find_edge_coloring\n"
    )
    assert stray_walks(tmp_path) == {
        ("classify.py", "is_critical_edge", "kempe_walk"),
        ("harness.py", "", "find_edge_coloring"),
    }


def test_no_unused_public_api():
    package = Path(kempe.__file__).parent
    assert unreferenced_public_names(package) == set(KEPT)


def test_all_names_the_package_bindings():
    """`kempe.__all__` lists each name once, every name it lists is bound,
    and every public binding of the package other than a submodule is
    listed."""
    listed = kempe.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(kempe, name)] == []
    public = {
        name
        for name, value in vars(kempe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(listed)


def test_an_unused_function_is_found(tmp_path: Path):
    """The walk counts code, not words: a name that only a docstring, an
    import or its own body mentions is unused."""
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n"
    )
    (tmp_path / "b.py").write_text(
        '"""lonely is documented here."""\n'
        "from .a import lonely, used\n\n\n"
        "class Public:\n    pass\n\n\n"
        "def _private():\n    return Public, used\n"
    )
    assert unreferenced_public_names(tmp_path) == {"lonely"}


def test_benchmark_layers_name_library_functions():
    """`benchmark/layers.py` wraps each (module, function) of `LAYERS` when
    a run is traced and fails at install on a missing name, so each one
    must resolve to a callable of the library."""
    path = Path(__file__).parent.parent / "benchmark" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module, functions in layers.LAYERS.items():
        library = importlib.import_module(module)
        for name in functions:
            assert callable(getattr(library, name, None)), (module, name)
