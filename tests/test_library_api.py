"""The library has no unused public API: every public top-level function
and class of `kempe` is referenced by other library code, or is listed in
`KEPT` with the reason it stays. And each private representation, a
graph's adjacency and a coloring's state, is read by its own module only."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import kempe

# name -> why it stays without a library caller
KEPT = {
    "parse_coloring": "reads back the colorings in counterexample records",
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


def test_no_unused_public_api():
    package = Path(kempe.__file__).parent
    assert unreferenced_public_names(package) == set(KEPT)


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
