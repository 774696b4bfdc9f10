"""The library holds only code that runs: every public function, class and
method it defines is named by some library module.

The check reads the source, not the imported package.  A use is a name, an
attribute or a ``from`` import anywhere in ``src/hdopt`` outside
``__init__.py``; its re-exports and docstrings do not count, so an entry
point that only tests call fails here.  A method or property is used only
through an attribute (``obj.name``): a local variable of the same name is
not a use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hdopt"


def _public_definitions(tree):
    """(qualified name, bare name, is a method) of each public module-level
    function or class, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _uses(tree):
    """(name, is an attribute) of each use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, False) for alias in node.names)


def test_every_public_library_name_is_used_by_the_library():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    uses = {use for stem, tree in modules.items() if stem != "__init__" for use in _uses(tree)}
    used = {name for name, _ in uses}
    unused = [f"{stem}.{qualified}" for stem, tree in modules.items()
              for qualified, name, method in _public_definitions(tree)
              if ((name, True) not in uses if method else name not in used)]
    assert not unused, f"public names no library module uses: {unused}"


def _imported_names(tree):
    """The names the module's imports bind, but ``__future__`` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_library_module_imports_a_name_it_does_not_use():
    # __init__.py imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.stem}.{name}" for name in _imported_names(tree) if name not in names]
    assert not unused, f"imported names their module does not use: {unused}"
