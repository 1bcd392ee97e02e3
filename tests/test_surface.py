"""The public surface of the package is reached from the package itself.

A public module-level function or class, or a public method, that no code
in src/blocklab names outside its own definition serves only the tests;
such a reference belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blocklab"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(tree, module, defined, named):
    """Record the public definitions of one module in `defined` (name ->
    qualified names) and every identifier it names in `named`, skipping a
    name inside its own definition."""
    def visit(node, enclosing, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                public = not child.name.startswith("_")
                if owner is not None and public:
                    defined.setdefault(child.name, []).append(
                        ".".join([module, *owner, child.name]))
                # methods of module-level classes are tracked, nothing deeper
                inner = ([child.name] if not owner and isinstance(child, ast.ClassDef)
                         else None)
                visit(child, enclosing | {child.name}, inner)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else child.name if isinstance(child, ast.alias) else None)
            if name is not None and name not in enclosing:
                named.add(name)
            visit(child, enclosing, owner)

    visit(tree, frozenset(), [])


def unreached_names(src=SRC) -> list[str]:
    defined, named = {}, set()
    for path in sorted(Path(src).glob("*.py")):
        _scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, defined, named)
    return sorted(q for name, qualified in defined.items() if name not in named
                  for q in qualified)


def test_every_public_name_is_reached_from_src():
    assert unreached_names() == []


def test_scan_flags_a_name_only_its_own_definition_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "class Box:\n"
        "    def open(self):\n        return self.close()\n\n"
        "    def close(self):\n        return used()\n\n"
        "    def _private(self):\n        return 0\n")
    # Box and open are named nowhere, lonely only inside itself
    assert unreached_names(tmp_path) == ["mod.Box", "mod.Box.open", "mod.lonely"]
