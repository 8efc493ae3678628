"""Every name a module exports is read somewhere in the package.

A name in a module's ``__all__`` that no code in ``src/`` reads, outside its
own definition, is reached by tests alone.  Such names are listed in
``NOT_YET_PLACED`` until they get a caller or leave the package; the list
may only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path

import imbilliards

SRC = Path(imbilliards.__file__).resolve().parent

#: exported names that no code in the package reads yet
NOT_YET_PLACED = {
    ("stability", "classify2_general"),
    ("stability", "billiard_trace2"),
    ("stability", "stability_matrix"),
    ("families", "parabolic_roots"),
    ("families", "superellipse_diag_tangential"),
    ("families", "find_periodic_newton"),
    ("rotation", "rot_lambda"),
    ("rotation", "caustic_kind"),
    ("rotation", "limiting_rotation"),
    ("rotation", "confocal_param"),
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _reads(node: ast.AST) -> set[str]:
    """The names and attributes ``node`` reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each top-level name of a module and the statement that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return defined


def _unplaced() -> set[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # (module, top-level statement, the names it reads)
    statements = [(module, node, _reads(node)) for module, tree in trees.items() for node in tree.body]
    unplaced = set()
    for module, tree in trees.items():
        definitions = _definitions(tree)
        for name in _exports(tree):
            own = definitions.get(name)
            if not any(name in reads for other, node, reads in statements
                       if not (other == module and node is own)):
                unplaced.add((module, name))
    return unplaced


def test_every_exported_name_is_read_in_the_package_or_listed():
    unplaced = _unplaced()
    assert unplaced <= NOT_YET_PLACED, sorted(unplaced - NOT_YET_PLACED)


def test_the_unplaced_list_holds_only_unplaced_names():
    """A name that gained a caller, or left the package, leaves the list."""
    assert NOT_YET_PLACED <= _unplaced(), sorted(NOT_YET_PLACED - _unplaced())
