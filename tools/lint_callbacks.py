#!/usr/bin/env python
"""Lint: wiring must go through repro.netsim.ports, not callback attributes.

The component-and-port layer made inter-component wiring explicit: every
connection is a pair of typed ports joined by ``connect()``.  The old
style — reaching into another object and assigning a callback attribute
(``end._receiver = cb``) or calling one of the deprecated shim methods —
bypasses protocol validation and hides the wiring again, so this lint
bans it in ``src/repro`` (tests may still exercise the shims; they double
as back-compat coverage).

Rules, enforced by AST walk:

1. no assignment of a callback-ish attribute (``handler``, ``callback``,
   ``receiver`` and underscore variants) on any object other than
   ``self`` — storing *your own* constructor argument is fine, wiring
   someone else's inbox is not;
2. no calls to the deprecated shim methods ``register_handler`` /
   ``attach_channel``.

``repro/netsim/ports.py`` is exempt: it is the one place allowed to touch
``Port.handler``.

Usage::

    python tools/lint_callbacks.py [src/repro]
"""

from __future__ import annotations

import ast
import pathlib
import sys

BANNED_ATTRS = frozenset({
    "handler", "_handler", "handlers", "_handlers",
    "callback", "_callback", "receiver", "_receiver",
})
BANNED_CALLS = frozenset({"register_handler", "attach_channel"})
ALLOWED_FILES = frozenset({"netsim/ports.py"})


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    if rel in ALLOWED_FILES:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []

    def report(node: ast.AST, message: str) -> None:
        problems.append(f"{path}:{node.lineno}: {message}")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in BANNED_ATTRS
                        and not _is_self(target.value)):
                    report(node,
                           f"direct callback-attribute assignment "
                           f"'.{target.attr} = ...' — wire through "
                           f"repro.netsim.ports.connect() instead")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in BANNED_CALLS:
                report(node,
                       f"call to deprecated shim '.{func.attr}()' — wire "
                       f"through repro.netsim.ports.connect() instead")
    return problems


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/repro")
    if not root.is_dir():
        print(f"lint_callbacks: no such directory: {root}", file=sys.stderr)
        return 2
    problems = []
    for path in sorted(root.rglob("*.py")):
        problems.extend(check_file(path, root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_callbacks: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_callbacks: OK ({root})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
