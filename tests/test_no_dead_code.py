"""Every public function and class of the package is used by the program.

A module-level name counts as used when code in `src/`, `scripts/` or
`perfbench/` mentions it outside its own definition: as a name, an
attribute, or a string naming it (the benchmark's tracer wraps functions by
name).  Re-exports in `mcwave/__init__.py` and the tests do not count, so a
helper only tests reach belongs in the tests.  The closed forms that the
acceptance criteria check against independent oracles are listed instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcwave"

#: the chain's stationary law (criterion 01), the mean queue length beside
#: the queueing delay (criterion 03, and the birth-death oracle of the
#: analytics tests), and the power law the range tests solve against
ALLOWED = {
    "stationary_distribution",
    "expected_queue_length",
    "received_power_db",
}


def mentions(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_public_definition_has_a_program_caller():
    definitions: list[tuple[Path, str]] = []
    used: set[str] = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if path.parent == PACKAGE and not node.name.startswith("_"):
                        definitions.append((path, node.name))
                    # a definition's own body does not make it used
                    used |= mentions(node) - {node.name}
                else:
                    used |= mentions(node)
    assert definitions
    unused = sorted(
        f"{path.name}:{name}" for path, name in definitions
        if name not in used and name not in ALLOWED
    )
    assert not unused, f"public names no program path reaches: {unused}"
    assert not ALLOWED - {name for _, name in definitions}, "allowlist names a missing definition"
