"""Every public function, class and class member of the package is used by the program.

A module-level name counts as used when code in `src/` or `perfbench/`
mentions it outside its own definition: as a name, an
attribute, or a string naming it (the benchmark's tracer wraps functions by
name).  A public method, property or class constant (an Enum's members
aside) of a public class counts as used when that code reads it as an
attribute, or names it in a string, outside its own definition.  A field
of a public dataclass counts as used when that code reads it as an
attribute, or names the class in a `fields(...)` call, which is how the CSV
writer reads every field as a column; building the class does not read it,
and a NamedTuple, read by unpacking, is outside this rule.  A defaulted
parameter of a public function or method counts as used when a call in
that code sets it: by keyword, by position, or through `*`/`**` unpacking.
Re-exports in `mcwave/__init__.py` and the tests do not count, so a helper
only tests reach belongs in the tests.  The closed forms and fields that the
acceptance criteria check against independent oracles are listed instead.
"""

from __future__ import annotations

import ast
from collections import Counter
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


def readings(node: ast.AST) -> Counter:
    """How often each attribute name is read, or each string named, under node."""
    return Counter(
        sub.attr if isinstance(sub, ast.Attribute) else sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        or isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def program_trees():
    """(path, syntax tree) of every program file but the package's re-exports."""
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_definition_has_a_program_caller():
    definitions: list[tuple[Path, str]] = []
    used: set[str] = set()
    for path, tree in program_trees():
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


def is_enum(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(base).endswith("Enum") for base in cls.bases)


def member_names(cls: ast.ClassDef) -> list[tuple[str, ast.stmt]]:
    """(name, definition) of a class's public methods, properties and class constants."""
    members = [(item.name, item) for item in cls.body if isinstance(item, ast.FunctionDef)]
    if not is_enum(cls):
        members += [(target.id, item) for item in cls.body if isinstance(item, ast.Assign)
                    for target in item.targets if isinstance(target, ast.Name)]
    return [(name, item) for name, item in members if not name.startswith("_")]


def test_every_public_class_member_has_a_program_reader():
    members: list[tuple[Path, str, str, ast.stmt]] = []
    read: Counter = Counter()
    for path, tree in program_trees():
        read += readings(tree)
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members += [(path, cls.name, name, item) for name, item in member_names(cls)]
    assert members
    # a member's own definition does not make it read
    unread = sorted(
        f"{path.name}:{cls}.{name}" for path, cls, name, item in members
        if read[name] == readings(item)[name]
    )
    assert not unread, f"public members no program path reads: {unread}"


#: fields only a check reads: the chain's stationary law (criterion 01)
FIELDS_ALLOWED = {
    "StationaryDistribution.occupancy",
    "StationaryDistribution.idle",
}


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def called_name(call: ast.Call) -> str | None:
    """The name a call calls: `f(...)` and `x.f(...)` both call f."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_public_dataclass_field_has_a_program_reader():
    fields: list[str] = []
    read: set[str] = set()
    rendered: set[str] = set()   # classes named in a fields(...) call
    for path, tree in program_trees():
        read |= {
            sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        }
        rendered |= {
            sub.args[0].id for sub in ast.walk(tree)
            if isinstance(sub, ast.Call) and called_name(sub) == "fields"
            and sub.args and isinstance(sub.args[0], ast.Name)
        }
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_") and is_dataclass(cls):
                fields += [
                    f"{cls.name}.{item.target.id}" for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    assert fields
    unread = sorted(
        name for name in fields
        if name.split(".")[1] not in read and name.split(".")[0] not in rendered
        and name not in FIELDS_ALLOWED
    )
    assert not unread, f"dataclass fields no program path reads: {unread}"
    assert not FIELDS_ALLOWED - set(fields), "allowlist names a missing field"
    assert not {n for n in FIELDS_ALLOWED if n.split(".")[1] in read}, "allowlisted field is read"


#: the console entry point: the installed script calls it with no argument,
#: and the tests pass `argv`
PARAMETERS_ALLOWED = {"cli.py:main(argv)"}


def test_every_defaulted_parameter_is_set_by_a_program_call():
    defaulted: list[tuple[str, str, int, bool]] = []   # (function, parameter, position, method)
    calls: dict[str, list[ast.Call]] = {}
    for path, tree in program_trees():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call) and called_name(sub):
                calls.setdefault(called_name(sub), []).append(sub)
        if path.parent != PACKAGE:
            continue
        scopes = [(node, False) for node in tree.body] + [
            (item, True) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for item in cls.body
        ]
        for fn, method in scopes:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args, function = fn.args, f"{path.name}:{fn.name}"
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted += [(function, arg.arg, i, method)
                          for i, arg in enumerate(positional) if i >= first]
            defaulted += [(function, arg.arg, -1, method)
                          for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
    assert defaulted

    def sets(call: ast.Call, name: str, index: int, method: bool) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(kw.arg is None or kw.arg == name for kw in call.keywords):
            return True
        # a method called on an instance takes self from the instance
        return 0 <= index - method < len(call.args)

    unset = sorted(
        f"{function}({name})" for function, name, index, method in defaulted
        if not any(sets(call, name, index, method) for call in calls.get(function.split(":")[1], ()))
        and f"{function}({name})" not in PARAMETERS_ALLOWED
    )
    assert not unset, f"defaulted parameters no program call sets: {unset}"
    names = {f"{function}({name})" for function, name, _index, _method in defaulted}
    assert not PARAMETERS_ALLOWED - names, "allowlist names a missing parameter"


def test_every_import_is_named_again():
    # a name a module imports and never names again is dead; the package's
    # re-exports are outside program_trees, and `__future__` imports name features
    unused = []
    for path, tree in program_trees():
        named = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        named |= {sub.value for sub in ast.walk(tree)
                  if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in named:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}:{bound}")
    assert not unused, f"imports never named again: {unused}"
