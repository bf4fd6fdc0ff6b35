"""Options pay rent: a config field stays only while program code sets it.

Every field of a ``*Config`` dataclass under ``src/repro`` must be set
somewhere in ``src/`` outside its own class body: as a keyword of a
call to the class itself, a keyword of ``replace(...)`` or of
``dict(...)`` (a bundle splatted into a config), or an attribute store.
The last three match by field name alone.  Setters in tests and
examples do not count.  A field the program never sets is a constant
with the cost of an option -- every on/off knob doubles the
configurations tests must cover -- so it belongs in an ALL_CAPS module
constant next to the code that reads it, which a test that needs
another value monkeypatches (docs/ARCHITECTURE.md, "Options pay rent").
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPE = ("src",)
ANY_CLASS = "*"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_config_field_is_set_by_a_caller():
    trees = [(path, ast.parse(path.read_text(), str(path)))
             for top in SCOPE for path in sorted((ROOT / top).rglob("*.py"))]
    fields = {}
    sets = []  # (class the store targets, field, path, line)
    for path, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
                    and _is_dataclass(node)
                    and (ROOT / "src" / "repro") in path.parents):
                fields.update(((node.name, stmt.target.id),
                               (path, node.lineno, node.end_lineno))
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                owner = ANY_CLASS if callee in ("replace", "dict") else callee
                sets.extend((owner, kw.arg, path, node.lineno)
                            for kw in node.keywords if kw.arg)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                sets.append((ANY_CLASS, node.attr, path, node.lineno))

    assert len(fields) > 50, "the scan found no config dataclasses"
    unset = sorted(
        f"{cls}.{name}" for (cls, name), (home, first, last) in fields.items()
        if not any(owner in (cls, ANY_CLASS) and attr == name
                   and not (path == home and first <= line <= last)
                   for owner, attr, path, line in sets))
    assert not unset, ("config fields that no caller sets; make each an "
                       f"ALL_CAPS module constant: {unset}")
