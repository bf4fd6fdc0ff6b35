"""Options pay rent: a config field, a defaulted parameter or a function
stays only while program code uses it.

Every field of a ``*Config`` dataclass under ``src/repro`` must be set
somewhere in ``src/`` outside its own class body: as a keyword of a
call to the class itself, a keyword of ``replace(...)`` or of
``dict(...)`` (a bundle splatted into a config), or an attribute store
on anything but ``self``.  The last three match by field name alone; a
``self.<name> = ...`` store outside the class sets some other object's
attribute of the same name, never a config's.  Setters in tests and
examples do not count.  A field the program never sets is a constant
with the cost of an option -- every on/off knob doubles the
configurations tests must cover -- so it belongs in an ALL_CAPS module
constant next to the code that reads it, which a test that needs
another value monkeypatches (docs/ARCHITECTURE.md, "Options pay rent").

The same rule covers defaulted parameters and whole functions; see the
second half of this file.
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
                  and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) != "self"):
                sets.append((ANY_CLASS, node.attr, path, node.lineno))

    assert len(fields) > 40, "the scan found no config dataclasses"
    unset = sorted(
        f"{cls}.{name}" for (cls, name), (home, first, last) in fields.items()
        if not any(owner in (cls, ANY_CLASS) and attr == name
                   and not (path == home and first <= line <= last)
                   for owner, attr, path, line in sets))
    assert not unset, ("config fields that no caller sets; make each an "
                       f"ALL_CAPS module constant: {unset}")


# -- parameters and functions ------------------------------------------------
#
# The same rule for the rest of the program.  A defaulted parameter stays
# only while a call in program code that names its function sets it, by
# keyword or by position; a function or method stays only while program
# code names it.  Program code is ``src/`` plus the benchmark harness
# under ``perfbench/``, its own tests included: it drives the
# experiments by keyword, and a change that claims a speedup may not
# edit it, so what it passes has to keep working.  Names match by
# spelling alone, so a shared name can hide a dead one; a method counts
# as named only through an attribute (``x.name``) or a string, never a
# bare name, which is a local or a module-level name of the same
# spelling.  ``repro.lint`` is left out: its visitors are dispatched by
# the names of AST node types.

PROGRAM = ("src", "perfbench")
DEFINITIONS = ROOT / "src" / "repro"
OUT_OF_SCOPE = DEFINITIONS / "lint"
CLI = DEFINITIONS / "cli.py"

#: Parameters only ``examples/`` sets, each with the reason it stays.
EXAMPLE_PARAMETERS = {
    ("wire_timeline", "since"):
        "examples/wire_timeline.py zooms onto the image serves",
    ("wire_timeline", "until"):
        "examples/wire_timeline.py zooms onto the image serves",
    ("run_fingerprinting", "n_pages"):
        "examples/fingerprint_ml.py runs a smaller closed world",
    ("run_fingerprinting", "loads_per_page"):
        "examples/fingerprint_ml.py runs a smaller closed world",
}

#: Functions no program code names, each with the reason it stays.
UNNAMED_FUNCTIONS = {
    "wire_timeline": "entry point of examples/wire_timeline.py",
    "degree_summary": "entry point of examples/wire_timeline.py",
    "padding_overhead": "entry point of examples/defense_eval.py",
    "uniform_delay_config": "entry point of examples/network_conditions.py",
    "all_correct": "read by examples/attack_isidewith.py",
    "save_trace": "writes the capture file a session event log joins "
                  "to on pid (ROADMAP item 2(a))",
    "load_trace": "reads back the capture file save_trace writes",
}


def _program():
    return [(path, ast.parse(path.read_text(), str(path)))
            for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))]


def _definitions(program):
    """Module functions and methods under src/repro outside repro.lint,
    as ``(path, class or None, function)``."""
    for path, tree in program:
        if DEFINITIONS not in path.parents or OUT_OF_SCOPE in path.parents:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield path, None, node
            elif isinstance(node, ast.ClassDef):
                yield from ((path, node, item) for item in node.body
                            if isinstance(item, ast.FunctionDef))


def _callee(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _call_sets(call: ast.Call):
    """``(positions, whether a *args sets every later one, keywords)``
    a call sets."""
    starred = [i for i, arg in enumerate(call.args)
               if isinstance(arg, ast.Starred)]
    return (starred[0] if starred else len(call.args),
            bool(starred), {kw.arg for kw in call.keywords if kw.arg})


def _dest(add_argument: ast.Call) -> str:
    """The namespace attribute an ``add_argument`` call fills."""
    for keyword in add_argument.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    return add_argument.args[0].value.lstrip("-").replace("-", "_")


def _artefact_calls(tree):
    """The calls ``cli._run_artefact`` makes to each ``ARTEFACTS`` entry
    point: ``_add_common``'s arguments by position (when the row has a
    default ``-n``), ``_runner_kwargs``'s keys and the row's own
    ``--options`` by keyword."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    rows = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "ARTEFACTS")
    common = sum(1 for node in ast.walk(functions["_add_common"])
                 if isinstance(node, ast.Call)
                 and _callee(node) == "add_argument")
    runner = {key.value for node in ast.walk(functions["_runner_kwargs"])
              if isinstance(node, ast.Return)
              for key in node.value.keys}
    own = {}  # subcommand -> dests added under ``if name == "..."``
    for node in ast.walk(functions["build_parser"]):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.comparators[0], ast.Constant)):
            own.setdefault(node.test.comparators[0].value, set()).update(
                _dest(call) for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and _callee(call) == "add_argument")
    return [(entry.split(":")[1], common if default_n else 0, False,
             runner | own.get(name, set()))
            for name, default_n, entry, _help in rows]


def _settings(program):
    """Function name -> ``(positions set, any *args, keywords set)`` over
    every call in program code.  A function that takes ``**name`` passes
    the keywords it does not declare on to each call that splats
    ``**name``, as the experiment entry points do to ``run_grid``."""
    positions, starred, keywords = {}, set(), {}

    def add(name, count, star, words):
        positions[name] = max(positions.get(name, 0), count)
        if star:
            starred.add(name)
        keywords.setdefault(name, set()).update(words)

    forwards = []  # (function, its calls that splat its ``**`` name)
    for path, tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                add(_callee(node), *_call_sets(node))
            elif (isinstance(node, ast.FunctionDef) and node.args.kwarg):
                forwards.append((node, [
                    call for call in ast.walk(node)
                    if isinstance(call, ast.Call) and any(
                        kw.arg is None and getattr(kw.value, "id", None)
                        == node.args.kwarg.arg for kw in call.keywords)]))
        if path == CLI:
            for call in _artefact_calls(tree):
                add(*call)
    changed = True
    while changed:
        changed = False
        for function, calls in forwards:
            declared = {arg.arg for arg in function.args.args
                        + function.args.kwonlyargs}
            passed = keywords.get(function.name, set()) - declared
            for call in calls:
                before = len(keywords.get(_callee(call), ()))
                add(_callee(call), 0, False, passed)
                changed |= len(keywords[_callee(call)]) > before
    return positions, starred, keywords


def test_every_defaulted_parameter_is_set_by_a_caller():
    program = _program()
    positions, starred, keywords = _settings(program)
    defaulted, unset = 0, []
    for path, cls, function in _definitions(program):
        name = (cls.name if cls is not None and function.name == "__init__"
                else function.name)
        bound = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in function.decorator_list)
        args = function.args
        params = args.posonlyargs + args.args
        first = len(params) - len(args.defaults)
        candidates = [(index - bound, params[index].arg)
                      for index in range(first, len(params))]
        candidates += [(None, arg.arg) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
        for position, param in candidates:
            defaulted += 1
            if (param in keywords.get(name, ())
                    or position is not None
                    and (position < positions.get(name, 0)
                         or name in starred)
                    or (function.name, param) in EXAMPLE_PARAMETERS):
                continue
            unset.append(f"{path.relative_to(ROOT)}:{function.lineno} "
                         f"{name}({param})")
    assert defaulted > 100, "the scan found no defaulted parameters"
    assert not unset, ("defaulted parameters that no program call sets; "
                       "delete each with the branch it selects, or make it "
                       f"an ALL_CAPS module constant: {unset}")


def _exported(tree):
    """The string constants of ``__all__`` assignments: a re-export
    names a function without using it."""
    return {id(constant) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__"
                    for target in node.targets)
            for constant in ast.walk(node.value)}


def test_every_function_is_named_by_program_code():
    program = _program()
    bare, qualified = set(), set()  # names as ``name``; as ``x.name``, "name"
    for _path, tree in program:
        exported = _exported(tree)
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                qualified.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and " " not in node.value):  # getattr names, "mod:func"
                qualified.update(node.value.replace(":", ".").split("."))
    unnamed = sorted(
        f"{path.relative_to(ROOT)}:{function.lineno} {function.name}"
        for path, cls, function in _definitions(program)
        if not (function.name.startswith("__")
                and function.name.endswith("__"))
        and function.name not in qualified | set(UNNAMED_FUNCTIONS)
        and (cls is not None or function.name not in bare))
    assert not unnamed, ("functions no program code names; delete each with "
                         f"the tests that only it served: {unnamed}")
