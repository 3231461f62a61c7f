"""The parameter census as a guard: every defaulted field has a setter.

A defaulted field of a configuration dataclass under ``src/repro`` is a
settable value.  It stays only if code outside ``tests/`` sets it (by
keyword, by position, or through an ``ExperimentConfig.from_dict``
document), or if ROADMAP's standing table "Kept without a non-test
setter" gives it a row.  Everything else is a named constant in the module
that uses it.  This test scans ``src/``, ``benchmarks/``, ``examples/``
and ``tools/`` with :mod:`ast` and fails on a field that has neither.

Records the program fills itself (results, events, spans, jobs) are not
settings; :data:`NOT_SETTINGS` names them, and ``ExperimentConfig``, whose
fields are the document's sections (``tests/test_config.py`` pins their
keys).
"""

from __future__ import annotations

import ast

from tests.census import PACKAGE, ROOT, SCANNED, roadmap_table, trees

#: Dataclasses whose defaulted fields are not settings: records the program
#: fills itself (counters, timings, states), and the experiment document,
#: whose fields are its sections.
NOT_SETTINGS = frozenset({
    "EngineResult",
    "ExperimentConfig",
    "ForecastResult",
    "Job",
    "Node",
    "RunLog",
    "SerialTimings",
    "Span",
    "TaskOutcome",
    "TelemetryEvent",
    "WorkflowResult",
    "_Launched",
})

#: Fields kept without a setter outside ``tests/``: the rows of ROADMAP's
#: standing table, which gives each one's reason
#: (``test_seams_match_the_roadmap_table``).  ``Class.*`` is every field.
KEPT_SEAMS = frozenset({
    "AssimilationSection.*",
    "ESSESection.growth_factor",
    "ModelSection.dt",
    "RetryPolicy.timeout_seconds",
})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _literal(node):
    """The value of a literal expression, or a marker no value equals."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return _NOT_LITERAL


_NOT_LITERAL = object()


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool, object]]:
    """``(name, has_default, default literal)`` for each ``__init__`` field."""
    out = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = _literal(kw["default"]) if "default" in kw else _NOT_LITERAL
            out.append((stmt.target.id, "default" in kw or "default_factory" in kw, default))
        else:
            default = _NOT_LITERAL if value is None else _literal(value)
            out.append((stmt.target.id, value is not None, default))
    return out


def dataclass_fields() -> dict[str, tuple[str, list[tuple[str, bool]]]]:
    """``class -> (file, init fields)`` for every dataclass under ``src/repro``."""
    found = {}
    for path, tree in trees(["src/repro"]):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found[node.name] = (str(path.relative_to(PACKAGE.parent)), _init_fields(node))
    return found


def _calls(tree: ast.AST):
    """``(call, callee name)`` for every call; ``cls(...)`` names its class."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                yield child, owner if name == "cls" else name
            yield from walk(child, owner)

    yield from walk(tree, None)


def setters(roots, classes) -> dict[str, list[str]]:
    """``"Class.field" -> [call sites]`` that set the field under ``roots``.

    A call to the class by name (or as an attribute, or as ``cls`` in its
    own methods) sets each field it names by keyword and each field its
    positional arguments reach, unless the value is the field's own literal
    default.  A configuration section's field is also
    set by a ``from_dict`` document: a dict literal under the section's
    key, or passed as a keyword named after the section.
    """
    sections = {name.removesuffix("Section").lower(): name
                for name in classes if name.endswith("Section")}
    found: dict[str, list[str]] = {}

    def hit(cls, name, where, value=None):
        defaults = {field: default for field, _, default in classes[cls][1]}
        literal = _NOT_LITERAL if value is None else _literal(value)
        if literal is not _NOT_LITERAL and literal == defaults.get(name, _NOT_LITERAL):
            return
        found.setdefault(f"{cls}.{name}", []).append(where)

    def document(section, value, where):
        if section in sections and isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if isinstance(key, ast.Constant):
                    hit(sections[section], key.value, where, item)

    for path, tree in trees(roots):
        rel = str(path.relative_to(ROOT))
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant):
                        document(key.value, value, f"{rel}:{node.lineno}")
        for call, cls in _calls(tree):
            where = f"{rel}:{call.lineno}"
            for kw in call.keywords:
                if kw.arg is not None:
                    document(kw.arg, kw.value, where)
            if cls not in classes:
                continue
            names = [name for name, _, _ in classes[cls][1]]
            positional = [a for a in call.args if not isinstance(a, ast.Starred)]
            for name, value in zip(names, positional):
                hit(cls, name, where, value)
            for kw in call.keywords:
                if kw.arg in names:
                    hit(cls, kw.arg, where, kw.value)
    return found


def census(roots=None):
    """``[(class, field, file, call sites)]`` for every defaulted field."""
    classes = dataclass_fields()
    sites = setters(roots or SCANNED, classes)
    return [
        (cls, name, path, sites.get(f"{cls}.{name}", []))
        for cls, (path, fields) in sorted(classes.items())
        if cls not in NOT_SETTINGS
        for name, has_default, _ in fields
        if has_default
    ]


def _kept(cls: str, name: str) -> bool:
    return f"{cls}.{name}" in KEPT_SEAMS or f"{cls}.*" in KEPT_SEAMS


def test_every_defaulted_field_has_a_setter_or_a_kept_row():
    unset = [f"{cls}.{name} ({path})" for cls, name, path, sites in census()
             if not sites and not _kept(cls, name)]
    assert not unset, (
        "defaulted fields that no code outside tests/ sets; make each a "
        "named constant, delete it, or give it a row in ROADMAP's standing "
        "table and in KEPT_SEAMS:\n  " + "\n  ".join(unset)
    )


def test_kept_seams_are_still_unset_fields():
    """A kept row that gained a setter, or lost its field, is stale."""
    rows = {f"{cls}.{name}": sites for cls, name, _, sites in census()}
    for key in KEPT_SEAMS:
        cls, name = key.split(".")
        matching = [k for k in rows if k == key or (name == "*" and k.startswith(cls + "."))]
        assert matching, f"{key}: no such defaulted field"
        assert not all(rows[k] for k in matching), f"{key}: now set outside tests"


def test_excluded_classes_are_dataclasses_with_defaults():
    classes = dataclass_fields()
    for name in NOT_SETTINGS:
        assert any(has_default for _, has_default, _ in classes[name][1]), name


def test_seams_match_the_roadmap_table():
    assert roadmap_table("| Kept without a non-test setter | Why |") == KEPT_SEAMS
