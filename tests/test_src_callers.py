"""Every definition under src/ has a caller under src/, or a stated reason.

A function or class counts as called when its name appears in another
part of the package: as a name, an attribute or an import.  A method,
defined in a class body, is reached through its object, so it counts as
called only when its name is read as an attribute (`.name`); a local
variable of the same name does not hide it.  Names inside its own body
(recursion) do not count.  Attributes are matched bare, so a method
still escapes the check whenever an attribute of the same name is read
on another object (a test-only `rank` method on one class hides behind
`rank` read on another); such methods must be found by reading their
callers.  The allowlist holds the names whose only
callers live outside src/, one reason each; it must stay exact, so a
name that is gone or that gains a caller under src/ fails here too.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ellfib"

CRITERIA = "acceptance criteria 6 and 9 call it"
ALLOWED = {
    "tensor_line": CRITERIA,
    "dual_bundle": CRITERIA,
    "direct_sum": CRITERIA,
    "translate_skyscraper": CRITERIA,
    "total_length": CRITERIA,
    "with_degree": CRITERIA,
    "parse_divisor": CRITERIA,
    "divisor_json": CRITERIA,
    "gerbe_json": CRITERIA,
    "section_doc_json": CRITERIA,
    "leray_betti": "perfbench/tracing.py wraps it",
    "solve_integer": "perfbench/tracing.py wraps it",
    "ring_to_dict": "tools/make_presets.py writes the presets with it",
}


def _names(node) -> tuple[Counter, Counter]:
    """How often each name is mentioned below node, and how often as an attribute."""
    seen, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
            attributes[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            seen[sub.name.rpartition(".")[2]] += 1
            if sub.asname:
                seen[sub.asname] += 1
    return seen, attributes


def uncalled() -> dict[str, str]:
    """name -> "file:line" for each non-dunder definition named nowhere else under src/
    (a method: read as an attribute nowhere else)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    named, read = Counter(), Counter()
    for tree in trees.values():
        seen, attributes = _names(tree)
        named += seen
        read += attributes
    found = {}
    for path, tree in trees.items():
        methods = {
            id(item)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own, own_attributes = _names(node)
            if id(node) in methods:
                calls = read[name] - own_attributes[name]
            else:
                calls = named[name] - own[name]
            if calls == 0:
                found[name] = f"{path.relative_to(SRC.parent)}:{node.lineno}"
    return found


def test_every_definition_has_a_caller_under_src():
    extra = {name: where for name, where in uncalled().items() if name not in ALLOWED}
    assert not extra, f"only tests (or nothing) call these: {extra}"


def test_the_allowlist_is_exact():
    found = uncalled()
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"gone, or called under src/ now; drop from ALLOWED: {stale}"


def self_referring_inner_functions() -> dict[str, str]:
    """name -> "file:line" of each function under src/ that is defined inside
    another function and names itself: its closure cell holds the function, a
    reference cycle that keeps whatever the closure sees alive after the call,
    until the cyclic collector runs."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _names(inner)[0][inner.name]:
                    found[inner.name] = f"{path.relative_to(SRC.parent)}:{inner.lineno}"
    return found


def test_no_inner_function_refers_to_itself():
    found = self_referring_inner_functions()
    assert not found, f"inner functions that name themselves (a reference cycle): {found}"


# Underscore names that one module under src/ imports from another, one
# reason each.  The list is exact: a new private import fails here, and so
# does a name that is no longer imported.
PRIVATE_IMPORTS = {
    ("cli.py", "_check_budget"): "roundtrip refuses an over-budget request before any work",
    ("cli.py", "_require_dict"): "each verb checks its document's keys as the schema readers do",
    ("transform.py", "_block_runs"): "the transform reads a bundle's canonical block runs",
    ("transform.py", "_point"): "the sort key of the point multisets",
}


def private_imports() -> dict[tuple[str, str], int]:
    """(file, name) -> line of each underscore name a file under src/ imports
    from the package (dunder names aside)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("ellfib"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.setdefault((path.relative_to(SRC).as_posix(), alias.name), node.lineno)
    return found


def test_no_module_imports_a_private_name_of_another():
    found = private_imports()
    new = {key: line for key, line in found.items() if key not in PRIVATE_IMPORTS}
    assert not new, f"private names imported across modules (file, name): line {new}"
    stale = sorted(set(PRIVATE_IMPORTS) - set(found))
    assert not stale, f"no longer imported; drop from PRIVATE_IMPORTS: {stale}"
