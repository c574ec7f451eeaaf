"""Every definition under src/ has a caller under src/, or a stated reason.

A function, class or method counts as called when its name appears in
another part of the package: as a name, an attribute or an import.
Names inside its own body (recursion) do not count.  Names are matched
bare, so a method escapes the check whenever another definition or
attribute under src/ shares its name (a test-only `rank` method on one
class hides behind `rank` read on another); such methods must be found
by reading their callers.  The allowlist holds the names whose only
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
    "constant_family": "the paper's constant family, checked against gamma_map",
    "ring_to_dict": "tools/make_presets.py writes the presets with it",
    "make_graded": "the checked GradedClass constructor the multiset tests pin",
}


def _names(node) -> Counter:
    """How often each name is mentioned below node."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            seen[sub.name.rpartition(".")[2]] += 1
            if sub.asname:
                seen[sub.asname] += 1
    return seen


def uncalled() -> dict[str, str]:
    """name -> "file:line" for each non-dunder definition named nowhere else under src/."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    found = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if named[name] - _names(node)[name] == 0:
                found[name] = f"{path.relative_to(SRC.parent)}:{node.lineno}"
    return found


def test_every_definition_has_a_caller_under_src():
    extra = {name: where for name, where in uncalled().items() if name not in ALLOWED}
    assert not extra, f"only tests (or nothing) call these: {extra}"


def test_the_allowlist_is_exact():
    found = uncalled()
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"gone, or called under src/ now; drop from ALLOWED: {stale}"
