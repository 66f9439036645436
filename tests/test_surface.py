"""Every public library function and class has a caller outside the unit tests.

References are counted by name in the library itself, the demos, ``bench/``,
the acceptance suite and the shared fixtures.  A name's own definition and
the package ``__init__`` re-export do not count, so a function that only unit
tests call fails here: it belongs in the test file that uses it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "penning_chain"
CALLER_FILES = (
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
)
# Public names kept for the callers that open ROADMAP items give them.
AWAITING_CALLERS = frozenset({"spin_shift", "delta_s", "transition_probabilities"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions() -> dict[str, str]:
    """Top-level public function and class names of the package, with their module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, defines) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def reference_counts() -> Counter:
    """Uses of each name, outside the top-level statement that defines it."""
    counts = Counter()
    for path in CALLER_FILES:
        if path.name == "__init__.py" and path.parent == PACKAGE:
            continue
        for stmt in _parse(path).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    counts[name] += 1
    return counts


def test_every_public_name_has_a_caller_outside_unit_tests():
    counts = reference_counts()
    orphans = sorted(
        f"{module}.{name}"
        for name, module in public_definitions().items()
        if counts[name] == 0 and name not in AWAITING_CALLERS
    )
    assert orphans == []


def test_names_awaiting_callers_still_exist():
    assert AWAITING_CALLERS <= set(public_definitions())
