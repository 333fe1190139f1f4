"""No library code that only the tests run.

Every public top-level function or class in ``src/ttckit`` must be named
somewhere a user reaches: the library itself, a demo, or the benchmark
harness.  A reference is an AST name or attribute with the same spelling;
perfbench also names what it wraps in dotted strings such as
``"FrameSample.load_image"``, and each part of such a string counts.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "ttckit"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.Module, with_strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def _public_definitions() -> list[tuple[str, str]]:
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append((path.stem, node.name))
    return found


def test_every_public_library_name_has_a_caller_outside_the_tests():
    callers = set()
    for path in [*LIBRARY.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        callers |= _referenced(_parse(path), with_strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            callers |= _referenced(_parse(path), with_strings=True)
    orphans = [f"{module}.{name}" for module, name in _public_definitions()
               if name not in callers]
    assert orphans == [], f"public names no library code, demo or benchmark uses: {orphans}"
