"""No library code that only the tests run.

Every public top-level function or class in ``src/ttckit`` must be named
somewhere a user reaches: the library itself, a demo, or the benchmark
harness.  Every private top-level function, class and module constant
must be named by the library or a demo.  A reference is an AST name read
(not assigned) or an attribute with the same spelling; perfbench also
names what it wraps in dotted strings such as ``"FrameSample.load_image"``,
and each part of such a string counts.
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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def _definitions(private: bool) -> list[tuple[str, str]]:
    """(module, name) of the public top-level functions and classes, or of
    the private ones and the private module constants."""
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif private and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            found += [(path.stem, name) for name in names
                      if name.startswith("_") == private and not name.startswith("__")]
    return found


def _library_and_demo_names() -> set[str]:
    callers = set()
    for path in [*LIBRARY.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        callers |= _referenced(_parse(path), with_strings=False)
    return callers


def test_every_public_library_name_has_a_caller_outside_the_tests():
    callers = _library_and_demo_names()
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            callers |= _referenced(_parse(path), with_strings=True)
    orphans = [f"{module}.{name}" for module, name in _definitions(private=False)
               if name not in callers]
    assert orphans == [], f"public names no library code, demo or benchmark uses: {orphans}"


def test_every_private_library_name_has_a_caller_in_the_library_or_a_demo():
    callers = _library_and_demo_names()
    definitions = _definitions(private=True)
    assert ("sampling", "_GROUP_VALUES") in definitions  # constants are scanned too
    orphans = [f"{module}.{name}" for module, name in definitions if name not in callers]
    assert orphans == [], f"private names only the tests use: {orphans}"
