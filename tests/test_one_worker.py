"""One worker thread per command, opened in one place.

``cli.main`` opens the command's one ``ThreadPoolExecutor(max_workers=1)``
and passes it down; the estimators and training take it as an argument.
A second executor or thread anywhere in ``src/ttckit`` would start threads
that no command accounts for, so every call that builds one is listed
here with the function it sits in.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "ttckit"
_STARTERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}


def _thread_starters(path: Path) -> list[str]:
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _STARTERS:
                    found.append(f"{scope}: {name}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_only_cli_main_builds_a_thread_pool():
    found = [hit for path in sorted(LIBRARY.glob("*.py")) for hit in _thread_starters(path)]
    assert found == ["cli.main: ThreadPoolExecutor"], found
