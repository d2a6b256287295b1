"""Size census of ``src/``: lines, parameters with a default, dataclass fields with a default.

These are the three counts that ROADMAP.md and CHANGES.md quote when a change
makes the package smaller. Run it from the repository root:

    python tests/src_census.py

Lines are the physical lines of every ``.py`` file under ``src/``. A
parameter with a default is any positional or keyword-only parameter of a
``def``, ``async def`` or ``lambda`` that has one. A dataclass field with a
default is an annotated class attribute with a value, ``field(...)`` included,
in a class decorated with ``dataclass`` or ``dataclass(...)``.
The file name keeps ``pytest`` from collecting it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def census(root: Path = SRC) -> dict[str, int]:
    lines = params = fields = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
                )
    return {
        "src_lines": lines,
        "params_with_default": params,
        "dataclass_fields_with_default": fields,
    }


if __name__ == "__main__":
    for name, count in census(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC).items():
        print(f"{name}: {count:,}")
