"""Ratchets on the library: the values a caller or user can set (defaulted
function parameters, defaulted dataclass fields, command-line arguments and
environment reads, counted with `ast`) and its line count.
A change that adds or removes one, or grows or shrinks the library, must
update SETTABLE or LINES here, so it shows in the diff."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qpart").glob("*.py"))
SETTABLE = {"defaulted parameters": 7, "defaulted dataclass fields": 0,
            "add_argument calls": 11, "environment reads": 0}
LINES = 2490  # of LIBRARY, as wc -l counts them


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def count_settable(paths) -> dict[str, int]:
    counts = dict.fromkeys(SETTABLE, 0)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                counts["defaulted parameters"] += len(node.defaults) + sum(
                    d is not None for d in node.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                counts["defaulted dataclass fields"] += sum(
                    isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "add_argument":
                    counts["add_argument calls"] += 1
                elif node.func.attr == "getenv":
                    counts["environment reads"] += 1
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                counts["environment reads"] += 1
    return counts


def test_settable_values_ratchet():
    assert count_settable(LIBRARY) == SETTABLE


def test_line_count_ratchet():
    assert sum(path.read_text().count("\n") for path in LIBRARY) == LINES
