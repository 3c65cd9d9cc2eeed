"""List every src/ function or class of 6+ lines that nothing references.

A reference is the name as an identifier, attribute, import (package
``__init__`` re-exports aside) or component of a dotted string (the perf/
seams) in any file under src/, examples/, perf/ or tools/, outside the
definition's own lines.  Name-based and coarse on purpose: what it prints
(`make surface`) is test-only or dead, and DESIGN.md §8 gives each a reason.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
uses, defs = {}, []
for top in ("src", "examples", "perf", "tools"):
    for path in sorted((ROOT / top).rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+(\.\w+)+", node.value):
                    names = node.value.split(".")
            elif isinstance(node, DEF) and top == "src":
                if node.end_lineno - node.lineno >= 5:
                    defs.append((rel, node.lineno, node.end_lineno, node.name))
            for name in names:
                uses.setdefault(name, []).append((rel, node.lineno))
for rel, first, last, name in defs:
    used = [u for u in uses.get(name, ()) if not (u[0] == rel and first <= u[1] <= last)]
    if not used and not name.startswith("__"):
        print("%s:%d  %s  (%d lines)" % (rel, first, name, last - first + 1))
