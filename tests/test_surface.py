"""A census of the public surface: each public top-level function or class
of a gicnof module has a user, and every name gicnof exports resolves.

A user is the code of a gicnof module other than __init__.py (an export
alone is no use), of the benchmark (perfbench/*.py) or of the acceptance
suite that refers to the name, or README.md, which names it in code.  A
name with no user belongs in the tests or goes."""

import ast
import re
from pathlib import Path

import gicnof

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gicnof"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def names_referred_to(path):
    """Every ast.Name, attribute and imported name of path's code; a string,
    and so a docstring, names nothing."""
    out = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def public_definitions(path):
    """The public top-level functions and classes of path."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(path.read_bytes(), str(path)).body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def names_in_readme():
    """The identifiers in README.md's code: its fenced blocks and its
    inline code spans."""
    parts = (ROOT / "README.md").read_text(encoding="utf-8").split("```")
    code = parts[1::2] + [span for text in parts[::2] for span in re.findall(r"`([^`]+)`", text)]
    return {name for text in code for name in re.findall(r"[A-Za-z_]\w*", text)}


def test_every_public_name_has_a_user():
    code = [*MODULES, ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    used = names_in_readme().union(*map(names_referred_to, code))
    unused = [f"{module.stem}.{name}" for module in MODULES
              for name in public_definitions(module) if name not in used]
    assert unused == []


def test_every_export_resolves():
    assert [name for name in gicnof.__all__ if not hasattr(gicnof, name)] == []
