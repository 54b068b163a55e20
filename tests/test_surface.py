"""A census of the public surface: each public top-level function or class
of a gicnof module, and each public method or property of such a class, has
a user; every name gicnof exports resolves; and every module name README's
code gives resolves.

A user of a module's name is the code of another gicnof module than that
one and __init__.py (an export alone is no use, nor a module's use of its
own names), of the benchmark (perfbench/*.py) or of the acceptance suite
that refers to the name, or README.md, which names it in code.  A public
class that a used public function names in its return annotation is used
too: a caller holds its instances.  A name with no user belongs in the
tests or goes.

Each private top-level function or class of a gicnof module is referred to
by the code of some gicnof module, its own included, or of the benchmark;
a decorated function counts as used, since its decorator can register it
(gap._shutdown_pool).  A private name only the tests call goes."""

import ast
import importlib
import re
from pathlib import Path

import gicnof

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gicnof"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README_MODULES = ("achievability", "converse", "geometry", "gap", "channel", "cli", "errors")
FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "txt", "yml"}


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
    """(qualified name, name, names in its return annotation) of each public
    top-level function and class of path, and of each public method and
    property of its public classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def public(body, prefix=""):
        for node in body:
            if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
                returns = getattr(node, "returns", None)
                yield (prefix + node.name, node.name,
                       {n.id for n in ast.walk(returns) if isinstance(n, ast.Name)}
                       if returns is not None else set())
                if isinstance(node, ast.ClassDef):
                    yield from public([n for n in node.body if isinstance(n, functions)],
                                      node.name + ".")

    return list(public(ast.parse(path.read_bytes(), str(path)).body))


def unused_private_names():
    """module.name of each private top-level function and class of a gicnof
    module, decorated functions aside, that no code of gicnof or of the
    benchmark refers to."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    code = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    referred = set().union(*map(names_referred_to, code))
    return sorted(f"{module.stem}.{node.name}" for module in PACKAGE.glob("*.py")
                  for node in ast.parse(module.read_bytes(), str(module)).body
                  if isinstance(node, (*functions, ast.ClassDef)) and node.name.startswith("_")
                  and not (isinstance(node, functions) and node.decorator_list)
                  and node.name not in referred)


def readme_code(section=""):
    """The code of README.md, or of its section headed section: the fenced
    blocks and the inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    if section:
        text = text[text.index(f"\n{section}\n"):]
        text = text[:text.find("\n#", 1)]
    parts = text.split("```")
    return parts[1::2] + [span for text in parts[::2] for span in re.findall(r"`([^`]+)`", text)]


def unused_public_names():
    shared = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    shared_names = {name for text in readme_code() for name in re.findall(r"[A-Za-z_]\w*", text)}
    shared_names = shared_names.union(*map(names_referred_to, shared))
    referred = {module: names_referred_to(module) for module in MODULES}
    definitions = [(module, *d) for module in MODULES for d in public_definitions(module)]
    used = {(module, qualname) for module, qualname, name, _ in definitions
            if name in shared_names.union(*(referred[m] for m in MODULES if m != module))}
    returned = set().union(*(returns for module, qualname, _, returns in definitions
                             if (module, qualname) in used))
    used |= {(module, qualname) for module, qualname, name, _ in definitions
             if name in returned and "." not in qualname}
    return [f"{module.stem}.{qualname}" for module, qualname, _, _ in definitions
            if (module, qualname) not in used]


def test_every_public_name_has_a_user():
    assert unused_public_names() == []


def test_every_private_name_has_a_user_in_program_code():
    assert unused_private_names() == []


def test_every_export_resolves():
    assert [name for name in gicnof.__all__ if not hasattr(gicnof, name)] == []


def test_every_name_readme_gives_resolves():
    modules = "|".join(README_MODULES)
    named = {(module, name) for text in readme_code()
             for module, name in re.findall(rf"(?<![\w.])({modules})\.(\w+)", text)
             if name not in FILE_SUFFIXES}
    assert named
    assert sorted(f"{module}.{name}" for module, name in named
                  if not hasattr(importlib.import_module(f"gicnof.{module}"), name)) == []
    quick_start = {name for text in readme_code("## Library quick start")
                   for name in re.findall(r"(?<![\w.])g\.(\w+)", text)}
    assert quick_start
    assert sorted(name for name in quick_start if not hasattr(gicnof, name)) == []
