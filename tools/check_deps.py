"""Check that the package declares exactly the third-party modules it imports.

Walks ``src/`` with :mod:`ast` (nothing is imported, so it runs
without the dependencies installed) and collects the top-level module
of every absolute import.  Standard-library modules and the package's
own top-level packages are skipped; the rest must appear in
``[project].dependencies`` of ``pyproject.toml``, and every declared
dependency must be imported somewhere.  A distribution name maps to
its import name by lower-casing it and turning ``-`` into ``_``.

Usage::

    python tools/check_deps.py [--root DIR]

Prints one line per problem and exits 1 if there is any, else prints a
one-line summary and exits 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
import tomllib
from typing import Dict, List, Set, Tuple


def declared(pyproject: str) -> Set[str]:
    """Import names of the ``[project].dependencies`` entries."""
    with open(pyproject, "rb") as stream:
        project = tomllib.load(stream).get("project", {})
    names = set()
    for requirement in project.get("dependencies", []):
        dist = re.split(r"[\s<>=!~;\[(]", requirement.strip(), 1)[0]
        names.add(dist.lower().replace("-", "_"))
    return names


def imports(src: str) -> Dict[str, List[Tuple[str, int]]]:
    """Top-level module -> [(path, line)] of every absolute import."""
    found: Dict[str, List[Tuple[str, int]]] = {}
    for folder, _dirs, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as stream:
                tree = ast.parse(stream.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    found.setdefault(top, []).append((path, node.lineno))
    return found


def problems(root: str) -> List[str]:
    """Every undeclared import and every unused declaration."""
    src = os.path.join(root, "src")
    own = {name for name in os.listdir(src)
           if os.path.isfile(os.path.join(src, name, "__init__.py"))}
    deps = declared(os.path.join(root, "pyproject.toml"))
    used = imports(src)
    out = []
    for module, sites in sorted(used.items()):
        if module in sys.stdlib_module_names or module in own:
            continue
        if module.lower() not in deps:
            path, line = sites[0]
            out.append("%s:%d imports %r, which [project].dependencies "
                       "does not declare (%d import(s) in all)"
                       % (os.path.relpath(path, root), line, module,
                          len(sites)))
    imported = {module.lower() for module in used}
    for dep in sorted(deps - imported):
        out.append("pyproject.toml declares %r, which src/ never imports"
                   % dep)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent)")
    args = parser.parse_args(argv)
    found = problems(args.root)
    for line in found:
        print(line)
    if found:
        return 1
    print("dependencies ok: %s"
          % ", ".join(sorted(declared(
              os.path.join(args.root, "pyproject.toml")))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
