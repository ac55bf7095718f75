"""Every public name has a reason to be public (ROADMAP.md, item 10).

A name in dpmirror.__all__ passes if another dpmirror module uses it
(found with ast; an import does not count), if a public function of the
package returns it, or if the README's "Library API" section lists it in
a bullet. There are no exceptions.
"""

import ast
import os
import re

import pytest

import dpmirror

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dpmirror")


def modules():
    """{module name: ast tree} of every dpmirror module."""
    trees = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                trees["dpmirror." + filename[:-3]] = ast.parse(fh.read())
    return trees


TREES = modules()


def used_elsewhere(name):
    """Whether a dpmirror module other than name's own and __init__ reads it."""
    home = getattr(dpmirror, name).__module__
    for module, tree in TREES.items():
        if module in (home, "dpmirror.__init__"):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                return True
    return False


def returned_by_public_function(name):
    """Whether a public top-level function returns name(...)."""
    for tree in TREES.values():
        for function in tree.body:
            if not isinstance(function, ast.FunctionDef) or function.name.startswith("_"):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id == name):
                    return True
    return False


def readme_listed():
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.M))


LISTED = readme_listed()


@pytest.mark.parametrize("name", sorted(dpmirror.__all__))
def test_public_name_has_a_reason(name):
    assert used_elsewhere(name) or returned_by_public_function(name) or name in LISTED, (
        f"{name} is exported but no other module uses it, no public function "
        "returns it and the README's Library API section does not list it")


def test_readme_lists_only_public_names():
    assert LISTED and LISTED <= set(dpmirror.__all__)
