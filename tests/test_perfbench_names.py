"""The benchmark under perfbench/ reaches the package by name: spans.py
rebinds the functions listed in TRACED, and the workload scripts call
`sb.<module>.<function>` chains on the imported package.  Every one of
those names must resolve, or the traced run fails with AttributeError;
this test catches a rename or deletion in the fast suite.  The files are
read as source, so nothing under perfbench/ is imported or run."""

import ast
import importlib
from pathlib import Path

import pytest

import spark_branch
import spark_branch.cli  # noqa: F401  (perfbench/run.py imports these two)
import spark_branch.validation  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _traced():
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError("TRACED not found in perfbench/spans.py")


def _chain(node):
    """Dotted names of an attribute chain, root first, or None when the
    chain does not start at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def _package_chains(path):
    """Attribute chains rooted at the package in one script: `sb` (the
    name the workloads give the package), `spark_branch` itself and every
    name bound by `from spark_branch import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {"sb": [], "spark_branch": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "spark_branch":
            for alias in node.names:
                roots[alias.asname or alias.name] = [alias.name]
    chains = set()
    for node in ast.walk(tree):
        names = _chain(node) if isinstance(node, ast.Attribute) else None
        if names and names[0] in roots:
            chains.add(tuple(roots[names[0]] + names[1:]))
    chains.update(tuple(path) for path in roots.values() if path)
    return sorted(chains)


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for layer, functions in traced.items():
        module = importlib.import_module(f"spark_branch.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), \
                f"perfbench traces spark_branch.{layer}.{name}, which is gone"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_package_attribute_chains_resolve(script):
    for chain in _package_chains(script):
        obj = spark_branch
        for depth, name in enumerate(chain):
            assert hasattr(obj, name), \
                f"{script.name} uses spark_branch.{'.'.join(chain)}, " \
                f"but spark_branch.{'.'.join(chain[:depth + 1])} is gone"
            obj = getattr(obj, name)


def test_workloads_reach_the_package():
    # guards the scan itself: the workloads' calls must be found
    chains = _package_chains(PERFBENCH / "workloads.py")
    assert ("validation", "discrete_bifurcation_pair") in chains
    assert ("steady", "jacobian") in chains
