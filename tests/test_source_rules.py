"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import spark_branch

SOURCES = sorted(Path(spark_branch.__file__).parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}
LINALG = {"numpy.linalg", "scipy.linalg"}
SVD = {"svd", "svdvals"}


def _broad_handlers(tree):
    """(line, text) of every bare `except:` and every handler that names
    Exception or BaseException, alone or in a tuple."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append((node.lineno, "except:"))
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for t in types:
            if isinstance(t, ast.Name) and t.id in BROAD:
                found.append((node.lineno, f"except {t.id}"))
    return found


def _svd_calls(tree):
    """(line, text) of every import or attribute use of svd or svdvals
    from numpy.linalg or scipy.linalg."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in LINALG:
            found += [(node.lineno, f"from {node.module} import {a.name}")
                      for a in node.names if a.name in SVD]
        elif (isinstance(node, ast.Attribute) and node.attr in SVD
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"):
            found.append((node.lineno, f"linalg.{node.attr}"))
    return sorted(found)


def test_sources_are_found():
    assert {"cli.py", "electron.py", "steady.py"} <= {s.name for s in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_broad_exception_handlers(path):
    # a broad handler can turn a bug into a NaN row or a failed check
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _broad_handlers(tree) == []


def test_broad_handler_detection():
    code = ("try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
            "try:\n    pass\nexcept BaseException as exc:\n    pass\n"
            "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert _broad_handlers(ast.parse(code)) == [
        (3, "except:"), (7, "except Exception"), (11, "except BaseException")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dense_svd(path):
    # small singular values come from the band LU (steady.smallest_singular);
    # a dense SVD of the (3n-4)^2 linearization costs O(n^3)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _svd_calls(tree) == []


def test_svd_detection():
    code = ("import numpy as np\n"
            "np.linalg.svd(a)\n"
            "from scipy.linalg import svdvals\n"
            "scipy.linalg.svd(a, compute_uv=False)\n"
            "np.linalg.norm(a)\n"
            "from numpy.linalg import norm\n")
    assert _svd_calls(ast.parse(code)) == [
        (2, "linalg.svd"), (3, "from scipy.linalg import svdvals"),
        (4, "linalg.svd")]
