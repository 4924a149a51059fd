"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import spark_branch

SOURCES = sorted(Path(spark_branch.__file__).parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}


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
