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


# ------------------------------------------------------- sparse assembly

SPARSE = "scipy.sparse"
SPARSE_SOLVERS = ("scipy.sparse.linalg", "scipy.sparse.csgraph")


def _dotted(node):
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return ".".join([node.id] + names[::-1]) if isinstance(node, ast.Name) \
        else None


def _sparse_calls(tree):
    """(owner, line, name) of every call into scipy.sparse outside its
    solver subpackages; owner is the enclosing module-level function or
    class, or "<module>"."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = \
                    a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    found = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            name = _dotted(node.func) if isinstance(node, ast.Call) else None
            if name is None:
                continue
            root, _, rest = name.partition(".")
            name = ".".join(filter(None, [aliases.get(root, root), rest]))
            if (name.startswith(SPARSE + ".")
                    and not name.startswith(SPARSE_SOLVERS)):
                found.append((owner, node.lineno, name))
    return found


def test_only_the_assembler_constructs_sparse_matrices():
    # every sparse operator on the packed layout is filled on a stencil
    # pattern by steady.fill_pattern; a second assembler is a second
    # place for the layout's offsets to go wrong
    found = [(path.name,) + call for path in SOURCES for call in
             _sparse_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert [(f, owner, name) for f, owner, _, name in found] == [
        ("steady.py", "fill_pattern", "scipy.sparse.csr_matrix")], found


def test_sparse_call_detection():
    code = ("import scipy.sparse\n"
            "import scipy.sparse as sp\n"
            "from scipy.sparse import coo_matrix\n"
            "from scipy import sparse\n"
            "def f(a):\n"
            "    scipy.sparse.csr_matrix(a)\n"
            "    sp.diags(a)\n"
            "    return coo_matrix(a)\n"
            "class C:\n"
            "    def g(self, a):\n"
            "        return sparse.bmat(a), sp.linalg.splu(a), a.tocsr()\n"
            "B = scipy.sparse.eye(3)\n")
    assert _sparse_calls(ast.parse(code)) == [
        ("f", 6, "scipy.sparse.csr_matrix"), ("f", 7, "scipy.sparse.diags"),
        ("f", 8, "scipy.sparse.coo_matrix"), ("C", 11, "scipy.sparse.bmat"),
        ("<module>", 12, "scipy.sparse.eye")]


# ------------------------------------------------- one LU per iteration

ASSEMBLE_OR_FACTOR = {"jacobian", "dresidual_dlambda", "BandLU"}


def _assembly_calls(tree):
    """(line, name) of every call of jacobian, dresidual_dlambda or
    BandLU, by bare name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name in ASSEMBLE_OR_FACTOR:
            found.append((node.lineno, name))
    return found


def test_continuation_assembles_and_factors_nothing():
    # the tangent, det_sign and sigma_min come from the corrector's last
    # band LU; a second assembly or factorization per point is the cost
    # that reuse removed
    path = Path(spark_branch.__file__).parent / "continuation.py"
    assert _assembly_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_assembly_call_detection():
    code = ("from .steady import jacobian, BandLU\n"
            "J = jacobian(s, p, g)\n"
            "lu = steady.BandLU(J, g)\n"
            "col = steady.dresidual_dlambda(s, p, g)\n"
            "f = jacobian\n")
    assert _assembly_calls(ast.parse(code)) == [
        (2, "jacobian"), (3, "BandLU"), (4, "dresidual_dlambda")]


# ---------------------------------------------------------- reachability

REPO = Path(__file__).resolve().parent.parent
# Module-level functions with no caller outside the tests yet, and why
# they stay in the package.
UNREACHED_ALLOWED = {
    ("validation", "richardson"):
        "the grid-convergence study planned in ROADMAP item 11",
    ("validation", "convergence_orders"):
        "the grid-convergence study planned in ROADMAP item 11",
}


def _package_graph(sources):
    """Module-level definitions {(module, name): node}, each module's
    relative imports {local name: (module, name or None for a module)},
    and the module-level statements that are not definitions."""
    defs, scopes, top = {}, {}, []
    for path in sources:
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = scopes.setdefault(mod, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            else:
                top.append((mod, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    scope[a.asname or a.name] = (
                        (node.module, a.name) if node.module else (a.name, None))
    return defs, scopes, top


def _reached(defs, scopes, top, roots):
    """Keys of defs reachable from roots and the module-level statements,
    following names and module attributes (an over-approximation: a
    local that shadows a module-level name counts as a reference)."""
    def resolve(mod, name):
        while (mod, name) not in defs:
            mod, name = scopes.get(mod, {}).get(name, (None, None))
            if name is None:
                return None
        return mod, name

    def refs(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)):
                target, name = scopes[mod].get(sub.value.id, (None, ""))
                if name is None:
                    yield resolve(target, sub.attr)

    stack = [resolve(*root) for root in roots]
    for mod, node in top:
        stack += refs(mod, node)
    seen = set()
    while stack:
        key = stack.pop()
        if key is not None and key not in seen:
            seen.add(key)
            stack += refs(key[0], defs[key])
    return seen


def _entry_points():
    """(module, name) roots: __all__, the CLI, the functions perfbench
    traces and the package names the demos and perfbench scripts use
    ("__init__" for names reached through the package itself)."""
    from test_perfbench_names import _package_chains, _traced

    init = ast.parse(Path(spark_branch.__file__).read_text(encoding="utf-8"))
    roots = [("cli", "main")]
    for node in init.body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "__all__":
            roots += [("__init__", name) for name in ast.literal_eval(node.value)]
    roots += [(layer, fn) for layer, fns in _traced().items() for fn in fns]
    modules = {path.stem for path in SOURCES}
    scripts = sorted((REPO / "perfbench").glob("*.py")) \
        + sorted((REPO / "demos").glob("*.py"))
    for script in scripts:
        for chain in _package_chains(script):
            roots.append(chain[:2] if chain[0] in modules and len(chain) > 1
                         else ("__init__", chain[0]))
    return roots


def test_every_function_is_reachable_outside_the_tests():
    # test-only helpers belong in tests/oracles.py, not in the package
    defs, scopes, top = _package_graph(SOURCES)
    reached = _reached(defs, scopes, top, _entry_points())
    unreached = sorted(key for key, node in defs.items()
                       if isinstance(node, ast.FunctionDef)
                       and key not in reached)
    assert unreached == sorted(UNREACHED_ALLOWED)


def test_reachability_detection(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text(
        "from .b import g\n"
        "from . import b\n"
        "TABLE = {'k': lambda: _h()}\n"
        "def f():\n    return g() + b.k()\n"
        "def _h():\n    pass\n"
        "def orphan():\n    return g()\n")
    (tmp_path / "b.py").write_text(
        "def g():\n    pass\n"
        "def k():\n    pass\n"
        "def unused():\n    pass\n"
        "class C:\n    def m(self):\n        return unused\n")
    graph = _package_graph(sorted(tmp_path.glob("*.py")))
    reached = _reached(*graph, [("__init__", "f")])
    assert reached == {("a", "f"), ("a", "_h"), ("b", "g"), ("b", "k")}
