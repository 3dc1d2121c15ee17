"""Source hygiene checks that need no linter: only the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hessqr"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PRODUCTION_MODULES = [p for p in MODULES if p.name != "oracle.py"]


def unused_imports(source):
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    src = "import math\nimport os\nfrom json import dumps, loads as ld\nprint(os.sep, ld)\n"
    assert unused_imports(src) == [(1, "math"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source):
    """(line, qualified function name, parameter) for every parameter that its
    function's body never mentions.

    self and cls are not counted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None
                ]
                used = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
                for p in params:
                    if p.arg not in used and p.arg not in ("self", "cls"):
                        found.append((p.lineno, name, p.arg))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_detects_an_unused_parameter():
    src = (
        "class S:\n"
        "    def solve(self, m, beta):\n"
        "        def inner(x, y):\n"
        "            return m + y\n"
        "        return inner\n"
        "def f(a, *args, b=1, **kw):\n"
        "    return lambda: a + b\n"
    )
    assert unused_parameters(src) == [
        (2, "S.solve", "beta"),
        (3, "S.solve.inner", "x"),
        (6, "f", "args"),
        (6, "f", "kw"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def module_level_names(source):
    """(line, name) for every function, class and assigned name at the top
    level of ``source``."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined += [(n.lineno, n.id) for n in names]
    return defined


def names_read(sources):
    """Every name that ``sources`` (an iterable of sources) read, import or
    reach as an attribute; binding a name does not count."""
    refs = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                refs.update(alias.name for alias in n.names)
    return refs


def unreferenced_private_names(sources):
    """(module, line, name) for every module-level private name (one leading
    underscore) that nothing in ``sources`` ({module: source}) reads,
    imports or reaches as an attribute; binding the name does not count."""
    refs = names_read(sources.values())
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for line, name in module_level_names(source)
        if name.startswith("_") and not name.startswith("__") and name not in refs
    )


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": "_K = 1\n_UNUSED = 2\ndef _used():\n    return _K\n"
        "def _dead():\n    pass\nprint(_used())\n",
        "b": "from .a import _imported\nimport a\na._attr()\n"
        "class _Gone:\n    pass\n__all__ = []\n",
        "c": "def _imported(): pass\ndef _attr(): pass\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", 2, "_UNUSED"),
        ("a", 5, "_dead"),
        ("b", 4, "_Gone"),
    ]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def oracle_imports(source):
    """Lines of ``source`` that import the oracle module or names from it,
    relatively or through the ``hessqr`` package."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [alias.name for alias in node.names]
            if module in ("oracle", "hessqr.oracle") or (
                module in ("", "hessqr") and "oracle" in names
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "hessqr.oracle" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_detects_an_oracle_import():
    src = (
        "from .oracle import ref_eigs\n"
        "from . import kernel, oracle\n"
        "from hessqr.oracle import _hessenberg\n"
        "import hessqr.oracle\n"
        "from hessqr import oracle as o\n"
        "from .kernel import oracle_free\n"
        "import oracles\n"
    )
    assert oracle_imports(src) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "oracle.py"), ids=lambda p: p.name
)
def test_production_code_never_imports_the_oracle(path):
    assert oracle_imports(path.read_text(encoding="utf-8")) == []


def unread_fields(defining, reading):
    """(module, line, class, field) for every field of a dataclass or
    NamedTuple in ``defining`` ({module: source}) that no source in
    ``reading`` (an iterable of sources) reads as an attribute; storing or
    passing it by keyword does not count."""
    reads = set()
    for source in reading:
        reads.update(
            n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        )
    found = []
    for module, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [ast.unparse(d).split("(")[0] for d in cls.decorator_list]
            if not (any(d.endswith("dataclass") for d in decorators)
                    or any(ast.unparse(b).endswith("NamedTuple") for b in cls.bases)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in reads:
                        found.append((module, stmt.lineno, cls.name, stmt.target.id))
    return sorted(found)


def test_detects_an_unread_field():
    src = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class B(NamedTuple):\n"
        "    u: int\n"
        "    v: int\n"
        "class C:\n"
        "    w: int\n"
        "def f(a, b):\n"
        "    a.y = B(u=1, v=2)\n"
        "    return a.x + b.u\n"
    )
    assert unread_fields({"m": src}, [src]) == [("m", 6, "A", "y"), ("m", 9, "B", "v")]


def production_sources():
    """The sources of src/, perfbench/ and scripts/ without the tests and
    the oracle, which is test tooling."""
    root = SRC.parent.parent
    return [
        p.read_text(encoding="utf-8")
        for d in (SRC, root / "perfbench", root / "scripts")
        for p in sorted(d.rglob("*.py"))
        if p.name != "oracle.py" and "tests" not in p.relative_to(root).parts
    ]


def test_every_record_field_is_read():
    # a field only tests read is test-only state; the oracle's records serve
    # the tests, so it neither defines nor reads them
    defining = {p.name: p.read_text(encoding="utf-8") for p in PRODUCTION_MODULES}
    assert unread_fields(defining, production_sources()) == []


def unread_public_names(defining, reading):
    """(module, line, name) for every public module-level function, class or
    constant, and every public method (as Class.method), in ``defining``
    ({module: source}) that no source in ``reading`` (an iterable of
    sources) reads, imports or reaches as an attribute."""
    refs = names_read(reading)
    found = []
    for module, source in defining.items():
        classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
        names = [(line, "", name) for line, name in module_level_names(source)]
        names += [
            (fn.lineno, cls.name + ".", fn.name)
            for cls in classes
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        found += [
            (module, line, owner + name) for line, owner, name in names
            if not name.startswith("_") and name not in refs
        ]
    return sorted(found)


def test_detects_an_unread_public_name():
    src = (
        "LIMIT = 3\n"
        "UNUSED, _PRIVATE = 4, 5\n"
        "class C:\n"
        "    def used(self):\n"
        "        return LIMIT\n"
        "    def spare(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def helper():\n"
        "    return C().used()\n"
        "def dead():\n"
        "    pass\n"
        "class Gone:\n"
        "    pass\n"
    )
    reading = [src, "from m import helper\nhelper()\n"]
    assert unread_public_names({"m": src}, reading) == [
        ("m", 2, "UNUSED"),
        ("m", 6, "C.spare"),
        ("m", 12, "dead"),
        ("m", 14, "Gone"),
    ]


def test_every_public_name_is_read_outside_the_tests():
    # a public name only tests read is test-only code; errors.py is exempt
    # because the oracle alone raises some of its exception types
    defining = {
        p.name: p.read_text(encoding="utf-8")
        for p in PRODUCTION_MODULES
        if p.name != "errors.py"
    }
    assert unread_public_names(defining, production_sources()) == []


def unpassed_defaults(defining, calling):
    """(module, line, function, parameter) for every defaulted parameter of a
    function or method in ``defining`` ({module: source}) that no call in
    ``calling`` (an iterable of sources) passes, by position or by keyword.

    Calls are matched to functions by name alone: f(...) and x.f(...) may
    call any function named f, and C(...) calls C.__init__.  A method's
    first parameter (self, cls) takes no positional argument, and a call
    with *args or **kwargs passes every parameter."""
    calls = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            npos = float("inf") if spread else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((npos, keywords, spread))

    found = []

    def check(module, fn, qualname, call_name, method):
        a = fn.args
        positional = (a.posonlyargs + a.args)[1 if method else 0 :]
        first = len(positional) - len(a.defaults)
        defaulted = [(first + i, p) for i, p in enumerate(positional[first:])]
        defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for index, p in defaulted:
            if not any(
                spread or p.arg in keywords or (index is not None and npos > index)
                for npos, keywords, spread in calls.get(call_name, ())
            ):
                found.append((module, p.lineno, qualname, p.arg))

    def visit(module, node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(module, child, prefix + child.name + ".", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                method = cls is not None and not static
                call_name = cls.name if method and child.name == "__init__" else child.name
                check(module, child, prefix + child.name, call_name, method)
                visit(module, child, prefix + child.name + ".", None)

    for module, source in defining.items():
        visit(module, ast.parse(source), "", None)
    return sorted(found)


def test_detects_a_test_only_default():
    src = (
        "class C:\n"
        "    def __init__(self, a, b=1):\n"
        "        pass\n"
        "    def m(self, x, y=0, *, z=None):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(p, q=2):\n"
        "        pass\n"
        "def f(a, b=None, c=3):\n"
        "    def inner(u=1):\n"
        "        pass\n"
        "    return inner\n"
        "def g(v=0):\n"
        "    pass\n"
    )
    calls = "C(1, 2)\nobj.m(1, 2)\nC.s(1)\nf(1, c=4)\ninner(**kw)\ng(*args)\n"
    assert unpassed_defaults({"m": src}, [src, calls]) == [
        ("m", 4, "C.m", "z"),
        ("m", 7, "C.s", "q"),
        ("m", 9, "f", "b"),
    ]


def test_every_default_is_passed_outside_the_tests():
    # a default that only tests override is a test-only switch; the oracle
    # is test tooling, so it neither defines nor passes them
    defining = {p.name: p.read_text(encoding="utf-8") for p in PRODUCTION_MODULES}
    assert unpassed_defaults(defining, production_sources()) == []


# The attributes of the mpmath module that the package may use, each with the
# reason it never rounds at mpmath's global precision.
MPMATH_ALLOWED = {
    "MPContext": "makes a context, whose precision is its own (kernel.mp_context)",
    "isfinite": "tests a number's exponent field and forms no number",
    "ldexp": "2^e from the integer 1 is exact at any precision",
}


def global_precision_uses(source):
    """(line, name) for every attribute of the mpmath module that ``source``
    reads, imported by name or reached through ``import mpmath [as m]``,
    other than those in MPMATH_ALLOWED; ``ldexp`` only counts as allowed
    when called on the literal 1."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "mpmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found += [(node.lineno, a.name) for a in node.names if a.name not in MPMATH_ALLOWED]
    powers_of_two = {
        id(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ldexp" and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            allowed = node.attr in MPMATH_ALLOWED and (
                node.attr != "ldexp" or id(node) in powers_of_two
            )
            if not allowed:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_detects_a_global_precision_use():
    src = (
        "import mpmath\n"
        "import mpmath as m\n"
        "from mpmath import mpf, isfinite\n"
        "x = mpmath.mpc(1) + m.mp.prec\n"
        "y = mpmath.ldexp(1, 5) * mpmath.ldexp(x, 2)\n"
        "with mpmath.workprec(80):\n"
        "    ctx = m.MPContext()\n"
        "ok = mpmath.isfinite(x) and ctx.mpc(1)\n"
    )
    assert global_precision_uses(src) == [
        (3, "mpf"), (4, "mp"), (4, "mpc"), (5, "ldexp"), (6, "workprec")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_rounds_at_the_global_precision(path):
    # every mpmath number comes from a context of its own precision
    assert global_precision_uses(path.read_text(encoding="utf-8")) == []


OUTPUT_WRITER = "_write"  # cli.py's writer: it overwrites a file rather than truncating it


def builtin_open_calls(source):
    """(line, enclosing function) for every call to the builtin ``open``,
    also when reached as ``io.open`` or ``builtins.open``, outside functions
    named OUTPUT_WRITER; the enclosing function is "" at module level."""
    found = []

    def is_open(func):
        if isinstance(func, ast.Name):
            return func.id == "open"
        return (isinstance(func, ast.Attribute) and func.attr == "open"
                and isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins"))

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name != OUTPUT_WRITER:
                    visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Call) and is_open(child.func):
                found.append((child.lineno, name))
            visit(child, name)

    visit(ast.parse(source), "")
    return sorted(found)


def test_detects_a_builtin_open():
    src = (
        "import io, os\n"
        "def _write(path):\n"
        "    return open(path, 'w')\n"
        "class W:\n"
        "    def save(self, path):\n"
        "        with open(path, 'w') as fh, io.open(path) as g:\n"
        "            os.open(path, os.O_RDONLY)\n"
        "LOG = open('log.txt', 'a')\n"
    )
    assert builtin_open_calls(src) == [(6, "W.save"), (6, "W.save"), (8, "")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_outputs_are_opened_only_by_the_writer(path):
    # truncating an output frees the blocks ext4 forced to disk at its last close
    assert builtin_open_calls(path.read_text(encoding="utf-8")) == []


def significand_width_reads(source):
    """Lines of ``source`` that read the ``nmant`` of a ``finfo``: a fork on
    how wide a float type is on this platform."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "nmant"
    )


def test_detects_a_significand_width_read():
    src = (
        "import numpy as np\n"
        "X87 = np.finfo(np.clongdouble).nmant >= 63\n"
        "fin = np.finfo(np.float64)\n"
        "wide = fin.nmant > 52 and fin.eps\n"
        "nmant = 52\n"
    )
    assert significand_width_reads(src) == [2, 4]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "oracle.py"), ids=lambda p: p.name
)
def test_only_the_oracle_forks_on_the_platform_float_width(path):
    # each certificate takes u and tiny from the numbers it runs on; the
    # oracle's clongdouble reference rung alone needs the x87 width
    assert significand_width_reads(path.read_text(encoding="utf-8")) == []


def random_sources(source):
    """Lines of ``source`` that reach ``numpy.random``: an import of it or of
    names from it, or its ``random`` attribute read off the numpy module."""
    tree = ast.parse(source)
    numpy_names, lines = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (alias.name + ".").startswith("numpy.random."):
                    lines.add(node.lineno)
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if (module + ".").startswith("numpy.random.") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                lines.add(node.lineno)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.add(node.lineno)
    return sorted(lines)


def test_detects_a_random_source():
    src = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random as npr, linalg\n"
        "from numpy.random import default_rng\n"
        "g = np.random.default_rng(1)\n"
        "x = rng.random() + linalg.norm(np.ones(2))\n"
        "from .random import draw\n"
    )
    assert random_sources(src) == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "driver.py"), ids=lambda p: p.name
)
def test_only_the_driver_makes_random_streams(path):
    # every other layer draws from the Generator the driver hands it, so a
    # run's one stream cannot split
    assert random_sources(path.read_text(encoding="utf-8")) == []


SMALL_SOLVER_METHODS = ("solve", "solve_each")  # the small solver's entry points


def small_solver_calls(source):
    """(enclosing function, line) of every call of a ``solve`` or
    ``solve_each`` attribute, the small solver's entry points."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in SMALL_SOLVER_METHODS):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_detects_a_small_solver_call():
    src = (
        "x = S.solve(m, b)\ndef f(h):\n    def g():\n        return S().solve(h, 1)\n"
        "    return g, S.solve_each([h], 1), solve_each([h], 1)\n"
    )
    assert small_solver_calls(src) == [(None, 1), ("g", 4), ("f", 5)]


def test_the_driver_makes_every_small_solver_call():
    # the corners and the leaves are solved in one place each, so that the
    # driver can count the calls, a retry can reuse a certified corner and
    # a run's leaves go to the solver together
    calls = {p.name: small_solver_calls(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: [f for f, _ in found] for name, found in calls.items() if found} == {
        "driver.py": ["_process_block", "_certify_leaves"]
    }


SQUARE_SUMS = ("vdot", "dznrm2")  # kernel.norm's BLAS call, and a sum of squares


def frobenius_norms(source):
    """(line, name) for every call in ``source`` that forms a Frobenius norm
    or a sum of squares: of ``vdot`` or ``dznrm2``, by name or as an
    attribute, and of ``linalg.norm`` whose ord is absent, None or "fro"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in SQUARE_SUMS:
            found.append((node.lineno, name))
        elif (name == "norm" and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
            ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
            if not ords or (isinstance(ords[0], ast.Constant) and ords[0].value in (None, "fro")):
                found.append((node.lineno, "linalg.norm"))
    return sorted(found)


def test_detects_a_frobenius_norm():
    src = (
        "import numpy as np\n"
        "from scipy.linalg import blas\n"
        "a = np.vdot(x, x).real + blas.dznrm2(x)\n"
        "b = np.linalg.norm(x) + np.linalg.norm(x, None) + np.linalg.norm(x, ord='fro')\n"
        "c = np.linalg.norm(x, 2) + np.linalg.norm(x, ord=np.inf) + norm(x) + vdot(x, x)\n"
    )
    assert frobenius_norms(src) == [
        (3, "dznrm2"), (3, "vdot"),
        (4, "linalg.norm"), (4, "linalg.norm"), (4, "linalg.norm"),
        (5, "vdot"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kernel_norm_is_the_one_frobenius_norm(path):
    # Sigma = 2||H||_F and the small solver's scale come from one norm, BLAS
    # dznrm2 on complex128; spectral norms (ord 2) are another primitive
    found = frobenius_norms(path.read_text(encoding="utf-8"))
    if path.name == "kernel.py":
        found = [(line, name) for line, name in found if name not in SQUARE_SUMS]
    assert found == []
