"""Nothing in src/gup_spectra exists only for callers outside it, and scipy
stays where it is paid for.

Four checks, each with its named exemptions:

* every function and class is reached from src itself.  A definition
  counts as reached when its name appears as a ``Name`` or an
  ``Attribute`` somewhere in src outside its own body; a method only as an
  ``Attribute``.  Dunder methods are called by Python itself.
* every defaulted parameter is passed by some call in src outside the
  function's own body, by keyword or by position; a call that unpacks
  ``*args`` or ``**kwargs`` passes every parameter.  ``__init__`` is called
  by its class name.
* every dataclass field is read somewhere in src, as an ``Attribute`` in a
  load context.
* every error class of ``errors.py`` is named by a ``raise`` in src, so
  that each condition has one error type and no type outlives its
  condition.  The base class is caught, not raised.

One check reads the tests: the message of every ``raise
UnsupportedPair(...)`` in src, each formatted value of an f-string read as
``{}``, is matched by the ``match=`` of some ``pytest.raises(UnsupportedPair,
...)`` in tests, and every such ``pytest.raises`` names a ``match=``.  So each
refusal is reached by a test that shows its cause.

Three more have none: no file in src imports scipy, so the package and
every command, the spectral oracle included, run on numpy alone;
``spectral.py`` takes nothing from the package but ``errors`` and the
Gauss-Jacobi rule and chain sequence of ``specfun``, so the oracle cannot be
seeded from the closed forms it checks; and no file in src mentions ``fft``, since X differentiates by
order-8 differences on every grid.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gup_spectra"

ENTRY_POINTS = {
    "_Parser.error": "argparse calls it on a malformed command line",
    "metric_generic": "bench only: crosscheck's metric_ratio check",
}

PUBLIC_KNOBS = {
    "main.argv": "the console script passes none; embedding callers pass argv",
}

RESULT_FIELDS = {}

BASE_ERRORS = {
    "GupSpectraError": "the base class that callers catch",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _nodes(paths):
    """Every node of the sources, with the defs and classes around it."""
    out = []

    def visit(node, stack):
        for child in ast.iter_child_nodes(node):
            out.append((child, stack))
            visit(child, stack + (child,) if isinstance(child, _DEFS) else stack)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return out


def _defs(nodes):
    """(qualname, node, its class or None) of every def and class."""
    for node, stack in nodes:
        if isinstance(node, _DEFS):
            owner = stack[-1] if stack and isinstance(stack[-1], ast.ClassDef) else None
            yield ".".join(n.name for n in stack + (node,)), node, owner


def unreached(paths):
    nodes = _nodes(paths)
    refs = [(node.id if isinstance(node, ast.Name) else node.attr,
             isinstance(node, ast.Attribute), stack)
            for node, stack in nodes if isinstance(node, (ast.Name, ast.Attribute))]
    out = []
    for qualname, node, owner in _defs(nodes):
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(ref == name and (attr or owner is None) and node not in enclosing
                   for ref, attr, enclosing in refs):
            out.append(qualname)
    return sorted(out)


def _defaulted(node, method):
    """(name, position or None) of each defaulted parameter; the position
    counts the arguments a call passes, without ``self``."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unpassed_defaults(paths):
    nodes = _nodes(paths)
    calls = []
    for node, stack in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            func = node.func
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            calls.append((func.id if isinstance(func, ast.Name) else func.attr,
                          len(node.args), {k.arg for k in node.keywords}, spread, stack))
    out = []
    for qualname, node, owner in _defs(nodes):
        name = node.name
        if name == "__init__" and owner is not None:
            name = owner.name
        elif isinstance(node, ast.ClassDef) or name.startswith("__") and name.endswith("__"):
            continue
        for param, pos in _defaulted(node, owner is not None):
            if not any(callee == name and node not in stack
                       and (spread or param in keywords or (pos is not None and count > pos))
                       for callee, count, keywords, spread, stack in calls):
                out.append(f"{qualname}.{param}")
    return sorted(out)


def _is_dataclass(node):
    return any(isinstance(target, ast.Name) and target.id == "dataclass"
               for target in (d.func if isinstance(d, ast.Call) else d
                              for d in node.decorator_list))


def unread_fields(paths):
    nodes = _nodes(paths)
    read = {node.attr for node, _ in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for qualname, node, _ in _defs(nodes):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [f"{qualname}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read]
    return sorted(out)


def unraised_errors(errors, paths):
    """Classes declared in the file ``errors`` that no ``raise`` in
    ``paths`` names, with or without a call."""
    raised = set()
    for node, _ in _nodes(paths):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    declared = [node.name for node in ast.parse(errors.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ClassDef)]
    return sorted(name for name in declared if name not in raised)


def refusals(paths, error):
    """The message of every ``raise error(...)`` in ``paths``, each formatted
    value of an f-string as {}."""
    out = []
    for node, _ in _nodes(paths):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == error):
            msg = node.exc.args[0]
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            out.append("".join(p.value if isinstance(p, ast.Constant) else "{}"
                               for p in parts))
    return out


def raises_matches(paths, error):
    """The ``match=`` pattern of every ``pytest.raises(error, ...)`` in
    ``paths``; None where it names none, or none as a string literal."""
    out = []
    for node, _ in _nodes(paths):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises" and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id == error):
            match = [k.value for k in node.keywords if k.arg == "match"]
            out.append(match[0].value if match and isinstance(match[0], ast.Constant)
                       else None)
    return out


def scipy_imports(paths):
    """(file name, module, inside a function) of every scipy import."""
    out = []
    for path in paths:
        for node, stack in _nodes([path]):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            inside = any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in stack)
            out += [(path.name, m, inside) for m in modules if m.split(".")[0] == "scipy"]
    return out


def imports(path):
    """(module, name) of every import in the file, at any depth: a relative
    module keeps its leading dots, and ``import m`` gives (m, "")."""
    out = []
    for node, _ in _nodes([path]):
        if isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out += [(module, alias.name) for alias in node.names]
    return sorted(out)


# numpy, the standard library, and of the package only the error types and
# the Gauss-Jacobi rule, its chain sequence, the chain's t-form matrix and
# its orthonormal rows, which give the oracle's basis and, at a complex
# point, its derivative
SPECTRAL_IMPORTS = sorted([
    ("__future__", "annotations"), ("math", ""), ("dataclasses", "dataclass"),
    ("numpy", ""), (".errors", "ConvergenceFailure"), (".errors", "ParameterError"),
    (".specfun", "_jacobi_chain"), (".specfun", "_orthonormal_rows"),
    (".specfun", "_t_form"), (".specfun", "gauss_jacobi"),
])


def _sources():
    return sorted(SRC.glob("*.py"))


def test_nothing_in_src_is_reached_only_from_outside():
    found = unreached(_sources())
    assert found == sorted(ENTRY_POINTS), set(found) ^ set(ENTRY_POINTS)


def test_every_defaulted_parameter_is_passed_from_src():
    found = unpassed_defaults(_sources())
    assert found == sorted(PUBLIC_KNOBS), set(found) ^ set(PUBLIC_KNOBS)


def test_every_dataclass_field_is_read_in_src():
    found = unread_fields(_sources())
    assert found == sorted(RESULT_FIELDS), set(found) ^ set(RESULT_FIELDS)


def test_every_error_type_is_raised_in_src():
    found = unraised_errors(SRC / "errors.py", _sources())
    assert found == sorted(BASE_ERRORS), set(found) ^ set(BASE_ERRORS)


def test_every_unsupported_pair_is_shown_by_a_test():
    patterns = raises_matches(sorted(TESTS.glob("*.py")), "UnsupportedPair")
    assert None not in patterns
    found = [msg for msg in refusals(_sources(), "UnsupportedPair")
             if not any(re.search(pattern, msg) for pattern in patterns)]
    assert found == []


def test_no_file_in_src_imports_scipy():
    assert scipy_imports(_sources()) == []


def test_spectral_cannot_see_the_closed_forms():
    assert imports(SRC / "spectral.py") == SPECTRAL_IMPORTS


def test_no_fft_in_src():
    found = [path.name for path in _sources()
             if "fft" in path.read_text(encoding="utf-8").lower()]
    assert found == []


def test_detects_an_unreached_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
                   "class Box:\n    def get(self):\n        return self.get\n\n"
                   "    def put(self):\n        return put\n")
    assert unreached([mod]) == ["Box", "Box.get", "Box.put", "unused"]


def test_detects_an_unpassed_default(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, b=b)\n\n\n"
                   "def g(x=0):\n    return x\n\n\n"
                   "class Box:\n    def __init__(self, size=1, tag=''):\n        pass\n\n"
                   "    def put(self, item, slot=0):\n        return item\n\n\n"
                   "f(1, 2, 3, e=5)\ng(*[])\nBox(2).put(1)\n")
    assert unpassed_defaults([mod]) == ["Box.__init__.tag", "Box.put.slot", "f.d"]


def test_detects_an_unread_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass, field\n\n\n"
                   "@dataclass(frozen=True)\nclass Point:\n    x: float\n    y: float = 0.0\n\n\n"
                   "@dataclass\nclass Tagged:\n    tag: str = field(default='')\n\n\n"
                   "class Plain:\n    z: int = 0\n\n\n"
                   "p = Point(1.0)\np.y = 2.0\nprint(p.x, Tagged().tag)\n")
    assert unread_fields([mod]) == ["Point.y"]


def test_detects_an_unraised_error_type(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text((SRC / "errors.py").read_text(encoding="utf-8")
                      + '\n\nclass Unraised(GupSpectraError):\n    """Never raised."""\n')
    assert unraised_errors(errors, _sources()) == sorted([*BASE_ERRORS, "Unraised"])
    errors.write_text("class Base(Exception):\n    pass\n\n\n"
                      "class Called(Base):\n    pass\n\n\n"
                      "class Bare(Base):\n    pass\n")
    mod = tmp_path / "mod.py"
    mod.write_text("import errors\n\n\n"
                   "def f(x):\n    if x:\n        raise errors.Bare\n"
                   "    raise Called('x')\n")
    assert unraised_errors(errors, [mod]) == ["Base"]


def test_detects_an_unshown_refusal(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(rep):\n    if rep:\n        raise Refused(f'no table for {rep}')\n"
                   "    raise Refused('plain')\n\n\n"
                   "def g():\n    raise Other('elsewhere')\n")
    assert refusals([mod], "Refused") == ["no table for {}", "plain"]
    test = tmp_path / "test_mod.py"
    test.write_text("import pytest\n\n\n"
                    "def test_f(pattern):\n"
                    "    with pytest.raises(Refused, match='no table'):\n        f(1)\n"
                    "    with pytest.raises(Refused):\n        f(0)\n"
                    "    with pytest.raises(Refused, match=pattern):\n        f(0)\n"
                    "    with pytest.raises(Other, match='else'):\n        g()\n")
    assert raises_matches([test], "Refused") == ["no table", None, None]


def test_detects_scipy_imports(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import scipy.special\nimport numpy as np\n\n\n"
                   "def f():\n    from scipy.linalg import eigh\n    from . import g\n"
                   "    return eigh\n")
    assert scipy_imports([mod]) == [("mod.py", "scipy.special", False),
                                    ("mod.py", "scipy.linalg", True)]


def test_detects_a_closed_form_import_in_spectral(tmp_path):
    text = (SRC / "spectral.py").read_text(encoding="utf-8")
    mod = tmp_path / "spectral.py"
    mod.write_text(text.replace("import numpy as np\n",
                                "import numpy as np\n\nfrom .solutions import solve\n", 1))
    assert imports(mod) == sorted(SPECTRAL_IMPORTS + [(".solutions", "solve")])
    mod.write_text("import gup_spectra.solutions as s\n\n\n"
                   "def f():\n    from .. import x\n    from . import oracle\n")
    assert imports(mod) == [(".", "oracle"), ("..", "x"), ("gup_spectra.solutions", "")]
