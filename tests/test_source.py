"""Nothing in src/gup_spectra exists only for callers outside it.

Three checks, each with its named exemptions:

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
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gup_spectra"

ENTRY_POINTS = {
    "_Parser.error": "argparse calls it on a malformed command line",
    "boundary_beta": "public one-alpha case of the phase kernel",
    "ClosedFormSolution.energies": "public: the closed-form ladder E_0..E_n",
    "metric_generic": "public: the metric assembled from the generic transform",
    "assoc_legendre": "public Ferrers function, kept with its normalization",
    "v_from_Qw": "public: the gauge factor v(q) of a factorization ansatz",
}

PUBLIC_KNOBS = {
    "main.argv": "the console script passes none; embedding callers pass argv",
    "boundary_beta.params": "public entry point: hbar and omega of the boundary",
}

RESULT_FIELDS = {
    "SpectrumResult.grid_sizes": "FD provenance, to be reported with the result",
    "SpectrumResult.raw": "FD provenance, to be reported with the result",
    "SpectrumResult.error_estimates": "FD provenance, to be reported with the result",
    "SpectrumResult.wall_exponents": "FD provenance, to be reported with the result",
    "SpectrumResult.certified": "FD provenance, to be reported with the result",
    "VerifyReport.closed": "the closed-form side of the comparison",
    "VerifyReport.passed": "the verdict at the report's tolerance",
    "VerifyReport.tolerance": "the tolerance the verdict used",
    "PhaseCurve.monotone": "the scan's in-window consistency check",
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
