"""Every function and class in src/gup_spectra is reached from src itself.

A definition counts as reached when its name appears as a ``Name`` or an
``Attribute`` somewhere in src outside its own body; a method only as an
``Attribute``.  Dunder methods are called by Python itself.  The public
entry points below are reached from outside src only.
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


def _definitions_and_references(paths):
    defs, refs = [], []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def _define(self, node):
            method = bool(self.stack) and isinstance(self.stack[-1], ast.ClassDef)
            qualname = ".".join([n.name for n in self.stack] + [node.name])
            defs.append((qualname, node.name, method, node))
            self.stack.append(node)
            self.generic_visit(node)
            self.stack.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

        def visit_Name(self, node):
            refs.append((node.id, False, tuple(self.stack)))

        def visit_Attribute(self, node):
            refs.append((node.attr, True, tuple(self.stack)))
            self.generic_visit(node)

    for path in paths:
        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return defs, refs


def unreached(paths):
    defs, refs = _definitions_and_references(paths)
    out = []
    for qualname, name, method, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(ref == name and (attr or not method) and node not in enclosing
                   for ref, attr, enclosing in refs):
            out.append(qualname)
    return sorted(out)


def test_nothing_in_src_is_reached_only_from_outside():
    found = unreached(sorted(SRC.glob("*.py")))
    assert found == sorted(ENTRY_POINTS), set(found) ^ set(ENTRY_POINTS)


def test_detects_an_unreached_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
                   "class Box:\n    def get(self):\n        return self.get\n\n"
                   "    def put(self):\n        return put\n")
    assert unreached([mod]) == ["Box", "Box.get", "Box.put", "unused"]
