"""Static checks over the package source, read as syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eaqmds"

# the set route and the errata audit must stay independent of the matrix
# route in oracle, which is what checks them
SET_ROUTE = ("cosets", "codes", "eaqecc", "families", "errata")

# the set route computes in no field: it imports nothing from gf but the
# prime-power parser, which families classifies q with
GF_NAMES_ALLOWED = {
    "cosets": set(), "codes": set(), "eaqecc": set(), "errata": set(), "families": {"PrimePower"},
}

# the lookup tables of an extension field belong to gf, which builds them
# with the field in build_field; every other module computes through the
# field's own add, sub, neg, mul, pow and inv
TABLE_ATTRS = {"_exp", "_log", "_zech"}


def _imported_modules(tree):
    """The last dotted name of every module a tree imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.split(".")[-1])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
    return out


def _names_from_gf(tree):
    """The names a tree imports from gf, and "gf" itself where it imports
    the module whole."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "gf":
                out.update(alias.name for alias in node.names)
            else:  # from . import gf, from eaqmds import gf
                out.update(alias.name for alias in node.names if alias.name == "gf")
        elif isinstance(node, ast.Import):
            out.update("gf" for alias in node.names if alias.name.split(".")[-1] == "gf")
    return out


def test_set_route_imports_no_field_arithmetic():
    bad = []
    for stem, allowed in sorted(GF_NAMES_ALLOWED.items()):
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        extra = _names_from_gf(tree) - allowed
        if extra:
            bad.append(f"{stem}.py imports {sorted(extra)} from gf")
    assert bad == []


def test_gf_imports_nothing_from_cosets():
    # the matrix route builds its minimal polynomials from the Lucas traces
    # alone, so it borrows no orbit from the set route
    assert "cosets" not in _imported_modules(ast.parse((SRC / "gf.py").read_text()))


def test_source_hygiene():
    # an assert vanishes under python -O, so no check may be one; a true
    # division makes a float in a package whose arithmetic is exact
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                bad.append(f"{path.name}:{node.lineno}: assert")
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                bad.append(f"{path.name}:{node.lineno}: true division")
            if path.stem != "gf" and isinstance(node, ast.Attribute) and node.attr in TABLE_ATTRS:
                bad.append(f"{path.name}:{node.lineno}: reads {node.attr}")
            # G and H are held as their row-0 vectors; only tests write them out
            if isinstance(node, ast.Call) and "dense" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None),
            ):
                bad.append(f"{path.name}:{node.lineno}: calls dense")
        if path.stem in SET_ROUTE and "oracle" in _imported_modules(tree):
            bad.append(f"{path.name}: imports oracle")
    assert bad == []


def test_every_public_definition_is_used_in_the_package():
    # a public top-level function or class that no code of the package names
    # serves only the tests, which hold such references themselves
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                defined.append((node.name, f"{path.stem}.{node.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [where for name, where in defined if name not in used] == []
