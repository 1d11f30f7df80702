"""Static checks over the package source, read as syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eaqmds"

# the two routes check each other, so neither may lean on the other: the
# set route and the errata audit load no field code, the matrix route and
# primes, the prime-power parser it shares with families, no set algebra;
# crosscheck alone imports both routes, to compare them
SET_ROUTE = ("cosets", "codes", "eaqecc", "families", "errata")
MATRIX_ROUTE = ("gf", "oracle")

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


def _crossings(stems, forbidden):
    """Each module of stems that imports one of forbidden, with those it
    imports."""
    out = {}
    for stem in stems:
        hits = _imported_modules(ast.parse((SRC / f"{stem}.py").read_text())) & forbidden
        if hits:
            out[stem] = sorted(hits)
    return out


def test_set_route_imports_no_field_arithmetic():
    assert _crossings(SET_ROUTE, {*MATRIX_ROUTE, "crosscheck"}) == {}


def test_matrix_route_imports_nothing_of_the_set_route():
    # the matrix route builds its minimal polynomials from the Lucas traces
    # and takes Z as plain residues, so it borrows no orbit and no set type
    assert _crossings((*MATRIX_ROUTE, "primes"), {*SET_ROUTE, "crosscheck"}) == {}


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
    assert bad == []


def _bound_names(node):
    """The names a top-level statement binds: a def or class, or the plain
    names an assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(tree):
    """Every name a tree reads, as a variable or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_definition_is_used_in_the_package():
    # a public top-level function or class, or a public method or property
    # of a public class, that no code of the package names serves only the
    # tests, which hold such references themselves
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                defined.append((node.name, f"{path.stem}.{node.name}"))
                if isinstance(node, ast.ClassDef):
                    defined.extend(
                        (item.name, f"{path.stem}.{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                    )
        used |= _read_names(tree)
    assert [where for name, where in defined if name not in used] == []


def test_every_private_definition_and_import_is_used_in_the_package():
    # a private top-level definition that no code of the package reads, or
    # a name that a module imports and never reads, is left over from code
    # that went, or serves only the tests, which define what they need
    private, unread_imports, used = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        private.extend(
            (name, f"{path.stem}.{name}")
            for node in tree.body
            for name in _bound_names(node)
            if name.startswith("_") and not name.startswith("__")
        )
        read = _read_names(tree)
        used |= read
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        unread_imports.extend(
            f"{path.name}:{node.lineno}: {bound}"
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := (alias.asname or alias.name).split(".")[0]) not in read
        )
    assert [where for name, where in private if name not in used] == []
    assert unread_imports == []
