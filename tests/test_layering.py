"""Layering: no locpv module reaches into another module's private names,
every module uses each name it imports, the velocity modules decide poles
only through ``phasevel.is_pole``, and no module imports scipy when it is
loaded."""

import ast
from pathlib import Path

import pytest

import locpv

PACKAGE = Path(locpv.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """Private names a module defines: functions, classes, methods, variables
    and the attributes it stores."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if _private(n)}


def _imported_module(node):
    """The locpv module an ``ImportFrom`` reads from, or None for other packages."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "locpv":
        return node.module.partition(".")[2] or "__init__"
    return None


def private_reaches(source, current, defined):
    """(line, text) of each private name of another locpv module that module
    ``current`` imports or reads as an attribute; ``defined`` maps each other
    module to its private names."""
    tree = ast.parse(source)
    own = private_definitions(tree)
    elsewhere = set().union(*(v for k, v in defined.items() if k != current)) - own
    modules = {}  # local name -> the locpv module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node) is not None:
            target = _imported_module(node)
            for alias in node.names:
                if target == "__init__" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name) and target != current:
                    found.append((node.lineno, f"{target}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "locpv":
                    module = parts[1] if alias.asname and len(parts) > 1 else "__init__"
                    modules[alias.asname or "locpv"] = module
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        chain, base = [], node.value
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            # module.name or locpv.module.name
            target = modules[base.id]
            if target == "__init__" and chain and chain[0] in MODULES:
                target, chain = chain[0], chain[1:]
            if not chain and target != current:
                found.append((node.lineno, f"{target}.{node.attr}"))
        elif not (isinstance(base, ast.Name) and base.id in ("self", "cls") and not chain):
            # an object of another module's class: obj._helper
            if node.attr in elsewhere:
                found.append((node.lineno, f"<object>.{node.attr}"))
    return found


DEFINED = {m: private_definitions(ast.parse((PACKAGE / f"{m}.py").read_text())) for m in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_reaches(source, module, DEFINED) == []


@pytest.mark.parametrize(
    "source, reach",
    [
        ("from .field import _diff_axis", "field._diff_axis"),
        ("from locpv.field import Grid1x1, _central_offsets", "field._central_offsets"),
        ("from . import field as f\nf._diff_axis", "field._diff_axis"),
        ("from . import _private_helper", "__init__._private_helper"),
        ("import locpv.field as f\nf._diff_axis", "field._diff_axis"),
        ("import locpv.field\nlocpv.field._diff_axis", "field._diff_axis"),
        # the reach-in that SampledField.derivatives_on replaced
        ("def f(field):\n    return field._spline(0, 1)", "<object>._spline"),
        ("def f(s):\n    return s.values, s._deriv_grids", "<object>._deriv_grids"),
    ],
    ids=["from-relative", "from-absolute", "module-alias", "package", "import-as",
         "import-dotted", "object-method", "object-attribute"],
)
def test_checker_finds_private_reaches(source, reach):
    assert [text for _, text in private_reaches(source, "phasevel", DEFINED)] == [reach]


@pytest.mark.parametrize(
    "source",
    [
        "from . import field\nfield.SampledField",
        "from .field import __all__",
        "from numpy import _globals",
        "import numpy as np\nnp._NoValue",
        "self._spline(0, 0)",
        "from .phasevel import _deriv_arrays",  # the module's own name
        "def _spline(): pass\nobj._spline",  # a name the module defines itself
    ],
    ids=["public", "dunder", "other-package", "other-package-attribute", "self",
         "own-import", "own-name"],
)
def test_checker_allows_public_and_own_names(source):
    assert private_reaches(source, "phasevel", DEFINED) == []


def unused_imports(source):
    """(line, name) of each name the module imports and never reads; a name
    listed in ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in read]


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import json", ["json"]),
        ("import os.path", ["os"]),
        ("from dataclasses import dataclass, field as dc_field\n@dataclass\nclass A: pass",
         ["dc_field"]),
        ("from .field import Grid1x1\n__all__ = ['Jet']", ["Grid1x1"]),
    ],
    ids=["module", "dotted", "alias", "not-exported"],
)
def test_import_checker_finds_unused_names(source, unused):
    assert [name for _, name in unused_imports(source)] == unused


@pytest.mark.parametrize(
    "source",
    [
        "from __future__ import annotations",
        "import numpy as np\nnp.zeros",
        "import os.path\nos.path.join",
        "from .field import Grid1x1\n__all__ = ['Grid1x1']",
        "from .field import Grid1x1\ndef f(g: Grid1x1): pass",
    ],
    ids=["future", "attribute", "dotted", "re-export", "annotation"],
)
def test_import_checker_allows_used_names(source):
    assert unused_imports(source) == []


def literal_thresholds(source):
    """(line, value) of each nonzero float literal of magnitude below 1e-6 in a
    comparison: a tolerance written in place, where a pole test belongs to
    ``is_pole``. An exact test against 0.0 is not a tolerance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                found += [(c.lineno, c.value) for c in ast.walk(operand)
                          if isinstance(c, ast.Constant) and isinstance(c.value, float)
                          and 0.0 < abs(c.value) < 1e-6]
    return found


@pytest.mark.parametrize("module", ["phasevel", "media", "relativity"])
def test_velocity_modules_have_no_literal_pole_thresholds(module):
    assert literal_thresholds((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, values",
    [
        ("abs(den) < 1e-300", [1e-300]),
        ("np.any(np.abs(dens) < 1e-12)", [1e-12]),
        ("if x > -1e-9 * y: pass", [1e-9]),
        ("a < b < 2.5e-7 + c", [2.5e-7]),
    ],
    ids=["absolute", "call", "scaled", "chained"],
)
def test_threshold_checker_finds_literals(source, values):
    assert [v for _, v in literal_thresholds(source)] == values


@pytest.mark.parametrize(
    "source",
    ["row == 0.0", "ratio > 1.0 + SUBLUMINAL_TOL", "abs(den) < EPS_DEN_FLOOR",
     "EPS_DEN_FLOOR = 1e-300", "x < 1e-3"],
    ids=["exact-zero", "named-slack", "named-floor", "assignment", "large"],
)
def test_threshold_checker_allows_named_and_exact_values(source):
    assert literal_thresholds(source) == []


def load_time_imports(source):
    """(line, module) of each import of scipy that runs when the module is
    loaded: every one outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                  and child.module.split(".")[0] == "scipy"):
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return found


# scipy.interpolate alone takes most of a second to import; the commands that
# build no spline or quadrature start without it
@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy_when_loaded(module):
    assert load_time_imports((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from scipy.interpolate import RectBivariateSpline", ["scipy.interpolate"]),
        ("import numpy as np, scipy.integrate as si", ["scipy.integrate"]),
        ("import scipy", ["scipy"]),
        ("class A:\n    from scipy.integrate import quad", ["scipy.integrate"]),
        ("try:\n    import scipy\nexcept ImportError:\n    pass", ["scipy"]),
    ],
    ids=["from", "alias", "package", "class-body", "try"],
)
def test_load_time_checker_finds_scipy_imports(source, modules):
    assert [m for _, m in load_time_imports(source)] == modules


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    from scipy.interpolate import PchipInterpolator",
        "class A:\n    def f(self):\n        import scipy.integrate",
        "async def f():\n    import scipy",
        "import scipyx\nfrom .scipy import quad\nimport numpy",
    ],
    ids=["function", "method", "async", "other-packages"],
)
def test_load_time_checker_allows_imports_in_functions(source):
    assert load_time_imports(source) == []
