"""Source-level rules for the g2glue package."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
import sympy as sp

import g2glue
from g2glue import cone, kummer, torus
from g2glue import eguchi_hanson as eh

PACKAGE = Path(g2glue.__file__).parent


def _called(node):
    """The name a Call node calls, bare or as an attribute."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _imported(node):
    """The dotted names an import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # would silently stop checking
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cone_calls_no_simplify():
    # the cone oracle decides "is this zero?" by polynomial arithmetic and
    # the Eguchi-Hanson layer by an exact normal form over u = f_k(r);
    # sympy simplify made one `g2glue cone oracle` run take about 50 s
    found = []
    for name in ("cone.py", "eguchi_hanson.py", "kummer.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) == "simplify"]
    assert found == []


def test_fourier_transforms_only_in_the_torus_helpers():
    # one FFT site: torus._rfft and torus._irfft fix the backend
    # (scipy.fft) and its one worker thread for the whole package
    names = {"rfftn", "irfftn", "fftn", "ifftn"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = [range(node.lineno, node.end_lineno + 1)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and path.name == "torus.py"
                   and node.name in ("_rfft", "_irfft")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) in names
                  and not any(node.lineno in lines for lines in allowed)]
    assert found == []
    torus = ast.parse((PACKAGE / "torus.py").read_text())
    helpers = {node.name for node in ast.walk(torus)
               if isinstance(node, ast.FunctionDef)}
    assert {"_rfft", "_irfft"} <= helpers


def test_torus_builds_no_sign_tables():
    # d and delta read forms._wedge_table(7, 1, p), so there is one table
    # of exterior-product signs; torus.py builds none of its own
    tree = ast.parse((PACKAGE / "torus.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {getattr(node, "attr", getattr(node, "id", None))
              for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))}
    assert not names & {"merge_sign", "sort_index"}


def test_no_lapack_factorizations_and_no_radial_quadrature():
    # one factorization per metric: forms._spd_factor eliminates B (or a
    # user's g) once and keeps det and g^-1; and the radial distance is
    # the closed form, not one quadrature per radius; no module imports
    # scipy.integrate at all
    names = {"inv", "cholesky", "det", "slogdet", "solve"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        found += [f"{path.name}:{node.lineno}" for node in nodes
                  if isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "linalg"]
        found += [f"{path.name}:{node.lineno}" for node in nodes
                  for name in _imported(node)
                  if name.split(".")[:2] == ["scipy", "integrate"]]
    tree = ast.parse((PACKAGE / "eguchi_hanson.py").read_text())
    radial = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "radial_distance_many"]
    assert len(radial) == 1
    found += [f"eguchi_hanson.py:{node.lineno}" for fn in radial
              for node in ast.walk(fn)
              if isinstance(node, ast.Name) and node.id == "quad"]
    assert found == []


def test_importing_the_geometry_leaves_out_scipy_integrate():
    # the import rule above, seen from a fresh interpreter: nothing the
    # Eguchi-Hanson and Kummer layers import pulls scipy.integrate in
    code = ("import sys, g2glue.eguchi_hanson, g2glue.kummer; "
            "print('scipy.integrate' in sys.modules)")
    path = os.pathsep.join(p for p in (str(PACKAGE.parent),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_one_linearization_of_theta():
    # forms._theta_linear is the one linearization of Theta: theta_split
    # takes (phi, chi), with no step to tune, and evaluates theta once more,
    # at phi + chi; torus reads T0 and P0 off it and assembles no
    # projector of its own from outer products
    tree = ast.parse((PACKAGE / "forms.py").read_text())
    split = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "theta_split"]
    assert len(split) == 1
    args = split[0].args
    assert [a.arg for a in args.posonlyargs + args.args] == ["phi", "chi"]
    assert not (args.kwonlyargs or args.vararg or args.kwarg)
    calls = [node for node in ast.walk(split[0])
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr",
                         getattr(node.func, "id", None)) == "theta"]
    assert len(calls) <= 1
    torus = ast.parse((PACKAGE / "torus.py").read_text())
    assert [node.lineno for node in ast.walk(torus)
            if isinstance(node, ast.Attribute) and node.attr == "outer"] == []


def test_one_weighted_norm():
    # eguchi_hanson.weighted_norm is the one weighted norm, with the one
    # weight w_t = t + d(r): the geometry layers take the radial distance
    # only there, and draw no random pairs.  cli.suite_eh_decay keeps its
    # own k ** 0.25 + d(r): through t = k ** 0.25 the distance would be
    # taken at t ** 4, and
    # (1e-4 ** 0.25) ** 4 = 1.0000000000000002e-4 moves the bits of its
    # nu-decay-slope check
    found = []
    for name in ("eguchi_hanson.py", "kummer.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        allowed = [range(node.lineno, node.end_lineno + 1)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "weighted_norm"]
        assert len(allowed) == (1 if name == "eguchi_hanson.py" else 0)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (_called(node) == "default_rng"
                       or _called(node) == "radial_distance_many"
                       and not any(node.lineno in lines
                                   for lines in allowed))]
    assert found == []


def test_theta_of_an_eliminated_phi_takes_the_kernel():
    # Theta(phi) = *_{g(phi)} phi has its own kernel, forms._theta_at (the
    # G2 contraction identity); hodge_star stays the general star, so no
    # function passes it a phi whose metric it eliminated itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = [node for node in ast.walk(fn)
                     if isinstance(node, ast.Call)]
            eliminated = {ast.unparse(node.args[0]) for node in calls
                          if _called(node) == "metric_from_g2" and node.args}
            found += [f"{path.name}:{node.lineno}" for node in calls
                      if _called(node) == "hodge_star"
                      and len(node.args) == 2
                      and ast.unparse(node.args[1]) in eliminated]
    assert found == []


# public names that nothing in the package, the bench or the demos reads,
# each kept for its reason
UNREAD_PUBLIC = {
    "cone.kappa_feasible": "criterion 09 certifies it",
    "torus.load_field": "the reader of the documented --dump format",
    "kummer.INVARIANT_PHI_TERMS": "the Gamma-invariant flat form, L's image "
                                  "of phi0; tests pin it, torus reads L_PERM",
}


def test_public_names_have_a_program_reader():
    # every name in a module's __all__ is read, as a Name or an attribute,
    # by the package, the bench or a demo; reads inside the name's own
    # definition do not count, and __all__ and the re-exports of __init__
    # are strings and import aliases, not reads
    root = Path(__file__).resolve().parent.parent
    files = sorted(PACKAGE.glob("*.py")) + [
        path for folder in ("bench", "demos")
        for path in sorted((root / folder).glob("*.py"))
        if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    reads = [(node.id if isinstance(node, ast.Name) else node.attr,
              path, node.lineno)
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"g2glue.{path.stem}")
        if path.name == "__init__.py" or not hasattr(module, "__all__"):
            continue
        own = {node.name: range(node.lineno, node.end_lineno + 1)
               for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in module.__all__:
            inside = own.get(name, range(0))
            if not any(read == name and not (where == path and line in inside)
                       for read, where, line in reads):
                unread.add(f"{path.stem}.{name}")
    assert unread == set(UNREAD_PUBLIC)


# arguments for every lru_cache'd function of the package; a cached
# function missing here fails the sweep below
CACHED_CALLS = {
    "forms.index_list": [(7, 3)],
    "forms.index_position": [(7, 3)],
    "forms._wedge_table": [(7, 2, 2)],
    "forms._contraction_plan": [(7, 3), (4, 2)],
    "forms._complement": [(7, 3), (7, 4)],
    "forms._bryant_gathers": [()],
    "forms._theta_gathers": [()],
    "eguchi_hanson._monomials": [(2,)],
    "kummer._glue_slots": [()],
    "kummer._fiber_forms": [()],
    "torus.derivative_ops": [(4,)],
    "torus._gamma_prime": [()],
    "torus._component_signs": [(2,), (4,)],
    "torus._orbit_tables": [(4,)],
    "torus._mode_orbits": [(4,)],
    "torus.flat_t_matrix": [()],
    "torus.flat_p_matrix": [()],
}


def _writable(obj, path, seen):
    """Paths of the writable arrays and mutable containers reachable from
    a cached result: through tuples, read-only mappings and the attributes
    of plain objects (sympy expressions and functions are immutable)."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.flags.writeable else []
    if isinstance(obj, (list, dict, set, bytearray)):
        return [path]
    if isinstance(obj, (tuple, frozenset)):
        items = enumerate(obj)
    elif isinstance(obj, MappingProxyType):
        items = obj.items()
    elif (hasattr(obj, "__dict__") and not callable(obj)
          and not isinstance(obj, sp.Basic)):
        items = vars(obj).items()
    else:
        return []
    return [p for key, value in items
            for p in _writable(value, f"{path}[{key!r}]", seen)]


def test_cached_tables_are_read_only():
    # a cached table is one object shared by every caller: a write into
    # it would change every later result in the process
    modules = {name: importlib.import_module(f"g2glue.{name}")
               for name in ("forms", "torus", "kummer", "eguchi_hanson",
                            "cone", "cli")}
    cached = {f"{name}.{attr}" for name, module in modules.items()
              for attr, value in vars(module).items()
              if hasattr(value, "cache_info")
              and value.__module__ == module.__name__}
    assert cached == set(CACHED_CALLS)
    found = []
    for qualname, arg_lists in CACHED_CALLS.items():
        name, attr = qualname.split(".")
        for args in arg_lists:
            result = getattr(modules[name], attr)(*args)
            found += _writable(result, f"{qualname}{args}", set())
    assert found == []


# Fixed data are constants, not parameters: the cone is 4-dimensional
# over SO(3), a gluing chart is GluingChart(t) with zeta = 1/9, b2 is
# computed from the group, the rate tables fix their own grid and loss.
# At n = 7 critical_rates used to read a 3-dimensional link's tables.
@pytest.mark.parametrize("call", [
    lambda: cone.critical_rates(cone.so3_link(), 2, -6, 2, n=7),
    lambda: cone.log_kernel_check(-2, 2, n=4),
    lambda: cone.log_kernel_check(-2, 2, link=cone.so3_link()),
    lambda: cone.index_change(2, -3, -1, n=5),
    lambda: cone.index_change(2, -3, -1, link=cone.so3_link()),
    lambda: cone.cone_laplacian_apply(-2, 2, 4, 0,
                                      cone.LinkPairData(2, 2)),
    lambda: cone.refined_gradient_table(Fraction(1, 1000)),
    lambda: cone.best_B(cone.naive_gradient_table, -2,
                        grid_denominator=20),
    lambda: kummer.glued_structure(0.05, [1e-3],
                                   chart=kummer.GluingChart(0.05)),
    lambda: kummer.torsion_form(0.05, [1e-3], kummer.GluingChart(0.05)),
    lambda: kummer.GluingChart(0.05, zeta=0.2),
    lambda: kummer.singular_components(b2_torus_quotient=3),
    lambda: eh.f_sym(k=1),
    lambda: torus.derivative_ops(2).inv_laplacian(
        torus.SpectralField.zero(2, 2), project=True),
    lambda: eh.sphere_geometry(1.0, n_theta=32),
    lambda: eh.sphere_geometry(1.0, n_phi=32),
], ids=["critical_rates-n", "log_kernel_check-n", "log_kernel_check-link",
        "index_change-n", "index_change-link", "cone_laplacian_apply-n",
        "refined_gradient_table-gamma", "best_B-grid_denominator",
        "glued_structure-chart", "torsion_form-chart", "GluingChart-zeta",
        "singular_components-b2", "f_sym-k", "inv_laplacian-project",
        "sphere_geometry-n_theta", "sphere_geometry-n_phi"])
def test_removed_parameters_raise(call):
    with pytest.raises(TypeError):
        call()
