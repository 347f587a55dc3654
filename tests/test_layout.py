"""Dead-code guard: every top-level function, class and method of the
package has a use.

A definition is used when it is read elsewhere in ``src/`` (outside its
own body), when ``perfbench/tracer.py`` resolves it by name, or when it
is listed below: a paper relation that awaits a report record, or
reference code of the tests.  Dunder methods are called by the language
and count as used.  A method that shares its name with a data attribute
(``Poly.shift`` and the ``shift`` field of ``ThetaFactor``) is used only
when it is called or aliased.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elliptic_baxter"

sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import TARGETS  # noqa: E402

# Relations of the paper that are implemented and tested but carried by no
# report yet; each leaves this list once a suite records it, or goes with
# its tests.
AWAITING_RECORD = {
    "transfer.qq_relation_residual": "QQ relation Q(z+l*hbar) t_0 = t_l Q",
    "transfer.spectral_shift_residual": "spectral-shift covariance of the transfer series",
    "modules.spectral_shift": "twisted module of the spectral-shift relation",
    "qchar.generalized_baxter": "generalized Baxter relations in the q-character ring",
    "modules.construct_simple": "simple-module construction",
    "modules.cyclicity_predicates": "cyclicity of the simple modules",
    "modules.highest_vector_count": "highest-weight vectors of the simple modules",
    "qchar.classify_highest_weight": "highest-weight classification of the simple modules",
    "yangian.yangian_qchar": "exact q-characters of the rational twin",
    "yangian.qchar_finite_term": "exact finite-spin q-character term",
    "yangian.qchar_oscillator_term": "exact oscillator q-character term",
    "bethe.yangian_bethe_solve": "two-site Bethe roots of the rational twin",
    "yangian.product_residual": "exact tensor-product rule of the rational twin",
}

# Reference code that tests build or compare against, with no reader in the
# package.
TEST_REFERENCES = {
    "theta.ThetaSum.eval": "scalar evaluation of the symbolic oracles",
    "packed.PSeriesMatrix.tables": "Fraction views the packed-calculus tests compare",
    "polyring.Poly.shift": "Taylor shift of the poly_site_values oracle and the Poly tests",
    "qchar.QCharElement.term_list": "[monomial, multiplicity] view of a step the ring tests read",
    "theta.theta_eval_array": "checked vectorized theta the kernel tests compare with theta_eval",
    "modules.gauss_reconstruction_residual": "Gauss reconstruction of any module, tensors included",
}


def data_attributes(trees):
    """Names the package stores on objects (``x.name = ...``) or annotates
    in a class body (dataclass fields): a read of such a name may be data,
    not a method."""
    names = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                names.add(n.attr)
            elif isinstance(n, ast.ClassDef):
                names |= {item.target.id for item in n.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    return names


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
               for d in node.decorator_list)


def definitions(tree, module, data):
    """(qualified name, read key, node) of the top-level functions and
    classes and of the methods of the top-level classes.  The read key of a
    method is its bare name; a non-property method that shares its name
    with a data attribute is keyed ``name()``, read only through a call or
    a class-body alias."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    called = item.name in data and not _is_property(item)
                    yield (f"{module}.{node.name}.{item.name}",
                           f"{item.name}()" if called else item.name, item)


def _resolved_reads(module, tree):
    """(definition, line) for each name this module reads: a bare name is
    resolved through ``from .other import name`` or else to this module;
    ``other.name`` resolves through ``from . import other``.  A method is
    read through an attribute (``x.name``) or a class-body alias
    (``__rmul__ = __mul__``), keyed by its bare name, since the class of
    an attribute's owner is not known, and also keyed ``name()`` when the
    attribute is called or aliased; a bare name elsewhere is a local,
    global or import, not a method."""
    imported, modules = {}, {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for alias in n.names:
                local = alias.asname or alias.name
                if n.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = f"{n.module}.{alias.name}"
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield imported.get(n.id, f"{module}.{n.id}"), n.lineno
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id in modules:
                yield f"{modules[n.value.id]}.{n.attr}", n.lineno
            yield n.attr, n.lineno
            if id(n) in called:
                yield f"{n.attr}()", n.lineno
        elif isinstance(n, ast.ClassDef):
            for item in n.body:
                if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    yield item.value.id, item.lineno
                    yield f"{item.value.id}()", item.lineno


def outside_reads():
    """Qualified name of every non-dunder definition: the number of reads
    of it in the package outside the lines of its own definition.  A
    module-level definition is read by its own module or through an import
    of it; a method by any attribute read or class-body alias of its
    name, or by a call or alias of it when the name is also data."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    data = data_attributes(trees.values())
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for key, line in _resolved_reads(module, tree):
            reads.setdefault(key, []).append((module, line))
    return {
        qualname: sum(1 for m, line in reads.get(key, ())
                      if m != module or not node.lineno <= line <= node.end_lineno)
        for module, tree in trees.items()
        for qualname, key, node in definitions(tree, module, data)
        if not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_has_a_use():
    traced = {f"{t.module}.{t.path}" for t in TARGETS}
    unused = [q for q, n in outside_reads().items()
              if n == 0 and q not in traced and q not in AWAITING_RECORD | TEST_REFERENCES]
    assert unused == []


def test_allowlists_name_only_unread_definitions():
    # an entry whose code is gone, or that gained a reader, leaves its list
    counts = outside_reads()
    listed = AWAITING_RECORD | TEST_REFERENCES
    assert {q: counts.get(q) for q in listed} == dict.fromkeys(listed, 0)


def private_names(tree):
    """The `_`-prefixed names a module defines: its top-level functions,
    classes and constants, its classes' methods, and the attributes its
    code stores on objects; dunder names excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    names |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in names
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def test_packed_format_stays_in_its_module():
    # the packed format and its one layout rule are known to `packed`
    # alone: no other module reads a private name that `packed` defines,
    # whether imported from it or read as an attribute
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    private = private_names(trees["packed"])
    reads = sorted(
        (module, n.lineno, name)
        for module, tree in trees.items() if module != "packed"
        for n in ast.walk(tree)
        for name in (
            [alias.name for alias in n.names]
            if isinstance(n, ast.ImportFrom) and n.module == "packed"
            else [n.attr] if isinstance(n, ast.Attribute) else [])
        if name in private)
    assert reads == []


def test_no_kronecker_packing_left():
    # the exact traces contract int coefficient arrays: no module defines
    # or reads a Kronecker packing or its balanced-digit decode, and no
    # text describes one
    gone = {"pack_sites", "_pack", "_digits", "_slot_width"}
    found = sorted(
        (p.stem, n.lineno, name)
        for p in sorted(PACKAGE.glob("*.py"))
        for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        for name in ([n.name] if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     else [n.id] if isinstance(n, ast.Name)
                     else [n.attr] if isinstance(n, ast.Attribute) else [])
        if name in gone)
    assert found == []
    assert [p.stem for p in sorted(PACKAGE.glob("*.py"))
            if "kronecker" in p.read_text(encoding="utf-8").lower()] == []


def callers(name):
    """Qualified names of the package's top-level functions and methods
    (and ``module.<module>`` for other code) that call ``name``, bare or
    as an attribute."""
    found = set()
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(p.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                           else node.name, item) for item in node.body]
            else:
                scopes = [(node.name if isinstance(node, ast.FunctionDef) else "<module>", node)]
            found |= {f"{p.stem}.{qualname}" for qualname, scope in scopes
                      for n in ast.walk(scope) if isinstance(n, ast.Call)
                      and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))}
    return found


def test_elliptic_modules_have_one_stored_form():
    # a module is given its flat terms only; its symbolic L is a view,
    # and that view and the composition calculus alone build operators
    tree = ast.parse((PACKAGE / "modules.py").read_text(encoding="utf-8"))
    init = next(item for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "EllipticModule"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__")
    args = init.args
    assert "L" not in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert callers("ModuleOperator") == {"modules.EllipticModule.L",
                                         "dynamical.compose_module_ops",
                                         "dynamical.invert_weightwise"}
