import ast
import collections
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nsverify

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsverify.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"nsverify.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    """Every name a module imports is used in it or listed in its
    ``__all__``."""
    tree = ast.parse((Path(nsverify.__path__[0]) / f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"nsverify.{name}"), "__all__", ()))
    unused = sorted(f"{bound} (line {line})" for bound, line in imported.items()
                    if bound not in used)
    assert unused == []


ROOT = Path(nsverify.__path__[0])
BENCH = ROOT.parents[1] / "bench"
# public names that no package module and no benchmark file uses, and why
# they stay: the snapshot writer keeps the file format known to one module
UNREACHED_PUBLIC = {("snapshot_io.py", "write_snapshot")}


def top_level_definitions(trees):
    """``(module, name, node)`` of every top-level function, class and
    assignment target of the parsed modules."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(module, name, node) for name in names]
    return out


def name_uses(trees):
    """``(module, name, line)`` of every load, attribute and import."""
    uses = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses += [(module, alias.name, node.lineno) for alias in node.names]
    return uses


def unused(definitions, uses):
    """The definitions used nowhere outside their own body."""
    return [
        (module, name) for module, name, node in definitions
        if not any(
            used == name and not (
                where == module and node.lineno <= line <= node.end_lineno)
            for where, used, line in uses
        )
    ]


def test_no_unused_private_definitions():
    """Every top-level private name (``_name``) a module defines is used
    somewhere in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in ROOT.glob("*.py")}
    definitions = [
        (module, name, node) for module, name, node in top_level_definitions(trees)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(definitions) > 30
    assert unused(definitions, name_uses(trees)) == []


def test_no_public_definitions_that_only_tests_reach():
    """Every top-level public name a module defines is used outside its own
    definition by the package (the CLI included) or by a file under
    ``bench/``; a re-export from the package root does not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in ROOT.glob("*.py")}
    definitions = [
        (module, name, node) for module, name, node in top_level_definitions(trees)
        if not name.startswith("_")
    ]
    del trees["__init__.py"]
    assert BENCH.is_dir()
    trees.update(
        (str(path), ast.parse(path.read_text())) for path in BENCH.rglob("*.py"))
    assert len(definitions) > 100
    assert set(unused(definitions, name_uses(trees))) == UNREACHED_PUBLIC


# dataclass fields that package code reads only in ``__post_init__`` or
# ``validate``, and why they stay
UNREAD_FIELDS = {
    ("ScenarioConfig", "schema_version"):
        "an input-format check: validate is its one reader by design",
    ("TrajectoryConfig", "alpha"):
        "simulate never reads it, but bench/worker.py::kernels passes "
        "alpha=0.1; it goes once that call drops it",
}


def attribute_reads(tree, skipped=("__post_init__", "validate")):
    """``(owner, name)`` of every attribute load ``x.name`` of a parsed module
    outside the functions named in ``skipped``. ``owner`` is the class of
    ``x`` where the code names it: ``self`` in a class body, or a parameter
    annotated with a class in an enclosing function; otherwise None."""
    reads = set()

    def visit(node, owners):
        if isinstance(node, ast.ClassDef):
            owners = {**owners, "self": node.name}
        elif isinstance(node, ast.FunctionDef):
            if node.name in skipped:
                return
            owners = {**owners, **{
                arg.arg: arg.annotation.id for arg in node.args.args
                if isinstance(arg.annotation, ast.Name)}}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = getattr(node.value, "id", None)
            reads.add((owners.get(receiver), node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, {})
    return reads


def test_every_config_and_report_field_is_read():
    """Every field of the configuration dataclasses and of the check report
    is read by package code outside ``__post_init__`` and ``validate``, so a
    setting that changes nothing, or a report value nobody reads, fails here.
    A field name that two of these classes share counts only where the code
    names the receiver's class (``alpha`` of a trajectory is not ``alpha`` of
    a scenario); a name that one class has counts wherever it is read."""
    from nsverify.dynamics import TrajectoryConfig
    from nsverify.fields import FieldSpec
    from nsverify.harness import ScenarioConfig
    from nsverify.ledger import InequalityReport

    classes = (ScenarioConfig, TrajectoryConfig, FieldSpec, InequalityReport)
    reads = set().union(*(attribute_reads(ast.parse(path.read_text()))
                          for path in ROOT.glob("*.py")))
    owners = collections.Counter(f.name for cls in classes
                                 for f in dataclasses.fields(cls))
    unread = {
        (cls.__name__, f.name) for cls in classes for f in dataclasses.fields(cls)
        if (cls.__name__, f.name) not in reads
        and not (owners[f.name] == 1 and any(name == f.name for _, name in reads))
    }
    assert unread == set(UNREAD_FIELDS)


def getattr_table_reads(tree, bound):
    """``(module, key)`` for every key of a module-level table of names that
    a loop over the table reads by ``getattr(module, key)``, as
    ``bench/spans.py`` wraps the spectral transforms."""
    tables = {
        target.id: [key.value for key in node.value.keys]
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and all(isinstance(key, ast.Constant) for key in node.value.keys)
        for target in node.targets if isinstance(target, ast.Name)
    }
    return [
        (bound[call.args[0].id], key)
        for loop in ast.walk(tree) if isinstance(loop, ast.For)
        for table in ast.walk(loop.iter)
        if isinstance(table, ast.Name) and table.id in tables
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
        and getattr(call.args[0], "id", None) in bound
        for key in tables[table.id]
    ]


def bench_module_reads():
    """``(module, attr)`` of every ``x.attr`` in ``bench/*.py`` where ``x``
    came from ``from nsverify import x``, once per use, and of every name
    such a file reads from ``x`` by ``getattr`` over a table of names. A
    patched attribute counts too: patching a name the module no longer has
    would silently measure nothing."""
    reads = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "nsverify"
            for alias in node.names
        }
        reads += [
            (bound[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ]
        reads += getattr_table_reads(tree, bound)
    return reads


def test_the_benchmark_reads_resolve():
    """A name the benchmark reads or patches on a package module exists, so
    deleting one (say ``cutoffs.weight_tables``) fails here, not only in the
    benchmark."""
    reads = bench_module_reads()
    assert len(reads) >= 51
    # read only by getattr over bench/spans.py's table of transforms
    assert {("spectral", "transform_forward"), ("spectral", "transform_inverse")} <= set(reads)
    missing = sorted(f"{module}.{attr}" for module, attr in reads
                     if not hasattr(importlib.import_module(f"nsverify.{module}"), attr))
    assert missing == []


def callers(tree, name):
    """Top-level functions of a module whose bodies call ``name``."""
    return {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
    }


def test_one_quadratic_product_kernel():
    """``dynamics.rotational_product`` is the one function that transforms a
    pointwise product forward: in ``dynamics`` only it calls the forward
    transform, and only the integrator's tendency and the weak-form pass call
    it; the ledger's transfer calls it and the ledger imports no forward
    transform, and ``spectral`` defines no cross product."""
    trees = {path.name: ast.parse(path.read_text()) for path in ROOT.glob("*.py")}
    assert callers(trees["dynamics.py"], "phys_to_spec") == {"rotational_product"}
    assert callers(trees["dynamics.py"], "rotational_product") == {
        "_nonlinear_tendency", "weak_integrands"}
    assert callers(trees["ledger.py"], "rotational_product") == {"_shell_transfer"}
    ledger_imports = {alias.name for node in ast.walk(trees["ledger.py"])
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "phys_to_spec" not in ledger_imports
    spectral = top_level_definitions({"spectral.py": trees["spectral.py"]})
    assert "cross" not in {name for _, name, _ in spectral}


# numpy calls that reduce through BLAS, whose summation order follows its
# thread count
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def blas_reductions(tree):
    """Lines of a parsed module that reduce through BLAS: a call named in
    ``BLAS_CALLS`` (``np.dot``, a ``.dot`` method), the ``@`` operator, or an
    ``einsum`` given ``optimize``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS or (
                    name == "einsum"
                    and any(k.arg == "optimize" for k in node.keywords)):
                lines.append(node.lineno)
    return lines


def test_no_blas_reduction():
    """Every full-lattice sum is a ``spectral.shell_sum`` and numpy's own
    ``sum``, so no output depends on the BLAS thread count."""
    found = {}
    for path in ROOT.glob("*.py"):
        lines = blas_reductions(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}
    probe = ast.parse("a @ b\nnp.dot(a, b)\nx.vdot(y)\nnp.einsum('i,i', a, b, optimize=True)")
    assert blas_reductions(probe) == [1, 2, 3, 4]


def test_multiplicity_is_read_by_shell_sum_only():
    """The stored modes' multiplicity weights a sum in one place:
    ``spectral.shell_sum``."""
    trees = {path.name: ast.parse(path.read_text()) for path in ROOT.glob("*.py")}
    readers = {
        (module, node.name)
        for module, tree in trees.items() for node in tree.body
        for attr in ast.walk(node)
        if isinstance(attr, ast.Attribute) and attr.attr == "multiplicity"
    }
    assert readers == {("spectral.py", "shell_sum")}


def half_spectrum_uses(tree):
    """Lines where a module reaches an FFT module (``scipy.fft``,
    ``numpy.fft``) or spells the half-spectrum length ``n // 2 + 1``."""
    fft_modules = ("scipy.fft", "numpy.fft")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)):
            names = [f"{node.value.id}.fft".replace("np.", "numpy.")]
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and isinstance(node.left, ast.BinOp)
              and isinstance(node.left.op, ast.FloorDiv)):
            operand = node.left.left
            n = getattr(operand, "id", getattr(operand, "attr", None))
            if n == "n" and ast.literal_eval(node.left.right) == 2 \
                    and ast.literal_eval(node.right) == 1:
                lines.append(node.lineno)
            continue
        else:
            continue
        if any(name == m or name.startswith(m + ".") for name in names
               for m in fft_modules):
            lines.append(node.lineno)
    return lines


def test_the_half_spectrum_stays_inside_the_transforms():
    """Fields live on the 2/3 band; only ``spectral.py`` transforms, and
    only its transforms know the ``rfftn`` half spectrum."""
    found = {}
    for path in ROOT.glob("*.py"):
        lines = half_spectrum_uses(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert set(found) == {"spectral.py"}, found


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate drags in scipy.optimize, scipy.linalg and scipy.sparse
    code = "import sys, nsverify.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
