"""Package-level checks: every exported name exists, no invariant is an `assert`, no warnings."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import maplink  # its re-exports fail here at import if any is stale

MODULES = sorted(m.name for m in pkgutil.iter_modules(maplink.__path__))
SOURCES = sorted(Path(maplink.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"maplink.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    # `python -O` strips assert statements, so they cannot guard invariants
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_emits_no_warnings(path):
    # stages report through flags on their results and `main` reports bad
    # input, so a Python warning would be a second, unordered channel
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imports = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "warnings"
    ]
    uses = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "warnings"
    ]
    assert imports + uses == []


_CSV_WRITERS = ("writer", "DictWriter")


def _inside(tree, function_name: str) -> set[int]:
    """Ids of the nodes inside the module's functions of that name."""
    return {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == function_name
        for node in ast.walk(function)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_tables_are_written_by_write_table_alone(path):
    # every CSV goes through io._write_table, so a csv writer or a schema line
    # anywhere else is a second way to write a table; io._read_table checks
    # the schema line, so it may hold its text
    tree = ast.parse(path.read_text(), filename=str(path))
    writer, reader = _inside(tree, "_write_table"), _inside(tree, "_read_table")
    csv_writers = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _CSV_WRITERS
            and isinstance(node.value, ast.Name) and node.value.id == "csv"
            or isinstance(node, ast.ImportFrom) and node.module == "csv"
            and any(alias.name in _CSV_WRITERS for alias in node.names))
        and id(node) not in writer
    ]
    schema_lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "# schema:" in node.value and id(node) not in writer | reader
    ]
    assert csv_writers + schema_lines == []


_STABLE_KINDS = ("stable", "mergesort")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stable_orders_come_from_stable_order_alone(path):
    # reweight.stable_order gives every stable order and reweight._on_union
    # merges two cdfs' points, so a stable sort or a union1d anywhere else is
    # a second, slower way to do one of them
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _inside(tree, "stable_order") | _inside(tree, "_on_union")
    stable_sorts = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.keyword) and node.arg == "kind"
            and isinstance(node.value, ast.Constant) and node.value.value in _STABLE_KINDS
            or isinstance(node, ast.Attribute) and node.attr == "union1d")
        and id(node) not in allowed
    ]
    assert stable_sorts == []


# exported names that no package module needs to reach: the toy's closed-form
# oracles for acceptance criterion 2, and the pixel-file writer that the
# benchmark inputs and the tests use to make pixel files
REACHED_FROM_OUTSIDE = {
    "analytic_theta2_posterior_cdf",
    "analytic_theta2_posterior_pdf",
    "save_pixel_posteriors",
}


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]


def _read(trees) -> set[str]:
    """Every name the modules read as a name or attribute (imports and `__all__` do not)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_exported_name_is_reached_in_the_package():
    # library code that no stage or command reaches is deleted or wired in
    trees = _trees()
    exported = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    assert sorted(exported - _read(trees) - REACHED_FROM_OUTSIDE) == []


def _functions(trees):
    """(function, whether calls pass it a bound first argument) for every def in the package."""
    for tree in trees:
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.FunctionDef):
                    bound = isinstance(parent, ast.ClassDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list)
                    yield node, bound


# defaulted parameters that no package call passes, each for its reason
DEFAULTS_SET_FROM_OUTSIDE = {
    ("main", "argv"),  # the console entry point calls main() and reads sys.argv
}


def test_every_function_is_reached_in_the_package():
    # a function, method or property that no module reads serves the tests
    # alone; Python calls the dunder methods itself
    trees = _trees()
    read = _read(trees) | REACHED_FROM_OUTSIDE
    unread = [
        f"{node.name} (line {node.lineno})"
        for node, _ in _functions(trees)
        if node.name not in read and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unread == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a default that no package call overrides is a constant with a knob on
    # it; a call counts when it names the function or method, however bound,
    # and passes the parameter by position, by keyword or through * or **
    trees = _trees()
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for node, bound in _functions(trees):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            passed = any(
                any(k.arg in (arg, None) for k in call.keywords)
                or index is not None and (
                    len(call.args) > index - bound
                    or any(isinstance(a, ast.Starred) for a in call.args))
                for call in calls.get(node.name, ())
            )
            if not passed and (node.name, arg) not in DEFAULTS_SET_FROM_OUTSIDE:
                unpassed.append(f"{node.name}({arg}=...) (line {node.lineno})")
    assert unpassed == []


def test_toy_reads_step_cdf_only_as_from_samples():
    # the benchmark's tracer swaps maplink.toy.StepCdf for a stand-in that has
    # only `from_samples`, so any other use breaks a traced `toy` run;
    # annotations are never evaluated, so they do not count
    path = Path(maplink.__file__).parent / "toy.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    annotations = {
        id(node)
        for parent in ast.walk(tree)
        for hint in (getattr(parent, "annotation", None), getattr(parent, "returns", None))
        if hint is not None
        for node in ast.walk(hint)
    }
    read_as_from_samples = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "from_samples"
    }
    other_reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "StepCdf"
        and id(node) not in annotations | read_as_from_samples
    ]
    assert other_reads == []


# what only `io` may read: schemas, shard file names and records, manifests, directories
IO_NAMES = ("SCHEMA_VERSIONS", "SHARD_FILE", "mkdir", "sha256_file", "shard_file", "shard_record",
            "write_manifest")


def test_cli_leaves_file_formats_to_io():
    # `cli.py` parses arguments and calls the stages; what a run directory
    # holds is `io`'s: its files' names, JSON and checksums, schemas, shard
    # records, the manifest and which stale files go, so `cli.py` names no file
    path = Path(maplink.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name in ("json", "hashlib") for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module in ("json", "hashlib")
        or isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) in IO_NAMES
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.endswith((".csv", ".json", ".npy"))
    ]
    assert found == []


# the benchmark's tracer swaps these names in maplink.toy for timed wrappers;
# a call through another name (`reweight.ks_distance`, an alias) would go
# untimed and its metric would read 0 without a word
TOY_TRACED_CALLS = ("apply_ernd", "integrated_squared_distance", "ks_distance", "select_delta")


def _imported_and_called(module: str, sources: tuple[str, ...]) -> set[str]:
    """The names ``module`` imports unaliased from one of the package's ``sources`` and calls."""
    path = Path(maplink.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in sources
        for alias in node.names
        if alias.asname is None
    }
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return imported & called


def test_toy_calls_the_traced_names_by_its_own_names():
    called = _imported_and_called("toy", ("reweight",))
    assert [name for name in TOY_TRACED_CALLS if name not in called] == []


# the names the tracer swaps in maplink.cli: the stages' compute calls, which
# stay in `cli.py` while it hands every file to `io`
CLI_TRACED_CALLS = ("adapt_population_proposal", "pool_and_filter", "project",
                    "run_scenario", "run_to_equilibrium", "run_toy_experiment", "sample_bank",
                    "weight_all")


def test_cli_calls_the_traced_names_by_its_own_names():
    called = _imported_and_called("cli", ("pipeline", "proposal", "toy", "transmission"))
    assert [name for name in CLI_TRACED_CALLS if name not in called] == []
