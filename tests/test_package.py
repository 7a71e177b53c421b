"""The package namespace: every public name is listed once, by its module,
and each one has a caller in the program."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import anisowidth

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("mixed_norm", "exponents", "ball_widths", "width_oracle", "trig_approx")


def test_package_exports_the_concatenated_module_lists():
    modules = [importlib.import_module(f"anisowidth.{name}") for name in MODULES]
    assert anisowidth.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(anisowidth.__all__)) == len(anisowidth.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(anisowidth, name) is getattr(m, name)
    # the one exported name its module used not to list
    assert "smoothness_vector" in modules[1].__all__


def _loaded_names(path: Path) -> set:
    """The names a file's code loads: bare names and attribute names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_program_caller():
    # A public name that only tests reach is surface to maintain for no
    # program: each must be loaded by the package or the benchmark (not by
    # their tests), or be a function the benchmark's tracer wraps.
    loaded = set()
    for folder in ("src", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if not path.name.startswith("test_"):
                loaded |= _loaded_names(path)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {name.rsplit(".", 1)[1] for name in spans.target_names()}
    assert [name for name in anisowidth.__all__ if name not in loaded | traced] == []


def test_the_cli_leaves_problem_entries_to_the_library():
    # A problem file's entries are checked by the library alone: the CLI
    # has no intake of its own that could disagree with it.
    path = ROOT / "src" / "anisowidth" / "cli.py"
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    intake = {"_require_int", "_require_ints", "_entries", "_finite"}
    assert intake & (_loaded_names(path) | imported) == set()


def test_real_scalars_have_one_check():
    # Whether a scalar is real is decided by the numbers tower in _real
    # alone: no module names a numpy scalar type, and _require_type is not
    # asked for numbers.Real, which would let a bool through.
    kinds = ("integer", "floating", "bool_")
    numpy_types = {f"{np}.{kind}" for np in ("np", "numpy") for kind in kinds}
    for path in (ROOT / "src" / "anisowidth").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Attribute):
                assert ast.unparse(node) not in numpy_types, where
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert not {alias.name for alias in node.names} & set(kinds), where
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_require_type":
                assert not {ast.unparse(a) for a in node.args} & {"numbers.Real", "Real"}, where


def _imported_modules(path: Path) -> set:
    """The top-level names of the modules a file imports, relative imports
    by their module name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_the_exact_layer_imports_no_numpy():
    # The exact formulas need no numpy of their own (ROADMAP item 16).
    for name in ("ball_widths", "exponents"):
        imported = _imported_modules(ROOT / "src" / "anisowidth" / f"{name}.py")
        assert "numpy" not in imported, name


def test_every_memo_is_bounded():
    # One rule for every memo: at most 256 entries (a memo without a bound
    # grows for the life of the process), keyed by the arguments and their
    # types (equal arguments of two types may take two routes).  A function
    # of no arguments keeps one entry at most and is exempt.
    memos = []
    for info in pkgutil.iter_modules(anisowidth.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"anisowidth.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            memos += [
                f for f in members
                if hasattr(f, "cache_info") and f.__module__ == module.__name__
            ]
    assert memos
    off_rule = [
        f"{f.__module__}.{f.__qualname__}"
        for f in memos
        if f.cache_parameters() != {"maxsize": 256, "typed": True}
        and inspect.signature(f.__wrapped__).parameters
    ]
    assert off_rule == []
