"""The package exports only what its own code runs.

Every public name that ``criticalgabor`` exports, other than its submodules,
must be read somewhere in the library's modules (``__init__.py`` aside), the
bench, the demos or the tools.  A helper that only tests call belongs with the
tests.

Only a reference that resolves to the export counts: a name bound by
``from criticalgabor[.module] import name`` (or a relative import inside the
package) and then read, ``<package module>.name``, or, in the module that
defines the name, a read of its module-level binding outside the name's own
body.  A local variable or an attribute that merely shares the name does not
count.  Names that only annotations read are not counted either, since the
modules defer their annotations.

The sample step fixes the Zak grid, N = 1/(2h), so no function of the Zak
layers takes N beside a signal: only those that build a grid's own values
from no signal do.
"""

import ast
import importlib
import inspect
import symtable
import types
from pathlib import Path

import criticalgabor

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = criticalgabor.__name__


def global_reads(table: symtable.SymbolTable) -> set[str]:
    """Module-level bindings that code in this scope or below reads; the body of
    a top-level definition does not count as a read of its own name."""
    module = table.get_type() == "module"
    reads = {s.get_name() for s in table.get_symbols() if s.is_referenced() and (module or s.is_global())}
    for child in table.get_children():
        reads |= global_reads(child) - ({child.get_name()} if module else set())
    return reads


def references(path: Path, library: bool) -> set[str]:
    """The package names one file reads: through from-imports, as attributes of
    package modules, and, in a library module, through its own definitions."""
    source = path.read_text()
    table, tree = symtable.symtable(source, str(path), "exec"), ast.parse(source, str(path))
    bound, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == PACKAGE}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == PACKAGE):
            from_package = node.module == PACKAGE or (node.level and not node.module)
            for a in node.names:
                if from_package and isinstance(getattr(criticalgabor, a.name, None), types.ModuleType):
                    modules.add(a.asname or a.name)
                else:
                    bound[a.asname or a.name] = a.name
    if library:
        bound |= {s.get_name(): s.get_name() for s in table.get_symbols() if s.is_assigned() and not s.is_imported()}
    used = {bound[name] for name in global_reads(table) if name in bound}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add(node.attr)
    return used


def referred_names() -> set[str]:
    names = set()
    for path in (ROOT / "src" / PACKAGE).glob("*.py"):
        if path.name != "__init__.py":
            names |= references(path, library=True)
    for folder in ("bench", "demos", "tools"):
        for path in (ROOT / folder).glob("*.py"):
            names |= references(path, library=False)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    exported = {name for name in dir(criticalgabor)
                if not name.startswith("_") and not isinstance(getattr(criticalgabor, name), types.ModuleType)}
    assert sorted(exported - referred_names()) == []


# functions of the Zak grid alone: its midpoint nodes, its refinement plan and a closed-form atom field
GRID_ONLY = {"zak._midpoints", "zak.zak_atom_field", "expansion._refine_plan"}


def test_only_grid_functions_take_the_zak_size():
    takes_n = set()
    for module in ("zak", "expansion", "higher"):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and "N" in inspect.signature(fn).parameters:
                takes_n.add(f"{module}.{name}")
    assert takes_n == GRID_ONLY
