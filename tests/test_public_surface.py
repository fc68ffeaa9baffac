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

The same rule holds inside the exports: every public method and property of
an exported class is read as an attribute, and every optional parameter of an
exported function, method or constructor is passed by some call, outside the
tests.  An option with one value in use is a constant.  Reads and calls are
matched by name, so a name collision can only hide a violation, never invent
one.
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


def exported_classes() -> dict[str, type]:
    return {name: obj for name in dir(criticalgabor)
            if not name.startswith("_") and isinstance(obj := getattr(criticalgabor, name), type)}


def public_members(cls: type) -> dict:
    """The public methods and properties a class defines itself."""
    return {name: obj for name, obj in vars(cls).items()
            if not name.startswith("_") and isinstance(obj, (types.FunctionType, property, staticmethod, classmethod))}


def caller_trees():
    """The syntax trees of every module outside the tests: the library, the bench, the demos and the tools."""
    paths = list((ROOT / "src" / PACKAGE).glob("*.py"))
    for folder in ("bench", "demos", "tools"):
        paths += (ROOT / folder).glob("*.py")
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def test_every_public_member_of_an_exported_class_is_read_outside_the_tests():
    read = {node.attr for tree in caller_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, obj in exported_classes().items() for name in public_members(obj)
              if name not in read]
    assert unread == []


def calls_by_name() -> dict[str, list[tuple[int, set[str], bool]]]:
    """Each call outside the tests as (positional count, keywords, starred) under the name it calls,
    a from-import's alias read back to the imported name.  Starred means *args or **kwargs, which
    may pass any parameter."""
    calls = {}
    for tree in caller_trees():
        alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = alias.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def exported_callables():
    """(qualified name, name it is called by, callable, whether a bound first argument is implied)
    for every exported function, every exported class's constructor and every public method of
    an exported class."""
    for name in dir(criticalgabor):
        obj = getattr(criticalgabor, name)
        if not name.startswith("_") and inspect.isfunction(obj):
            yield name, name, obj, False
    for cls, obj in exported_classes().items():
        yield cls, cls, obj, False
        for name, member in public_members(obj).items():
            if isinstance(member, (types.FunctionType, staticmethod, classmethod)):
                yield f"{cls}.{name}", name, getattr(obj, name), isinstance(member, types.FunctionType)


def test_every_optional_parameter_is_passed_outside_the_tests():
    calls = calls_by_name()
    unset = []
    for qualname, name, fn, bound in exported_callables():
        params = list(inspect.signature(fn).parameters.values())[bound:]
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if not any(starred or p.name in keywords or (positional and i < count)
                       for count, keywords, starred in calls.get(name, [])):
                unset.append(f"{qualname}({p.name})")
    assert unset == []
