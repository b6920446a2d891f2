"""Rules on the source itself: invariants in `src/` raise real exceptions,
because `python -O` strips `assert` statements; every public name, method and
property in `src/` is there for the program, not only for its unit tests, and
every private module-level name is used in `src/`; no module imports
mpmath, which only the tests use as an oracle; and `__main__.py` is the only
module that runs as a script."""

import ast
import symtable
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rationalqm"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in files
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Assert)]
    assert found == []


_COMPREHENSIONS = {ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                   ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}


def _scope_parts(node: ast.AST):
    """(parts run in the enclosing scope, parts run in the node's own scope)
    for a function, lambda, class or comprehension; None for other nodes."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords], node.body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        outer = [*getattr(node, "decorator_list", ()), *a.defaults, *a.kw_defaults,
                 getattr(node, "returns", None), *(p.annotation for p in params if p)]
        return outer, [node.body] if isinstance(node, ast.Lambda) else node.body
    if isinstance(node, tuple(_COMPREHENSIONS)):
        first, *rest = node.generators
        results = [getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)]
        return [first.iter], [*results, first.target, *first.ifs, *rest]
    return None


def _local_name_nodes(node: ast.AST, table: symtable.SymbolTable,
                      local: frozenset = frozenset()):
    """Yield each Name node under `node` that resolves to a local or free
    name of a function, class or comprehension rather than to a module
    global. `table` is the symbol table of the scope that runs `node`, and
    `local` the names it binds; a module binds none. A name bound by an
    import names another module's global, so it is not local."""
    if isinstance(node, ast.Name):
        if node.id in local:
            yield node
        return
    parts = _scope_parts(node)
    if parts is None:
        for child in ast.iter_child_nodes(node):
            yield from _local_name_nodes(child, table, local)
        return
    outer, inner = parts
    name = getattr(node, "name", _COMPREHENSIONS.get(type(node), "lambda"))
    own = next((t for t in table.get_children()
                if t.get_name() == name and t.get_lineno() == node.lineno), None)
    if own is None:
        # A comprehension inlined into the enclosing scope (Python 3.12+),
        # whose table then holds the comprehension's names.
        own = table
        own_local = local | {n.id for g in getattr(node, "generators", ())
                             for n in ast.walk(g.target) if isinstance(n, ast.Name)}
    else:
        own_local = frozenset(s.get_name() for s in own.get_symbols()
                              if (s.is_local() or s.is_free()) and not s.is_imported())
    for part in outer:
        if part is not None:
            yield from _local_name_nodes(part, table, local)
    for part in inner:
        yield from _local_name_nodes(part, own, own_local)


def _resolved(path: Path) -> tuple[ast.Module, set]:
    """The module's tree, and the ids of its Name nodes that do not resolve
    to a module global."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, str(path))
    table = symtable.symtable(text, str(path), "exec")
    return tree, {id(n) for n in _local_name_nodes(tree, table)}


def _used_names(node: ast.AST, kinds=(ast.Name, ast.Attribute),
                local: set = frozenset()) -> Counter:
    """Uses of each name under `node`: an Attribute by its attribute name,
    and a Name only where it resolves to a module global."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, kinds) and id(n) not in local)


def _module_definitions(tree: ast.Module):
    """(name, name, node) for each function, class and assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, name, node) for name in names)


def _public_definitions(tree: ast.Module):
    return (d for d in _module_definitions(tree) if not d[0].startswith("_"))


def _private_definitions(tree: ast.Module):
    return (d for d in _module_definitions(tree)
            if d[0].startswith("_") and not d[0].endswith("__"))


def _public_members(tree: ast.Module):
    """("Class.name", name, node) for each public method and property of a
    module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            yield from ((f"{cls.name}.{node.name}", node.name, node)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_"))


def _unreached(definitions, exempt=("tests/test_acceptance.py",),
               kinds=(ast.Name, ast.Attribute), package=PACKAGE) -> set:
    """Labels of the definitions whose name is used in the `package` only
    inside the definition itself, and not at all in the `exempt` files. A use
    is a node of one of `kinds` that carries the name; a Name counts only
    where it resolves to the module global, not to a local that shares it."""
    modules = [_resolved(path) for path in sorted(package.glob("*.py"))]
    used = sum((_used_names(tree, kinds, local) for tree, local in modules), Counter())
    outside = Counter()
    for tree, local in map(_resolved, (ROOT / f for f in exempt)):
        outside += _used_names(tree, kinds, local)
    return {label for tree, local in modules for label, name, node in definitions(tree)
            if used[name] == _used_names(node, kinds, local)[name]
            and name not in outside}


def test_public_names_are_reached_outside_the_unit_tests():
    assert _unreached(_public_definitions) == set()


def test_a_public_name_shadowed_by_a_local_is_not_reached(tmp_path):
    # `_singlet_product_sum` binds a local `shape`; its uses are not uses of
    # a module-level `shape`, so a public one that nothing calls fails.
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    planted = tmp_path / "experiments.py"
    with open(planted, "a", encoding="utf-8") as fh:
        fh.write("\n\ndef shape():\n    return None\n")
    assert _unreached(_public_definitions, package=tmp_path) == {"shape"}


def test_public_members_are_reached_outside_the_unit_tests():
    # A member is reached only as an attribute (`x.size`), so a local or a
    # parameter that shares its name does not count. The benchmark's tracer
    # reads `PNO.size` and `IntegerPair.steps` from the results it counts,
    # so it is a reader beside the acceptance test.
    assert _unreached(_public_members,
                      exempt=("tests/test_acceptance.py", "qmbench/tracer.py"),
                      kinds=ast.Attribute) == set()


def test_private_names_are_used_in_src():
    # a private helper that only a test keeps alive is dead code
    assert _unreached(_private_definitions, exempt=()) == set()


def _imports_mpmath(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mpmath")


def test_no_module_imports_mpmath():
    # ast.walk reaches imports inside functions and TYPE_CHECKING blocks too
    importers = {path.name for path in sorted(PACKAGE.rglob("*.py"))
                 if any(map(_imports_mpmath, ast.walk(_parse(path))))}
    assert importers == set()


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "__name__ == '__main__'", "'__main__' == __name__")


def test_only_main_module_runs_as_a_script():
    # one entry point: `python -m rationalqm` or the rationalqm console script
    scripts = {path.name for path in sorted(PACKAGE.rglob("*.py"))
               if any(map(_is_main_guard, ast.walk(_parse(path))))}
    assert scripts - {"__main__.py"} == set()
