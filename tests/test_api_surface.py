"""Every public function and class in the package is API or is used.

A module-level public name that is neither exported nor called from the
package itself is code that only tests reach; it belongs in the tests or
in an ``__all__``. Conversely, every name an ``__all__`` lists is bound,
and some statement of the package reads it: an export that nothing in the
package runs is code that only tests reach as well.
A public method or property that no statement of the package reads is
test-only code as well, exported class or not, and so is a public attribute
that a method assigns as ``self.name`` and nothing reads. Outside the
package's ``__init__``, every name that a module imports is read in it.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import logdrift

SRC = Path(logdrift.__file__).resolve().parent

# members kept although the package does not read them yet, with the reason
UNREAD_MEMBERS_KEPT = {
    "solver.Grid.stiffness": "the per-run metrics file (ROADMAP item 5) "
                             "will report it",
}

# exports kept although no statement of the package reads them, with the
# reason
UNREACHED_EXPORTS_KEPT = {
    "log_jensen_bound_check": "acceptance criterion 04 and the benchmark's "
                              "serial workload run it (ROADMAP item 13)",
    "osgood_classifier": "the critical-drift blow-up verdict may call it "
                         "(ROADMAP item 11)",
    "vanishing_data_decay": "acceptance criterion 06 runs it (ROADMAP item "
                            "13)",
}


def _declared_all(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(stmt: ast.stmt) -> set:
    """Names that stmt reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imports_from(tree: ast.Module, module: str, name: str) -> bool:
    """Whether tree imports name from the package's module."""
    return any(isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[-1] == module
               and any(alias.name == name for alias in node.names)
               for node in ast.walk(tree))


def unreached_public_names(src: Path) -> list:
    """Public module-level functions and classes of the package at src that
    no __all__ lists and no other top-level statement of the package reads,
    as module.name. An attribute read counts in any module, a bare-name read
    only in the defining module or in one that imports the name from it."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    exported = _declared_all(trees["__init__"])
    found = []
    for module, tree in trees.items():
        listed = exported | _declared_all(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in listed:
                continue
            readers = [other for name, other in trees.items()
                       if name == module
                       or _imports_from(other, module, node.name)]
            if not any(node.name in (_read_names(stmt) if other in readers
                                     else _attribute_reads(stmt))
                       for other in trees.values() for stmt in other.body
                       if stmt is not node):
                found.append(f"{module}.{node.name}")
    return found


def unreached_exports(src: Path) -> list:
    """Names that an __all__ of the package at src lists and that no
    top-level statement of the package reads, other than the definition of
    the name itself; an import or an __all__ entry is no read."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    exported = set().union(*map(_declared_all, trees.values()))
    reads = [(stmt, _read_names(stmt))
             for tree in trees.values() for stmt in tree.body]
    return sorted(
        name for name in exported
        if not any(name in names for stmt, names in reads
                   if getattr(stmt, "name", None) != name))


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def unread_public_members(src: Path) -> list:
    """Public methods and properties of the classes of the package at src
    that no statement of the package reads as an attribute outside their
    own body, as module.Class.name."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_") \
                        and reads[node.name] <= _attribute_reads(node)[node.name]:
                    found.append(f"{module}.{cls.name}.{node.name}")
    return sorted(found)


def unread_public_attributes(src: Path) -> list:
    """Public instance attributes that a method of a class of the package at
    src assigns as self.name and that no statement of the package reads as
    an attribute, as module.Class.name."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    reads = sum((_attribute_reads(tree) for tree in trees.values()),
                Counter())
    found = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self" \
                        and not node.attr.startswith("_") \
                        and not reads[node.attr]:
                    found.add(f"{module}.{cls.name}.{node.attr}")
    return sorted(found)


def unused_imports(src: Path) -> list:
    """Names that an import of a module of the package at src binds and
    that no statement of that module reads, as module.name; the package's
    __init__ imports to re-export, and __future__ imports bind nothing."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        reads = set().union(*map(_read_names, tree.body))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads:
                    found.append(f"{path.stem}.{name}")
    return sorted(found)


def test_every_public_name_is_exported_or_used_in_the_package():
    assert unreached_public_names(SRC) == []


def test_every_export_is_read_in_the_package():
    # an allowlisted export that the package starts to read leaves the list
    assert unreached_exports(SRC) == sorted(UNREACHED_EXPORTS_KEPT)


def test_every_public_member_is_read_in_the_package():
    # an allowlisted member that the package starts to read leaves the list
    assert unread_public_members(SRC) == sorted(UNREAD_MEMBERS_KEPT)


def test_every_public_attribute_is_read_in_the_package():
    assert unread_public_attributes(SRC) == []


def test_every_import_is_read_in_its_module():
    assert unused_imports(SRC) == []


def test_every_all_entry_is_bound_in_its_module():
    # a stale entry would otherwise surface only on a star import
    unbound = []
    for path in sorted(SRC.glob("*.py")):
        name = "logdrift" if path.stem == "__init__" \
            else f"logdrift.{path.stem}"
        module = importlib.import_module(name)
        unbound += [f"{name}.{entry}"
                    for entry in getattr(module, "__all__", ())
                    if not hasattr(module, entry)]
    assert unbound == []


def test_guard_flags_a_name_that_only_its_own_body_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .m import api\n__all__ = ["api"]\n')
    (tmp_path / "m.py").write_text(
        "def api():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n")
    assert unreached_public_names(tmp_path) == ["m.orphan"]


def test_guard_counts_a_bare_name_only_where_the_name_is_bound(tmp_path):
    # a local variable of another module is no read of a function named
    # like it; an import of it, an attribute read or its own module's is
    (tmp_path / "__init__.py").write_text(
        'from .m import api\n__all__ = ["api"]\n')
    (tmp_path / "m.py").write_text(
        "from . import k\n\n\n"
        "def api():\n    return k.attr() + local()\n\n\n"
        "def attr():\n    return 1\n\n\n"
        "def local():\n    return 2\n\n\n"
        "def shadowed():\n    return 3\n\n\n"
        "def imported():\n    return 4\n")
    (tmp_path / "k.py").write_text(
        "from .m import imported\n\n\n"
        "def attr():\n    shadowed = 1\n    return shadowed + imported()\n")
    assert unreached_public_names(tmp_path) == ["m.shadowed"]


def test_guard_flags_an_export_that_only_its_own_body_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .m import api, orphan\n__all__ = ["api", "orphan"]\n')
    (tmp_path / "m.py").write_text(
        '__all__ = ["api", "Unread"]\n\n\n'
        "def api():\n    return helper()\n\n\n"
        "def helper():\n    return api\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n\n"
        "class Unread:\n    pass\n")
    assert unreached_exports(tmp_path) == ["Unread", "orphan"]


def test_guard_flags_a_member_that_only_its_own_body_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .m import Api\n__all__ = ["Api"]\n')
    (tmp_path / "m.py").write_text(
        "class Api:\n"
        "    def run(self):\n        return self.size + self._helper()\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def _helper(self):\n        return 2\n\n"
        "    def orphan(self, n):\n"
        "        return self.orphan(n - 1) if n else 0\n\n"
        "    def written(self):\n        return 3\n\n\n"
        "def use(api):\n    api.written = None\n    return api.run()\n")
    assert unread_public_members(tmp_path) == ["m.Api.orphan", "m.Api.written"]


def test_guard_flags_an_attribute_that_nothing_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .m import Api\n__all__ = ["Api"]\n')
    (tmp_path / "m.py").write_text(
        "class Api:\n"
        "    def __init__(self):\n"
        "        self.size, self._cache = 1, {}\n"
        "        self.orphan = 2\n"
        "        self._private = 3\n\n"
        "    def run(self):\n        return self.size\n")
    assert unread_public_attributes(tmp_path) == ["m.Api.orphan"]


def test_guard_flags_an_import_that_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .m import api\n__all__ = ["api"]\n')
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from json import dumps, loads as parse\n\n\n"
        "def api(x: np.ndarray) -> str:\n"
        "    import sys\n    return dumps(math.pi) + os.path.sep\n")
    assert unused_imports(tmp_path) == ["m.parse", "m.sys"]
