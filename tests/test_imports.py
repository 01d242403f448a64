"""Every top-level import in `src/` and `tests/` is used, every name a
package module exports exists, every name a package module defines (and
every public method and property of its classes) is read, traced by the
benchmark or documented, and every class that holds arrays compares by
identity."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from marketeq.ces import CesSpec
from marketeq.market import ContextDistribution, generate_market
from marketeq.metrics import EquilibriumCandidate
from marketeq.net import AdamState, AllocationNet
from marketeq.oracle import OracleResult
from test_perfbench_spans import _entry_points

ROOT = Path(__file__).resolve().parent.parent

# public names ("module.name" or "module.Class.member") that no module in src
# reads and the benchmark does not trace: documented API, each with the README
# section that documents it
DOCUMENTED_API = {
    "oracle.cobb_douglas_equilibrium": "Reference equilibria",
}


def unused_imports(source: str) -> list:
    """Names bound by the module body's imports that the module never reads.

    A name listed in `__all__` counts as read; `from __future__` imports and
    star imports bind nothing checked.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_detector_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom math import pi, tau\nfrom a import b\n"
        "__all__ = ['b']\nprint(os.path, pi)\n"
    )
    assert unused_imports(source) == ["line 3: js", "line 4: tau"]


def test_no_unused_top_level_imports():
    offenders = []
    for path in sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")]):
        offenders += [f"{path.relative_to(ROOT)} {entry}"
                      for entry in unused_imports(path.read_text())]
    assert offenders == []


def test_every_exported_name_resolves():
    stale = []
    for path in sorted(ROOT.joinpath("src", "marketeq").glob("*.py")):
        name = "marketeq" if path.stem == "__init__" else f"marketeq.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", [])
                  if not hasattr(module, export)]
    assert stale == []


def defined_and_read(sources: dict):
    """What the modules of `sources` ({module name: source}) define and read.

    Returns the (module, name) pairs each module binds at module level by def,
    class or assignment; the (module, class, member) triples of the methods
    and properties of its module-level classes; the (module, name) pairs
    read: as a bare name in the module itself, through a relative `from`
    import of the name, or as an attribute of a module that `from . import`
    binds; and the set of attribute names read on any object.
    """
    defined, members, read, attrs = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names]
            if isinstance(node, ast.ClassDef):
                members += [(module, node.name, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        imported, modules = {}, {}  # local name -> (module, name), and -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(imported.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    read.add((modules[node.value.id], node.attr))
    return defined, members, read, attrs


def unread_private_names(sources: dict) -> list:
    """Module-level private names (`_x`, not dunders) that a module of
    `sources` defines and no module reads."""
    defined, _, read, _ = defined_and_read(sources)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and (module, name) not in read)


def unread_public_names(sources: dict, traced: set) -> list:
    """Public module-level names, and public methods and properties of
    module-level classes, that a module of `sources` defines, no module reads
    and `traced` (dotted names, "module.Class.member" for a member) does not
    hold; a traced member counts for its class too."""
    defined, members, read, attrs = defined_and_read(sources)
    covered = traced | {name.rpartition(".")[0] for name in traced}
    unread = [f"{module}.{name}" for module, name in defined
              if not name.startswith("_") and (module, name) not in read]
    unread += [f"{module}.{cls}.{name}" for module, cls, name in members
               if not name.startswith("_") and name not in attrs]
    return sorted(name for name in unread if name not in covered)


def test_private_name_detector_flags_unread_definitions():
    sources = {
        "a": "_LIMIT = 3\n_unused = 4\ndef _helper():\n    return _LIMIT\nclass _Spare:\n    pass\n",
        "b": "from . import a\nprint(a._helper())\n",
    }
    assert unread_private_names(sources) == ["a._Spare", "a._unused"]


def _src_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(ROOT.joinpath("src", "marketeq").glob("*.py"))}


def test_every_private_name_is_read_in_src():
    assert unread_private_names(_src_sources()) == []


def test_public_name_detector_skips_read_and_traced_names():
    sources = {
        "a": "LIMIT = 3\nSPARE = 4\ndef helper():\n    return LIMIT\ndef traced():\n    pass\n"
             "class Kept:\n    def used(self):\n        pass\n    def spare(self):\n        pass\n"
             "    @property\n    def unread(self):\n        pass\n    def _own(self):\n        pass\n"
             "class Timed:\n    def run(self):\n        pass\n"
             "def shared():\n    pass\ndef imported():\n    pass\n__all__ = ['SPARE']\n",
        "b": "from . import a\nfrom .a import imported as alias\nprint(a.helper(), a.Kept().used)\n"
             "print(alias(), object().shared, object().spare)\n",
    }
    # a module-level name read only as some other object's attribute is unread;
    # a member counts as read through any object
    assert unread_public_names(sources, {"a.traced", "a.Timed.run"}) == [
        "a.Kept.unread", "a.SPARE", "a.shared"]


def test_every_public_name_is_read_traced_or_documented():
    traced = {f"{module}.{attr}" for module, attr in _entry_points()}
    assert unread_public_names(_src_sources(), traced) == sorted(DOCUMENTED_API)
    readme = ROOT.joinpath("README.md").read_text()
    for name, section in DOCUMENTED_API.items():
        assert f"**{section}.**" in readme or f"## {section}\n" in readme, section
        assert f"`{name}`" in readme, name


def except_clauses_naming(source: str, name: str) -> list:
    """(function, line) of each `except` clause that names the exception
    `name`, alone or in a tuple; a clause outside any function is under
    "<module>"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(getattr(t, "id", getattr(t, "attr", None)) == name for t in types):
                    found.append((where, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def test_except_clause_detector_finds_named_types():
    source = (
        "try:\n    pass\nexcept (KeyError, errors.Bad):\n    pass\n"
        "def f():\n    try:\n        pass\n    except Bad as err:\n        pass\n"
        "    except Exception:\n        pass\n"
    )
    assert except_clauses_naming(source, "Bad") == [("<module>", 3), ("f", 8)]


def test_only_the_cli_catches_invalid_arguments():
    # an invalid argument is reported to the caller, not recovered from
    handlers = [f"{path.stem}.{function}"
                for path in sorted(ROOT.joinpath("src", "marketeq").glob("*.py"))
                for function, _ in except_clauses_naming(path.read_text(), "InvalidArgument")]
    assert handlers == ["cli.main"]


def _candidate():
    return EquilibriumCandidate(np.ones((2, 2)), np.ones(2))


_ARRAY_HOLDERS = {
    "AllocationNet": lambda: AllocationNet.initialize(3, 1, 4),
    "AdamState": lambda: AdamState.for_net(AllocationNet.initialize(3, 1, 4)),
    "Market": lambda: generate_market(4, 2, 3, ContextDistribution.STANDARD_NORMAL,
                                      CesSpec.general(0.5), 0),
    "EquilibriumCandidate": _candidate,
    "OracleResult": lambda: OracleResult(_candidate(), 0.0, 0.0, "numeric"),
}


@pytest.mark.parametrize("build", _ARRAY_HOLDERS.values(), ids=_ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(build):
    # a generated `==` would compare the arrays and raise on their truth value
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, second, first}) == 2
