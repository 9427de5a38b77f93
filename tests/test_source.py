"""The source tree itself, read with the stdlib parser: no helper without a
caller, no module that takes another module's private name, and no test
cited by the CI workflow that the suite no longer defines."""
import ast
import re
from pathlib import Path

from cccsim import stabilizer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cccsim"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# the functions that may have no caller in src/, each with its reason
NO_CALLER_YET = {
    # the tableau's invariant check (symplectic pairing, Hermitian rows); the
    # stage timer of ROADMAP item 2 runs it on V and the reduced tableau
    "stabilizer.CliffordTableau.validate",
}


def _scan(node: ast.AST, prefix: str, enclosing: frozenset, defs: dict, refs: list) -> None:
    """Collect each function or method under node as defs[qualified name] =
    its def, and each reference (a Name, an Attribute or a string constant)
    as (identifier, the ids of the defs it lies in)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[prefix + child.name] = child
            _scan(child, f"{prefix}{child.name}.", enclosing | {id(child)}, defs, refs)
            continue
        if isinstance(child, ast.ClassDef):
            _scan(child, f"{prefix}{child.name}.", enclosing, defs, refs)
            continue
        if isinstance(child, ast.Name):
            refs.append((child.id, enclosing))
        elif isinstance(child, ast.Attribute):
            refs.append((child.attr, enclosing))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            refs.append((child.value, enclosing))
        _scan(child, prefix, enclosing, defs, refs)


def uncalled_functions(src: Path) -> list[str]:
    """Each function or method defined under src that nothing in src refers
    to outside its own def.  Dunders are exempt, and so are the native gate
    updates, which CliffordTableau reaches by the names CLIFFORD_GATES builds."""
    defs: dict[str, ast.AST] = {}
    refs: list[tuple[str, frozenset]] = []
    for path in sorted(src.glob("*.py")):
        _scan(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.", frozenset(), defs, refs)
    exempt = set(stabilizer.CLIFFORD_GATES.values())
    return sorted(
        qualname
        for qualname, node in defs.items()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exempt
        and not any(name == node.name and id(node) not in inside for name, inside in refs)
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(src: Path) -> list[str]:
    """Each "importer: module.name" where a module under src takes another
    module's _-prefixed name (dunders exempt): by `from .module import
    _name`, or as `module._name` on a module it imported with `from .
    import module`."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # the local name of each sibling module imported whole
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.append(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and _private(node.attr):
                    found.append(f"{path.stem}: {modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_every_function_in_src_has_a_caller_in_src():
    assert uncalled_functions(SRC) == sorted(NO_CALLER_YET)


def test_the_caller_check_sees_a_helper_called_only_by_itself(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n"
        "class C:\n    def __len__(self):\n        return 0\n\n"
        "    def named(self):\n        return getattr(self, 'by_string')()\n\n"
        "    def by_string(self):\n        return self.named\n\n"
        "    def _h(self):\n        pass\n"
    )
    assert uncalled_functions(tmp_path) == ["m.recursive"]


def test_no_module_in_src_takes_another_modules_private_name():
    assert private_imports(SRC) == []


def test_the_import_check_sees_a_private_name_taken_either_way(tmp_path):
    (tmp_path / "a.py").write_text("def _helper():\n    return 1\n\ndef public():\n    return _helper()\n")
    (tmp_path / "b.py").write_text("from .a import _helper, public\n")
    (tmp_path / "c.py").write_text("from . import a as alias\n\ndef f():\n    return alias._helper(), alias.__doc__\n")
    (tmp_path / "d.py").write_text("from __future__ import annotations\nfrom .a import public\n")
    assert private_imports(tmp_path) == ["b: a._helper", "c: a._helper"]


def cited_tests(text: str) -> list[str]:
    """Each test_... name in text, in order, skipping module names (a name
    followed by .py, as in "test_ccc.py's")."""
    return re.findall(r"\b(test_\w+)\b(?!\.py)", text)


def test_the_citation_reader_skips_module_names():
    assert cited_tests("test_ccc.py's test_a_b, test_c\n# test_d (x) test_e.py") == ["test_a_b", "test_c", "test_d"]


def test_every_test_the_workflow_cites_is_defined():
    # the workflow's comments name the Tier-1 tests that hold the console
    # checks CI no longer runs itself; a rename must not leave them stale
    cited = cited_tests(WORKFLOW.read_text())
    assert "test_console_script_runs" in cited
    defined = {
        node.name
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    }
    assert sorted(set(cited) - defined) == []
