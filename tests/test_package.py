from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import spinalg

SRC = Path(spinalg.__file__).resolve().parent.parent


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this copy of spinalg."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_every_export_resolves_once():
    """Each name in __all__ is an attribute of the package and is listed once."""
    missing = [name for name in spinalg.__all__ if not hasattr(spinalg, name)]
    assert missing == []
    assert sorted({n for n in spinalg.__all__ if spinalg.__all__.count(n) > 1}) == []


def test_suites_load_only_for_verify_algebra():
    """Importing the package and the CLI leaves the property suites unloaded."""
    probe = _python("-c", "import sys, spinalg, spinalg.cli; print('spinalg.verify' in sys.modules)")
    assert (probe.returncode, probe.stdout) == (0, "False\n"), probe.stderr
    run = _python("-m", "spinalg.cli", "verify-algebra", "--max-r", "1")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "result: PASS"


def test_start_up_loads_no_introspection_modules():
    """`import spinalg, spinalg.cli` adds none of dataclasses, inspect or ast to a bare interpreter."""
    probe = _python("-c", "import sys; before = set(sys.modules); import spinalg, spinalg.cli; "
                          "print(' '.join(sorted(set(sys.modules) - before)))")
    assert probe.returncode == 0, probe.stderr
    added = set(probe.stdout.split())
    assert "spinalg.cli" in added
    assert added & {"dataclasses", "inspect", "ast"} == set()


def test_no_source_imports_dataclasses():
    """The records are plain slotted classes (spinalg._record), not dataclasses."""
    offenders = []
    for path in sorted((SRC / "spinalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_interned_records_are_compared_by_identity():
    """No `==` or `!=` has a `.ring`, `.field` or `.presentation` operand (or tuple entry):
    those records are interned (spinalg._record.Interned), so identity is their equality."""
    offenders = []
    for path in sorted((SRC / "spinalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            sides = [side for op, left, right in zip(node.ops, operands, operands[1:])
                     if isinstance(op, (ast.Eq, ast.NotEq)) for side in (left, right)]
            entries = [e for side in sides for e in (side.elts if isinstance(side, ast.Tuple) else [side])]
            if any(isinstance(e, ast.Attribute) and e.attr in ("ring", "field", "presentation")
                   for e in entries):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_source_writes_into_element_terms():
    """No statement stores into, deletes from or calls a mutating dict method on an
    attribute named `terms`: a product by 1 returns an operand itself
    (spinalg.ring.TermElement.__mul__), so an element's term dict may be shared."""
    mutators = {"pop", "update", "clear", "setdefault", "popitem"}
    offenders = []
    for path in sorted((SRC / "spinalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in mutators:
                written = node.func.value
            elif isinstance(node, ast.AugAssign):  # dict |= updates in place
                written = node.target
            else:
                continue
            if isinstance(written, ast.Attribute) and written.attr == "terms":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises Python >= 3.10; every module parses with that grammar."""
    sources = sorted((SRC / "spinalg").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_no_source_assigns_element_fields():
    """Only ModuleElement.__init__ and TermElement.__init__ store or delete an attribute
    named `f`, `g` or `terms`, directly or through setattr: units, zeros, generators and
    map images are shared objects (one() and zero() are built once per ring, generator(k)
    once per module, and GeneratorMap.apply may return an image itself), so such a store
    anywhere else would change the value for every holder."""
    fields = {"f", "g", "terms"}
    allowed_owners = {"ModuleElement", "TermElement"}
    offenders = []
    for path in sorted((SRC / "spinalg").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name in allowed_owners
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = node.attr
            elif isinstance(node, ast.Call) and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant) and (
                        (isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr"))
                        or (isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("__setattr__", "__delattr__"))):
                name = node.args[1].value
            else:
                continue
            if name in fields:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
