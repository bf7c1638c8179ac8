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


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises Python >= 3.10; every module parses with that grammar."""
    sources = sorted((SRC / "spinalg").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
