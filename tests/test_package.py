import ast
import os
import subprocess
import sys
from pathlib import Path

from qhetfed import harness


def test_import_loads_the_submodules():
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(harness.__file__).resolve().parents[1]
    probe = ("import sys, qhetfed; "
             "print(sorted(m for m in sys.modules if m.startswith('qhetfed.'))); "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)); "
             "from qhetfed import analysis; print(analysis.__name__)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), cwd=src)
    # exactly the simulator's modules: the bound calculators and the CLI load only when
    # imported, and the worker pool's modules only when an experiment starts one, so a
    # single simulation does not pay for them in time or memory
    simulator = ["checks", "datagen", "federation", "harness", "models", "planner", "quantizer", "streams"]
    assert out.stdout.splitlines() == [str([f"qhetfed.{m}" for m in simulator]), "[]", "qhetfed.analysis"]


# names kept in the package with no reader there: the validation oracles, and the version
READ_ELSEWHERE = {"finite_diff_gradient", "grid_search_schedule", "run_centralized_sgd", "__version__"}


def _defined_names(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _read_names(statement) -> set[str]:
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_module_level_name_has_a_reader():
    package = Path(harness.__file__).resolve().parent
    # one entry per top-level statement of every module: (module, the names it defines, the names it reads)
    statements = [(path.stem, _defined_names(node), _read_names(node))
                  for path in sorted(package.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    unread = [f"{module}.{name}"
              for i, (module, defined, _) in enumerate(statements) for name in defined
              if name not in READ_ELSEWHERE
              and not any(name in read for j, (_, _, read) in enumerate(statements) if j != i)]
    assert not unread, "no reader in the package: " + ", ".join(unread)
