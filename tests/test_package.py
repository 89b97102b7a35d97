import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qhetfed import harness
from qhetfed.analysis import TheoryParams
from qhetfed.datagen import PartitionScheme
from qhetfed.federation import Schedule, Topology
from qhetfed.models import ModelSpec
from qhetfed.planner import DeadlinePlan
from qhetfed.quantizer import QuantizerSpec
from qhetfed.timing import LinkComputeParams, PhaseTimes


PROBE = """
import sys, numpy as np, qhetfed
from qhetfed import federation, harness, models
print(sorted(m for m in sys.modules if m.startswith("qhetfed.")))
print(sorted(m for m in ("multiprocessing", "concurrent.futures", "dataclasses") if m in sys.modules))
link = dict(bandwidth_hz=1e6, power_w=0.5, noise_w=1e-10, channel_gain=1e-8, cycles_per_bit=20.0,
            cpu_hz=1e9, bits_per_local_iter=1e8, model_bits=1e6)
harness.parse_config({"link": link})
shard = federation.DeviceShard(0, 0, (np.ones((2, 1)), np.zeros(2, dtype=int)))
federation.run(federation.FedRunConfig(federation.Topology((1,)), federation.Schedule(1, 1, 0.1, 1, 2),
                                       models.ModelSpec("quadratic", 1), [shard]))
print("qhetfed.planner" in sys.modules)
from qhetfed import analysis
print(analysis.__name__, "dataclasses" in sys.modules)
"""


def _probe(script: str) -> list[str]:
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(harness.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), cwd=src)
    return out.stdout.splitlines()


def test_import_loads_the_submodules():
    # exactly the simulator's modules: the bound calculators, the deadline planner and the CLI
    # load only when imported, and the worker pool's modules only when an experiment starts one,
    # so a single simulation does not pay for them in time or memory, not even one whose times
    # come from a link block; no value type is a dataclass, whose class processing generates code at import
    simulator = ["checks", "datagen", "federation", "harness", "models", "quantizer", "streams", "timing"]
    assert _probe(PROBE) == [str([f"qhetfed.{m}" for m in simulator]), "[]", "False", "qhetfed.analysis False"]


@pytest.mark.parametrize("statement", ["from qhetfed import planner", "import qhetfed.cli", "import qhetfed.analysis"])
def test_the_planner_loads_when_imported(statement):
    assert _probe(f"import sys; {statement}; print('qhetfed.planner' in sys.modules)") == ["True"]


READ_ONLY_SPECS = [
    ModelSpec("logistic", 2, 2), PartitionScheme(), PhaseTimes(1.0, 0.1, 1.0),
    LinkComputeParams(1e6, 0.5, 1e-10, 1e-8, 20.0, 1e9, 1e8, 1e6),
    DeadlinePlan(100.0, 2, PhaseTimes(1.0, 0.1, 1.0)), QuantizerSpec(), Topology((2, 1)),
    Schedule(1, 2, 0.1, 3, 4), TheoryParams(1.0, 0.5, 1.0, 2, 0.1, 0.2, 0.3, 0.01, 2, 3, 10, (2, 1)),
]


@pytest.mark.parametrize("spec", READ_ONLY_SPECS, ids=lambda spec: type(spec).__name__)
def test_read_only_specs_reject_assignment_and_unpickle_through_their_checks(spec):
    for name in spec._fields:
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
    with pytest.raises(AttributeError):
        spec.extra = 1
    # unpickling calls the constructor, so a pickled spec comes back checked and equal
    back = pickle.loads(pickle.dumps(spec))
    assert type(back) is type(spec) and back == spec and hash(back) == hash(spec)


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
