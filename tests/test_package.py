import os
import subprocess
import sys
from pathlib import Path

from qhetfed import harness


def test_import_loads_the_submodules():
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(harness.__file__).resolve().parents[1]
    probe = ("import sys, qhetfed; "
             "print(sorted(m for m in ('checks', 'streams', 'quantizer', 'models', 'datagen', 'federation', "
             "'planner', 'analysis', 'harness') "
             "if f'qhetfed.{m}' not in sys.modules)); "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), cwd=src)
    # the worker pool's modules load only when an experiment starts one, so a
    # single simulation does not pay for them in memory
    assert out.stdout.splitlines() == ["[]", "[]"]
