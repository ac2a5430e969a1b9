"""The benchmark's tracer patches functions by name: every name it lists
must still resolve in the package, or every traced round crashes."""

import os
import subprocess
import sys

import gradbound

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_installs_on_the_package():
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gradbound.__file__)))
    code = (f"import sys; sys.path.insert(0, {_BENCH!r}); "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        # Only reads bench/: no bytecode is written beside it.
        env={**os.environ, "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
