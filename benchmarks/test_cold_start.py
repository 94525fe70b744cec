"""Cold-start stage: the wall time of a fresh interpreter that runs
`import photonforces.cli`, the start-up that every `photonforces` process
pays before it reads its config.

    python -m pytest benchmarks/test_cold_start.py \
        --benchmark-json=BENCH_<n>.json

The package is imported two ways:
  * `cli_source`: with `PYTHONDONTWRITEBYTECODE=1` from a copy of its
    sources that has no `__pycache__`, so every import compiles them, as
    perfbench's `setup_s` does where bytecode is not written;
  * `cli_bytecode`: from bytecode compiled by an untimed first import under
    a temporary `PYTHONPYCACHEPREFIX`, so the checkout gets no `__pycache__`
    (the prefix holds the bytecode of numpy and the standard library too).
Two floors are timed beside them with `PYTHONDONTWRITEBYTECODE=1`: a bare
interpreter (`bare`) and `import numpy` (`numpy`).  The benchmark times the
whole process; `extra_info["import_s"]` is the median time of the import
statement alone, timed inside the child as perfbench's `setup_s` times it,
without the interpreter's start-up and exit.

Not part of the tier-1 suite (`testpaths = ["tests"]`): timings on a small
shared machine are noisy, so compare two commits only from runs made on the
same machine.
"""

import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "photonforces"
ROUNDS = 20


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """A directory holding a copy of the package's sources, and nothing else."""
    root = tmp_path_factory.mktemp("source")
    shutil.copytree(PACKAGE, root / "photonforces", ignore=shutil.ignore_patterns("__pycache__"))
    return root


CASES = {"bare": "pass", "numpy": "import numpy", "cli_source": "import photonforces.cli",
         "cli_bytecode": "import photonforces.cli"}
TIMER = "import time\nt = time.perf_counter()\n{}\nprint(time.perf_counter() - t)"


@pytest.mark.parametrize("case", list(CASES))
def test_fresh_interpreter(benchmark, case, source, tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(source)
    if case == "cli_bytecode":
        env["PYTHONPYCACHEPREFIX"] = str(tmp_path / "pycache")
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-c", TIMER.format(CASES[case])]
    import_s = []

    def run():
        proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True,
                              check=True)
        import_s.append(float(proc.stdout))

    run()  # untimed: writes the bytecode of the `cli_bytecode` case
    import_s.clear()
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["import_s"] = statistics.median(import_s)
    assert not list(source.rglob("__pycache__"))
