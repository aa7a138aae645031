"""downgen runs on one thread: importing the CLI starts no thread pool, and
`parallel.pmap` is an in-order map on the calling thread."""

import os
import subprocess
import sys
import threading
from pathlib import Path

from downgen import cli, parallel


def test_cli_import_loads_no_thread_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, downgen.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_pmap_in_input_order_on_calling_thread():
    caller = threading.get_ident()
    seen = []

    def task(x):
        seen.append((x, threading.get_ident()))
        return 10 * x

    items = [3, 1, 4, 1, 5, 9, 2, 6]
    assert parallel.pmap(task, iter(items)) == [10 * x for x in items]
    assert seen == [(x, caller) for x in items]
    assert parallel.worker_count() == 1
