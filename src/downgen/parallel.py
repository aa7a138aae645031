"""`pmap` and `worker_count`: downgen runs on one thread.

No stage calls `pmap`. The benchmark's tracer (perfbench/tracing.py) wraps it
and its environment block reads `worker_count`, so both names stay until the
benchmark drops them.
"""


def worker_count():
    """Always 1: every stage runs on the calling thread."""
    return 1


def pmap(fn, items):
    """[fn(x) for x in items], in input order, on the calling thread."""
    return [fn(x) for x in items]
