"""Harness pin for the whole suite, and the one private-cache fixture.

``OMP_NUM_THREADS=1`` must be in the environment before the first compiled
kernel is loaded (libgomp reads it once, at ``dlopen``): several tests fork
after kernels have run in the pytest process, and a child that enters an
``omp parallel`` region deadlocks on the parent's dead thread pool.  The
benchmark workers (``benchmarks/perf``) start with the same pin.  An
explicit value in the caller's environment wins.

Every other test shares the user's kernel disk cache, so a second run of
the suite loads each kernel set and ``.so`` the first one published.  A
test whose subject is a derivation or a build takes ``cold_cache``.

No test may leave a journal open on the process-wide recorder: it would
receive every later test's events, at the journal's price per event, and a
cost gate that runs later would measure that price.  A ``RunDir`` closes
the journal a solver opened in it when its ``with`` block ends.
"""

import os

import pytest

os.environ.setdefault("OMP_NUM_THREADS", "1")


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty private kernel disk cache and an empty in-memory kernel cache.

    Selected through ``REPRO_CACHE_DIR``: ``create_kernels`` derives its set
    with sympy and every C kernel is compiled, as in a first run.
    """
    from repro.profiling import clear_kernel_cache, reset_disk_cache_stats

    root = tmp_path / "kernel-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_kernel_cache()
    reset_disk_cache_stats()
    yield root
    clear_kernel_cache()
    reset_disk_cache_stats()


@pytest.fixture(autouse=True)
def no_journal_left_open():
    """Fail the test that leaves a journal open on the process-wide recorder."""
    yield
    from repro.observability.recorder import get_recorder

    recorder = get_recorder()
    journal = recorder.journal_path
    if journal is not None:
        recorder.close_journal()
        pytest.fail(f"the test left its journal {journal} open on the process-wide recorder")
