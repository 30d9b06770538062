"""The cold path of ``create_kernels``: two systems, two processes, one result.

On an empty cache, with a second usable CPU and no other thread, a model
forks one child that derives the µ system and publishes its binary (and
the native fill's) while the caller derives φ and the projection and
builds their binaries.
On one CPU, or beside another thread, the same per-system function runs in
process and builds nothing.  Either way the emitted C and the kernel
fingerprints are the same, the child's failure is a named error, a
compiler that fails leaves the set usable, and nothing outlives the call.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends.c_backend import (
    _GCC_FLAGS,
    _build_shared_object,
    c_compiler_available,
    compile_c_fill,
)
from repro.observability.recorder import FlightRecorder, set_recorder
from repro.pfm import GrandPotentialModel, SingleBlockSolver, make_two_phase_binary
from repro.pfm import model as model_module
from repro.pfm.initialize import planar_front
from repro.pfm.model import KernelDerivationError
from repro.profiling import disk_cache_stats
from repro.profiling.cache import usable_cpus

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or usable_cpus() < 2, reason="needs fork and two usable CPUs"
)
needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler available")

#: a binary 2-D derivation in a fresh interpreter; argv[1] "one-cpu" first
#: restricts it to one CPU.  Prints whether it forked, the SHA-256 of every
#: kernel's emitted C and every kernel_fingerprint, full and split
_PROGRAM = """
import hashlib, json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.backends.c_backend import generate_c_source
from repro.pfm import GrandPotentialModel, make_two_phase_binary
from repro.pfm.model import _may_fork
from repro.profiling import kernel_fingerprint
out = {"forked": _may_fork(), "source": {}, "fingerprint": {}}
for variant in ("full", "split"):
    model = GrandPotentialModel(make_two_phase_binary(dim=2))
    kernels = model.create_kernels(variant_phi=variant, variant_mu=variant)
    for k in kernels.all_kernels:
        name = f"{variant}/{k.name}"
        out["source"][name] = hashlib.sha256(generate_c_source(k).encode()).hexdigest()
        out["fingerprint"][name] = kernel_fingerprint(k)
print(json.dumps(out))
"""


def _derive(mode: str, cache: Path) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "REPRO_CACHE_DIR": str(cache)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _PROGRAM, mode], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


def _binary():
    return GrandPotentialModel(make_two_phase_binary(dim=2))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts in this process (which may fork)."""
    assert model_module._may_fork(), "a thread of an earlier test is still alive"
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pid: int) -> None:
    """*pid* was this process's child and has been waited for: no zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_forked_and_in_process_derivations_emit_the_same_kernels(tmp_path):
    forked = _derive("all-cpus", tmp_path / "forked")
    in_process = _derive("one-cpu", tmp_path / "in-process")
    assert (forked["forked"], in_process["forked"]) == (True, False)
    assert len(forked["source"]) == 3 + 3  # φ, projection, µ: full, and split (contracted)
    assert forked["source"] == in_process["source"]
    assert forked["fingerprint"] == in_process["fingerprint"]


@needs_fork
def test_another_thread_keeps_the_derivation_in_process(cold_cache, forks, monkeypatch):
    """The in-process path is the same per-system function, called here."""
    systems = []
    lower = GrandPotentialModel._lower_system

    def counting(self, system, *args, **kwargs):
        systems.append((system, os.getpid()))
        return lower(self, system, *args, **kwargs)

    monkeypatch.setattr(GrandPotentialModel, "_lower_system", counting)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        kernels = _binary().create_kernels()
    finally:
        release.set()
        other.join()
    assert forks == []
    assert systems == [("phi", os.getpid()), ("mu", os.getpid())]
    assert [k.name for k in kernels.all_kernels] == ["phi", "phi_project", "mu"]
    assert disk_cache_stats().builds == 0  # the time loop builds what it runs


@needs_fork
@needs_cc
def test_the_childs_builds_and_spans_are_counted_here(cold_cache, forks, caplog):
    compile_c_fill.cache_clear()  # built once per process: here, by the child
    recorder = FlightRecorder(capacity=None)
    previous = set_recorder(recorder)
    try:
        before = threading.active_count()
        with caplog.at_level(logging.INFO, logger="repro.pfm.model"):
            kernels = _binary().create_kernels()
        assert threading.active_count() == before
        (pid,) = forks
        _assert_reaped(pid)
        (exited,) = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("derivation_child_exited")]
        assert f"pid={pid}" in exited and "peak_rss_mb=" in exited
        stats = disk_cache_stats()
        # φ and the projection (here), µ and the native fill (in the child)
        assert (stats.builds, stats.misses, stats.ir_derivations) == (4, 4, 1)
        spans = [e.name for e in recorder.events if e.kind == "span_end"]
        for name in ("build_mu_system", "create_kernel:mu", "codegen:c:mu", "compile:mu",
                     "compile:fill_ghosts"):
            assert spans.count(name) == 1, name
        assert [e.seq for e in recorder.events] == list(range(1, len(recorder) + 1))

        # the time loop builds nothing: φ and the projection are in memory, µ on disk
        seen = len(recorder)
        SingleBlockSolver(kernels, (8, 8), backend="c")
        assert disk_cache_stats().builds == 4
        lowered = [
            (e.name, e.data["disk_cache"]) for e in recorder.events[seen:]
            if e.kind == "span_end" and e.name.startswith("codegen:c:")
        ]
        assert lowered == [("codegen:c:mu", "hit")]
    finally:
        set_recorder(previous)


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failing_child_is_a_named_error(cold_cache, forks, monkeypatch, failure):
    parent = os.getpid()
    lower = GrandPotentialModel._lower_system

    def failing(self, system, *args, **kwargs):
        if system == "mu" and os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("no mu today")
        return lower(self, system, *args, **kwargs)

    monkeypatch.setattr(GrandPotentialModel, "_lower_system", failing)
    cause = "ValueError: no mu today" if failure == "raises" else "killed by SIGKILL"
    t0 = time.monotonic()
    with pytest.raises(KernelDerivationError, match=f"(?s)'mu' kernels.*{cause}"):
        _binary().create_kernels()
    assert time.monotonic() - t0 < 60
    (pid,) = forks
    _assert_reaped(pid)
    assert not list(cold_cache.rglob("kernels.pickle"))


def _running(pid: int) -> bool:
    """Whether *pid*, not necessarily a child of this process, runs (a zombie does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_failure_here_kills_the_child_and_its_compiler_runs(
    cold_cache, forks, monkeypatch, tmp_path
):
    """The caller fails while the child waits for a compiler: neither is left."""
    started = tmp_path / "compiler.pid"
    parent = os.getpid()
    lower = GrandPotentialModel._lower_system

    def compiling(jobs, workers=None):  # the child's builds: one long compiler run
        run = subprocess.Popen(["sleep", "120"])
        started.write_text(str(run.pid))
        run.wait()

    def failing(self, system, *args, **kwargs):
        if system == "phi" and os.getpid() == parent:
            deadline = time.monotonic() + 60
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("no phi today")
        return lower(self, system, *args, **kwargs)

    monkeypatch.setattr(model_module, "c_compiler_available", lambda: True)
    monkeypatch.setattr(model_module, "compile_all", compiling)
    monkeypatch.setattr(GrandPotentialModel, "_lower_system", failing)
    with pytest.raises(ValueError, match="no phi today"):
        _binary().create_kernels()
    (pid,) = forks
    _assert_reaped(pid)
    compiler = int(started.read_text())
    deadline = time.monotonic() + 10
    while _running(compiler) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(compiler)


@needs_fork
def test_a_failing_compiler_leaves_the_set_usable(cold_cache, forks, tmp_path, monkeypatch):
    """A failed build is not a failed derivation: the set is published, NumPy runs it."""
    broken = tmp_path / "cc-broken"
    broken.write_text("#!/bin/sh\nexit 1\n")
    broken.chmod(0o755)
    monkeypatch.setenv("CC", str(broken))
    compile_c_fill.cache_clear()
    kernels = _binary().create_kernels()
    (pid,) = forks
    _assert_reaped(pid)
    assert disk_cache_stats().ir_derivations == 1
    assert len(list(cold_cache.rglob("kernels.pickle"))) == 1
    solver = SingleBlockSolver(kernels, (8, 8), backend="numpy")
    solver.set_state(planar_front((8, 8), 2, 0, 1, position=4.0, epsilon=4.0))
    solver.step(2)
    assert np.isfinite(solver.phi).all()
    # the C solver builds again and reports the compiler's failure
    with pytest.raises(RuntimeError, match="C compilation failed"):
        SingleBlockSolver(kernels, (8, 8), backend="c")


@pytest.mark.parametrize("reason", ["no compiler"])
def test_only_a_cpu_set_with_a_compiler_builds(cold_cache, monkeypatch, reason):
    """Without a C compiler a cold derivation derives the set and builds nothing."""
    monkeypatch.setattr(model_module, "c_compiler_available", lambda: False)
    _binary().create_kernels()
    stats = disk_cache_stats()
    assert (stats.builds, stats.ir_derivations) == (0, 1)


@needs_cc
@pytest.mark.parametrize("compiler", ["gcc", "other"])
def test_only_gcc_is_given_the_epilogue_flag(cold_cache, tmp_path, monkeypatch, compiler):
    """The flag list of another compiler is what it was."""
    log = tmp_path / "args.log"
    banner = "Copyright (C) 2022 Free Software Foundation, Inc." if compiler == "gcc" else ""
    wrapper = tmp_path / f"cc-{compiler}"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'if [ "$1" = --version ]; then echo "{compiler} 1.0"; echo "{banner}"; exit 0; fi\n'
        f'echo "$@" >> {log}\n'
        f'exec {os.environ.get("CC", "cc")} "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    _build_shared_object("int the_answer(void) { return 42; }", "the_answer")
    (args,) = log.read_text().splitlines()
    given = set(_GCC_FLAGS) <= set(args.split())
    assert given == (compiler == "gcc")

