"""Persistent kernel disk cache: keying, atomic publication, concurrency.

The ISSUE-10 soundness claims under test:

* the cache key folds compiler identity + flags + codegen revision, so no
  input that could change the binary can silently reuse a stale one;
* ``kernel.so`` only ever appears via an atomic rename — a failed or
  killed build can never leave a loadable partial artifact;
* N processes racing on one kernel set compile it exactly once (flock +
  ``builds.jsonl`` sentinel) and produce bit-identical results;
* a worker killed mid-compile releases the lock (kernel-side flock
  semantics) and the next builder recovers cleanly.
"""

import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends.c_backend import c_compiler_available
from repro.profiling import clear_kernel_cache, kernel_fingerprint
from repro.profiling.diskcache import (
    CACHE_SCHEMA,
    KernelDiskCache,
    cache_key,
    cache_root,
    codegen_revision,
    compiler_identity,
    disk_cache_stats,
    reset_disk_cache_stats,
)

needs_cc = pytest.mark.skipif(
    not c_compiler_available(), reason="no C compiler available"
)
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork start method"
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private cache root for this test, selected via the env override."""
    root = tmp_path / "kernel-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    reset_disk_cache_stats()
    yield root
    reset_disk_cache_stats()


def _touch_builder(payload: bytes = b"artifact-bytes"):
    def build(tmp_path: Path):
        tmp_path.write_bytes(payload)

    return build


class TestCacheRoot:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert cache_root() == tmp_path / "override"

    def test_xdg_default_is_per_user(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_root() == tmp_path / "xdg" / "repro" / "kernels"

    def test_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert cache_root() == tmp_path / ".cache" / "repro" / "kernels"


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("abc", flags=("-O3",)) == cache_key("abc", flags=("-O3",))

    def test_content_digest_changes_key(self):
        assert cache_key("abc") != cache_key("abd")

    def test_flags_change_key(self):
        assert cache_key("abc", flags=("-O3",)) != cache_key("abc", flags=("-O2",))

    def test_backend_changes_key(self):
        assert cache_key("abc", backend="c") != cache_key("abc", backend="c-bench")

    def test_compiler_identity_changes_key(self):
        # /bin/echo happily answers --version with a different banner than cc
        assert cache_key("abc") != cache_key("abc", cc="/bin/echo")

    def test_codegen_revision_changes_key(self, monkeypatch):
        base = cache_key("abc")
        import repro.profiling.diskcache as dc

        monkeypatch.setattr(dc, "_REVISION", "f" * 16)
        assert cache_key("abc") != base

    def test_compiler_identity_handles_missing_binary(self):
        ident = compiler_identity("/no/such/compiler-xyz")
        assert ident["version"] == "unavailable"

    def test_codegen_revision_stable(self):
        assert codegen_revision() == codegen_revision()
        assert len(codegen_revision()) == 16

    def test_codegen_revision_follows_every_module_the_emitter_imports(
        self, tmp_path, monkeypatch
    ):
        """One byte in any module that shapes the emitted C is a cache miss."""
        import shutil

        import repro.profiling.diskcache as dc

        tree = tmp_path / "repro"
        shutil.copytree(
            dc._SRC_ROOT, tree, ignore=shutil.ignore_patterns("__pycache__")
        )

        def revision():
            monkeypatch.setattr(dc, "_REVISION", None)
            return dc.codegen_revision()

        installed = revision()
        monkeypatch.setattr(dc, "_SRC_ROOT", tree)
        assert revision() == installed == revision()
        hashed = list(dc.codegen_sources())
        # the stride rule the emitter prints, the printer mixins: by name
        assert {"symbolic/field.py", "symbolic/ordering.py"} <= set(hashed)
        # ... and all the hand-written list held
        assert {"backends/c_backend.py", "ir/kernel.py", "ir/loops.py", "ir/types.py"} <= {*hashed}
        for rel in hashed:
            original = (tree / rel).read_bytes()
            (tree / rel).write_bytes(original + b"#")
            assert revision() != installed, rel
            (tree / rel).write_bytes(original)
        assert revision() == installed
        # ... and no other: what the remaining packages do to a kernel is
        # in its fingerprint
        with open(tree / "simplification" / "passes.py", "ab") as fh:
            fh.write(b"#")
        assert revision() == installed

    def test_fingerprint_survives_analytic_coordinates(self):
        # kernel_fingerprint hashes srepr(); sympy's ReprPrinter dispatches on
        # class NAME, so our CoordinateSymbol used to be routed to the
        # sympy.vector printer (which reads .coord_sys) and crashed — meaning
        # any kernel with analytic x-dependence could not take the disk tier
        import sympy as sp

        from repro.profiling.cache import kernel_fingerprint
        from repro.symbolic import coord

        assert sp.srepr(coord(0) * 2) == "Mul(Integer(2), CoordinateSymbol(0))"

        from repro.discretization import (
            FiniteDifferenceDiscretization,
            discretize_system,
        )
        from repro.ir import create_kernel
        from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad

        f = Field("f", 2)
        eq = EvolutionEquation(f.center(), coord(0) ** 2 * div(grad(f.center())))
        ac = discretize_system(
            PDESystem([eq], name="coord_fp"),
            Field("f_dst", 2),
            FiniteDifferenceDiscretization(dim=2),
        )
        k = create_kernel(ac)
        assert kernel_fingerprint(k) == kernel_fingerprint(k)


class TestGetOrBuild:
    def test_build_publishes_and_hits(self, cache_dir):
        cache = KernelDiskCache()
        key = cache_key("content-1")
        path, hit = cache.get_or_build(
            key, _touch_builder(), source="int x;", meta={"kernel": "k"}
        )
        assert not hit and path.read_bytes() == b"artifact-bytes"
        path2, hit2 = cache.get_or_build(key, _touch_builder())
        assert hit2 and path2 == path
        assert cache.build_count(key) == 1
        stats = disk_cache_stats()
        assert (stats.hits, stats.misses, stats.builds) == (1, 1, 1)

    def test_source_and_meta_stored(self, cache_dir):
        cache = KernelDiskCache()
        key = cache_key("content-2")
        cache.get_or_build(key, _touch_builder(), source="int y;", meta={"a": 1})
        assert cache.load_source(key) == "int y;"
        meta = cache.load_meta(key)
        assert meta["schema"] == CACHE_SCHEMA
        assert meta["a"] == 1 and meta["key"] == key
        assert meta["size_bytes"] == len(b"artifact-bytes")

    def test_failed_build_publishes_nothing(self, cache_dir):
        cache = KernelDiskCache()
        key = cache_key("content-3")

        def bad_build(tmp_path: Path):
            tmp_path.write_bytes(b"partial")
            raise RuntimeError("compiler exploded")

        with pytest.raises(RuntimeError, match="compiler exploded"):
            cache.get_or_build(key, bad_build)
        assert cache.lookup(key) is None
        # the half-written temp must not survive either
        assert not list(cache.entry_dir(key).glob(".tmp.*"))
        # and a later build still works
        _, hit = cache.get_or_build(key, _touch_builder())
        assert not hit and cache.lookup(key) is not None

    def test_builder_without_artifact_rejected(self, cache_dir):
        cache = KernelDiskCache()
        with pytest.raises(RuntimeError, match="no artifact"):
            cache.get_or_build(cache_key("content-4"), lambda tmp: None)

    def test_purge_and_bytes(self, cache_dir):
        cache = KernelDiskCache()
        for i in range(3):
            cache.get_or_build(cache_key(f"c{i}"), _touch_builder())
        assert len(cache.entries()) == 3
        assert cache.total_bytes() == 3 * len(b"artifact-bytes")
        assert cache.purge() == 3
        assert cache.entries() == [] and cache.total_bytes() == 0

    def test_clear_kernel_cache_disk_tier(self, cache_dir):
        cache = KernelDiskCache()
        cache.get_or_build(cache_key("c-clear"), _touch_builder())
        assert len(cache.entries()) == 1
        clear_kernel_cache(disk=True)
        assert cache.entries() == []
        stats = disk_cache_stats()
        assert (stats.hits, stats.misses, stats.builds) == (0, 0, 0)


@needs_cc
class TestCompilerFallback:
    def test_openmp_failure_falls_back_to_plain(self, cache_dir, tmp_path, monkeypatch):
        # a cc wrapper that refuses -fopenmp: the retry must still publish
        wrapper = tmp_path / "cc_no_omp.sh"
        wrapper.write_text(
            '#!/bin/sh\nfor a in "$@"; do\n'
            '  [ "$a" = "-fopenmp" ] && { echo "no openmp here" >&2; exit 1; }\n'
            "done\nexec cc \"$@\"\n"
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        from repro.backends.c_backend import _build_shared_object

        so = _build_shared_object("int the_answer(void) { return 42; }", "the_answer")
        assert so.exists()
        import ctypes

        assert ctypes.CDLL(str(so)).the_answer() == 42

    def test_total_compile_failure_leaves_no_artifact(self, cache_dir, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        from repro.backends.c_backend import _build_shared_object

        with pytest.raises(RuntimeError, match="C compilation failed"):
            _build_shared_object("int f(void) { return 0; }", "f")
        cache = KernelDiskCache()
        for entry in cache.entries():
            assert not (entry / "kernel.so").exists()
            assert not list(entry.glob(".tmp.*"))


def _heat_kernel():
    from repro.discretization import FiniteDifferenceDiscretization, discretize_system
    from repro.ir import KernelConfig, create_kernel
    from repro.symbolic import EvolutionEquation, Field, PDESystem, div, grad

    f = Field("f", 2)
    f_dst = Field("f_dst", 2)
    eq = EvolutionEquation(f.center(), div(grad(f.center())))
    system = PDESystem([eq], name="heat_race")
    ac = discretize_system(system, f_dst, FiniteDifferenceDiscretization(dim=2))
    return create_kernel(
        ac, KernelConfig(parameter_values={"dt": 0.1, "dx_0": 1.0, "dx_1": 1.0})
    )


def _run_heat(compiled, kernel):
    from repro.backends import create_arrays

    arrays = create_arrays(kernel.fields, (16, 16), kernel.ghost_layers)
    rng = np.random.default_rng(7)
    for name in arrays:
        arrays[name][...] = rng.random(arrays[name].shape)
    compiled(arrays)
    import hashlib

    return hashlib.sha256(arrays["f_dst"].tobytes()).hexdigest()


def _race_worker(cache_root_path, result_queue):
    os.environ["REPRO_CACHE_DIR"] = str(cache_root_path)
    clear_kernel_cache()  # forked copy of the parent's memory cache
    reset_disk_cache_stats()
    try:
        from repro.profiling import compile_cached

        kernel = _heat_kernel()
        compiled = compile_cached(kernel, "c")
        stats = disk_cache_stats()
        result_queue.put(
            ("ok", os.getpid(), _run_heat(compiled, kernel), stats.builds)
        )
    except Exception as exc:  # pragma: no cover - diagnostic path
        result_queue.put(("error", os.getpid(), repr(exc), -1))


@needs_cc
@needs_fork
class TestMultiProcess:
    def test_race_compiles_exactly_once_bit_identical(self, cache_dir, tmp_path):
        """Satellite 4: >=4 workers race; one build; results match cold run."""
        # the cold single-process reference uses its own private cache
        ref_root = tmp_path / "ref-cache"
        ctx = mp.get_context("fork")
        ref_q = ctx.Queue()
        ref = ctx.Process(target=_race_worker, args=(ref_root, ref_q))
        ref.start()
        kind, _, ref_digest, ref_builds = ref_q.get(timeout=300)
        ref.join(timeout=60)
        assert kind == "ok" and ref_builds >= 1

        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_worker, args=(cache_dir, queue))
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        results = [queue.get(timeout=300) for _ in workers]
        for w in workers:
            w.join(timeout=60)
        assert all(kind == "ok" for kind, *_ in results), results
        digests = {digest for _, _, digest, _ in results}
        assert digests == {ref_digest}  # bit-identical across every process
        # exactly-once: the builds.jsonl sentinels across all entries sum to
        # the number of distinct kernels, regardless of how many racers ran
        cache = KernelDiskCache(cache_dir)
        entries = cache.entries()
        assert entries, "race published no cache entries"
        for entry in entries:
            assert cache.build_count(entry.name) == 1
            assert (entry / "kernel.so").exists()
            assert not list(entry.glob(".tmp.*"))
        total_builds = sum(builds for *_, builds in results)
        assert total_builds == len(entries)

    def test_killed_builder_releases_lock(self, cache_dir):
        """A SIGKILLed compile never blocks or corrupts the entry."""
        cache = KernelDiskCache()
        key = cache_key("kill-me")
        entry = cache.entry_dir(key)
        ctx = mp.get_context("fork")
        started = ctx.Event()

        def stuck_builder_proc():
            def stuck(tmp_path: Path):
                tmp_path.write_bytes(b"partial garbage")
                started.set()
                time.sleep(120)

            KernelDiskCache().get_or_build(key, stuck)

        victim = ctx.Process(target=stuck_builder_proc)
        victim.start()
        assert started.wait(timeout=60), "stuck builder never started"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=60)

        # the kernel released the dead holder's flock: a new builder with a
        # short deadline must acquire it, sweep the orphan temp and publish
        path, hit = KernelDiskCache(lock_timeout=30.0).get_or_build(
            key, _touch_builder(b"good artifact")
        )
        assert not hit and path.read_bytes() == b"good artifact"
        assert cache.build_count(key) == 1
        assert not list(entry.glob(".tmp.*"))


@needs_cc
class TestCompileCKernelDiskTier:
    def test_second_process_equivalent_hit_skips_codegen(self, cache_dir):
        """compile_c_kernel round-trips through the disk tier."""
        from repro.backends.c_backend import compile_c_kernel

        kernel = _heat_kernel()
        reset_disk_cache_stats()
        cold = compile_c_kernel(kernel)
        assert disk_cache_stats().builds == 1
        # simulate a fresh process: drop the memory tier, keep the disk tier
        clear_kernel_cache()
        reset_disk_cache_stats()
        warm = compile_c_kernel(_heat_kernel())
        stats = disk_cache_stats()
        assert stats.builds == 0 and stats.hits >= 1
        assert warm.source == cold.source  # served from the stored kernel.c
        assert _run_heat(warm, kernel) == _run_heat(cold, kernel)

    def test_meta_records_provenance(self, cache_dir):
        from repro.backends.c_backend import _BASE_FLAGS, compile_c_kernel

        kernel = _heat_kernel()
        compile_c_kernel(kernel)
        cache = KernelDiskCache()
        key = cache_key(kernel_fingerprint(kernel), flags=_BASE_FLAGS, backend="c")
        meta = cache.load_meta(key)
        assert meta["kernel"] == kernel.name
        assert meta["fingerprint"] == kernel_fingerprint(kernel)
        assert meta["codegen_revision"] == codegen_revision()
        assert meta["compiler"]["cc"] == os.environ.get("CC", "cc")
