"""Emitted-source ledger: the SHA-256 of every generated C kernel, pinned.

A change to the symbolic pipeline (PDE assembly, discretization, the
simplification passes, the IR) that alters what the C emitter prints alters
the compiled kernel, and with it every result.  Such a change must show up
here, not silently in a new ``.so``.  The ledger covers the binary 2-D and
3-D kernel sets, full and split, the overlapped schedule's restricted µ units
(``split_interior_frontier``), and — in the ``slow`` case — the P1 3-D set.
A split system is one contracted kernel per system (``<set>/split/phi``,
``<set>/split/mu``), pinned since the two-sweep pair ``<system>_flux`` /
``<system>_main`` was folded into it with bitwise equal results
(``tests/test_contracted_split.py``).

Each group is derived in a fresh interpreter, on an empty kernel disk cache,
under two string-hash seeds: seed 0 is the one the benchmark pins, seed 3
the one that once produced a different 3-D µ kernel.  Both must print the
pinned text, and both must derive kernels of equal ``kernel_fingerprint``:
the IR tier's cache key carries no hash seed, so a kernel set pickled under
one seed is loaded under any other.

Run a group by hand (prints ``{"source": {kernel: sha256}, "fingerprint":
{kernel: fingerprint}, "loaded": …, "ir": …}`` as JSON, see :func:`ledger`)::

    PYTHONPATH=src python tests/test_codegen_ledger.py binary
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SEEDS = ("0", "3")


def ledger(group: str) -> dict:
    """Per ``"<set>/<variant>/<kernel>"`` of *group*: the SHA-256 of its
    ``generate_c_source`` (``"source"``) and its ``kernel_fingerprint``.

    Each set is created twice, by two models of equal parameters: the
    second is the first one's IR-tier entry loaded back (or both are loaded
    from a warm cache).  ``"loaded"`` holds the second's digests, and
    ``"ir"`` the process's IR-tier counters.
    """
    from repro.backends.c_backend import generate_c_source
    from repro.ir.kernel import split_interior_frontier
    from repro.pfm import GrandPotentialModel, make_p1, make_two_phase_binary
    from repro.profiling import disk_cache_stats, kernel_fingerprint

    if group == "binary":
        models = {f"binary{d}d": make_two_phase_binary(dim=d) for d in (2, 3)}
    elif group == "p1":
        models = {"p1_3d": make_p1(dim=3)}
    else:
        raise ValueError(f"unknown ledger group {group!r}")
    out = {"source": {}, "fingerprint": {}}
    out["loaded"] = {"source": {}, "fingerprint": {}}
    for label, params in models.items():
        for variant in ("full", "split"):
            for into in (out, out["loaded"]):
                model = GrandPotentialModel(params)
                kernels = model.create_kernels(variant_phi=variant, variant_mu=variant)
                units = list(kernels.all_kernels)
                if variant == "full":
                    # the overlapped schedule's µ: one interior unit, 2·dim slabs
                    for mu in kernels.mu_kernels:
                        interior, frontiers = split_interior_frontier(mu)
                        units += [interior, *frontiers]
                for kernel in units:
                    name = f"{label}/{variant}/{kernel.name}"
                    source = generate_c_source(kernel).encode()
                    into["source"][name] = hashlib.sha256(source).hexdigest()
                    into["fingerprint"][name] = kernel_fingerprint(kernel)
    stats = disk_cache_stats()
    out["ir"] = {"derived": stats.ir_derivations, "loaded": stats.ir_hits}
    return out


@functools.cache
def _generate(group: str, seed: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as cache:
        # an empty kernel disk cache: the subject is the derivation
        env = {**os.environ, "PYTHONHASHSEED": seed, "REPRO_CACHE_DIR": cache}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, __file__, group], env=env, capture_output=True, text=True,
            timeout=600,
        )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


PINNED: dict[str, dict[str, str]] = {
    "binary": {
        "binary2d/full/mu":
            "01e43a94dd7dea7f2124580f94214fb9e88305454def48ca20d69d53fe2b02ec",
        "binary2d/full/mu:frontier_a0hi":
            "3797c54b156516c66c8bd081d7824a0e73a0fd7149121603059e888a4d8c3c31",
        "binary2d/full/mu:frontier_a0lo":
            "5bcb9fbd61848be673d904a430ec27b14473f38cf57ed8bb0592cc9d424f74ae",
        "binary2d/full/mu:frontier_a1hi":
            "df9ad4100ae3267dec972e60bbe71b6c0f9daec1e45f34f63328a5f692ecb722",
        "binary2d/full/mu:frontier_a1lo":
            "914bc7a24bc9934df291509d9a2b2fdaf4553099169bed0b58aa01dbe69fb48f",
        "binary2d/full/mu:interior":
            "6e5270577a4617f0794497076d4212c4dde9a360559b3f0b9cf8b8066fba7bdf",
        "binary2d/full/phi":
            "366953d927d39b32493b0a03c430632b64a5275efd16b561358c787e308a6a02",
        "binary2d/full/phi_project":
            "b5fa75a26bc133ae1d271a067b274740421862632f09eee898291ac5e0112231",
        "binary2d/split/mu":
            "c4ef3fec92fee803bc69daf572bfcf009b1af427078f699e71086a2f27f40a24",
        "binary2d/split/phi":
            "6a8ce3faff09d56cf80cc4f6f827c92df15f1b18deaabcaf6a3a6c91d46013c4",
        "binary2d/split/phi_project":
            "b5fa75a26bc133ae1d271a067b274740421862632f09eee898291ac5e0112231",
        "binary3d/full/mu":
            "51805318d4fa9dfc5e1e0c42d20151799003b93dd421a0606cb82db0db5e2695",
        "binary3d/full/mu:frontier_a0hi":
            "20608668381f00c090cdb042f33cdd9d595d50b6d4a9805cc3d2743e0e2749c8",
        "binary3d/full/mu:frontier_a0lo":
            "23c5c99ca72db676b92a20e11aa75e0bc72e6ca0fd2f1543073ea44cdb5835a8",
        "binary3d/full/mu:frontier_a1hi":
            "ff5929df8b971c4cfdc16d9a431cc51c9385847dc7ed3ec2c780f9c91c66097c",
        "binary3d/full/mu:frontier_a1lo":
            "6bbfa23f3de7041ec1e8438781b58fd4ec4f59e3bfc12990f941036c8b668c3d",
        "binary3d/full/mu:frontier_a2hi":
            "83fd75d3fadb7b0f5075ca4802b54b2d5a6ca3a4ab006a5d1d83cc24c590c60b",
        "binary3d/full/mu:frontier_a2lo":
            "b700ccee1dbe98e91bd4639de50fed780058ec7fa571baf393dd6ebccdb2f4b0",
        "binary3d/full/mu:interior":
            "6d98078536c56c2fa93ae657bb6458cfd66618c250d719de07846e3af7f74876",
        "binary3d/full/phi":
            "61060b1f4ac89f1e0ca25e50bd1f8fbff11e5043f99347c5aa6be8aee90ff4e4",
        "binary3d/full/phi_project":
            "9a67cfc5ca2e4ab04df1af50d4e984ee760478f73723146650062d6b4709c164",
        "binary3d/split/mu":
            "07d056d96725f44c6df7ad25512970da26e2ce21d56e4d1b4f726357302f236b",
        "binary3d/split/phi":
            "22e8f4cb1d1814184cb142dbeeee792313e7e88b01f6d4b2bf45e269c52f7caf",
        "binary3d/split/phi_project":
            "9a67cfc5ca2e4ab04df1af50d4e984ee760478f73723146650062d6b4709c164",
    },
    "p1": {
        "p1_3d/full/mu":
            "b76a838cdc199ce241422da088dfbe8378ae8fe2fec0ed5bd7644cb53754509b",
        "p1_3d/full/mu:frontier_a0hi":
            "b5f7d989599af7569853378a2191a83fcac50048c94a9e6fbdb3bdfced87ff4b",
        "p1_3d/full/mu:frontier_a0lo":
            "4172b51a19a789c9cd49bc12bce99f60d72e37eb6e8dc936b6ccb2ad2fce6173",
        "p1_3d/full/mu:frontier_a1hi":
            "5391ce77e1600351939c398987e9ae9e7fd6310e98868358eea61e4b74dfe884",
        "p1_3d/full/mu:frontier_a1lo":
            "7d8dc5ff4f63e85feeebabb14210dbf4f69226b406c1387eb29d1f7738ee41a4",
        "p1_3d/full/mu:frontier_a2hi":
            "892cb31b984711a68dcf4237c9dacea95098d2c82306f6a42237d216114b70dc",
        "p1_3d/full/mu:frontier_a2lo":
            "1a703c99d03a35c34ebb46ae2c2798b4c02db79a22d5444bfa646b411e4b7cc0",
        "p1_3d/full/mu:interior":
            "eecf6ee1e98b6efb5868b65af62771599e0f8aa60c343e4243e5b0dc7fe642e0",
        "p1_3d/full/phi":
            "a8899e60fb0af777414f6bdf57b44561ad663a2d4260225426f0f7f8c75b13db",
        "p1_3d/full/phi_project":
            "aeb704ca97788440a2135a40aabd6b9e87cdb913461e456f5bae7d42f481a15a",
        "p1_3d/split/mu":
            "8b3b8cfcefc48d73e616c4beb05a777a7568ad1213ec51607545306b6489eded",
        "p1_3d/split/phi":
            "1f82707ea0d412661198c12c7c44d375d7096f44237a2ae81b61b4d06e4ea475",
        "p1_3d/split/phi_project":
            "aeb704ca97788440a2135a40aabd6b9e87cdb913461e456f5bae7d42f481a15a",
    },
}


def _check(group: str, seed: str) -> None:
    got = _generate(group, seed)
    pinned = PINNED[group]
    assert sorted(got["source"]) == sorted(pinned), "kernel list changed"
    changed = sorted(name for name in pinned if got["source"][name] != pinned[name])
    assert not changed, f"emitted C changed under PYTHONHASHSEED={seed}: {changed}"
    # on the empty cache every set is derived once and loaded once, bit for bit
    sets = {"binary": 4, "p1": 2}[group]  # models × variants
    assert got["ir"] == {"derived": sets, "loaded": sets}
    assert got["loaded"] == {"source": got["source"], "fingerprint": got["fingerprint"]}
    reference = _generate(group, SEEDS[0])["fingerprint"]
    moved = sorted(name for name in reference if got["fingerprint"][name] != reference[name])
    assert not moved, (
        f"kernel_fingerprint differs between PYTHONHASHSEED={SEEDS[0]} and {seed}: {moved}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_sets_emit_the_pinned_source(seed):
    _check("binary", seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_p1_set_emits_the_pinned_source(seed):
    _check("p1", seed)


if __name__ == "__main__":
    print(json.dumps(ledger(sys.argv[1]), indent=1, sort_keys=True))
