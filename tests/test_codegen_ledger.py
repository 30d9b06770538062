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
(``tests/test_contracted_split.py``).  The P1 φ pins (``p1_3d/full/phi``,
``p1_3d/split/phi``) are those of the rows that read one shared Lagrange
multiplier (``GrandPotentialModel._phi_system``); the binary φ rows keep
the expanded form.  Every pin is of the source set whose sums of four or
more terms print as balanced trees (``symbolic.ordering.BalancedSums``):
each kernel with such a sum moved when the rule came in, and only the
binary projections, whose sums have at most three terms, kept their text.

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
            "e690857635e45615a65aefdaa1204206b56d2d916dedfb00f7e687ace7c083c5",
        "binary2d/full/mu:frontier_a0hi":
            "d408ce77db40ff3ab46a040ebe25e6d6c5f7232ac54aa4a8bee924b7a8050888",
        "binary2d/full/mu:frontier_a0lo":
            "d79432edaab02378a3062bb07f2accc5afc04009fa9598adbfee172ba45ccb36",
        "binary2d/full/mu:frontier_a1hi":
            "bb903b54cc4792ae4d7f42f01ec6e9f42c124c619d63ecef42f1775cd697c0ad",
        "binary2d/full/mu:frontier_a1lo":
            "1b8bf29ffa2f36a98c9fac7848e1e34c124ae900296232255e7faa15c3e64227",
        "binary2d/full/mu:interior":
            "094bd096b429b6aa799fa957422350ef98b77b2ada326777c040dfe959d0cfbc",
        "binary2d/full/phi":
            "0387659df7567aaec580a5242707ed2152caf6d21c7a723558421e9d909d174e",
        "binary2d/full/phi_project":
            "b5fa75a26bc133ae1d271a067b274740421862632f09eee898291ac5e0112231",
        "binary2d/split/mu":
            "ecc9af8e0255a6b73c7e37331e7a296bddc8df188318c663f4630235501b6c81",
        "binary2d/split/phi":
            "f8c01990e713342c1e3a39a2272a38399ff51b6ff81eed0c6b8743383634c540",
        "binary2d/split/phi_project":
            "b5fa75a26bc133ae1d271a067b274740421862632f09eee898291ac5e0112231",
        "binary3d/full/mu":
            "d505128d3edde34b48361f03e84514c4a7217dcd59419e5f2e9dd14a5a235d02",
        "binary3d/full/mu:frontier_a0hi":
            "44e458d3b5bec681d11b4b3a991e42ba6fac0d3bbc8938940fbfc2969c6966a7",
        "binary3d/full/mu:frontier_a0lo":
            "788040c276b3eeced5d26d1729dc49768fd728242283e9eb0511455b5ce48468",
        "binary3d/full/mu:frontier_a1hi":
            "547158756cb56287553688e79956d8d4e6ae28e43c556eb93c4bda45755e1370",
        "binary3d/full/mu:frontier_a1lo":
            "22808874861e5d9588bf089ec1c40d8292ae90301c1194c0a286e5fadcfc425b",
        "binary3d/full/mu:frontier_a2hi":
            "a5bcb25b4b6c92240846f800ae57cbb4704d7850a81e7b716196581b3f03769d",
        "binary3d/full/mu:frontier_a2lo":
            "b4b74375ddd38be94bc2704044cab5848da1ca5f22c08526b0c464309a8e9b2c",
        "binary3d/full/mu:interior":
            "3065aa3c130acf91a0c29a3c688b929e437e1750eb8f8307f2483388f615a787",
        "binary3d/full/phi":
            "4bd6b847ea1ecc01b4cb0794a82d77c9af0f23ebfe13c5ce44fa48de9ac87cf1",
        "binary3d/full/phi_project":
            "9a67cfc5ca2e4ab04df1af50d4e984ee760478f73723146650062d6b4709c164",
        "binary3d/split/mu":
            "ed0baf2059e77edbdb48fede1ee67a4f0ff90ca0a850e959b05632a75e0562da",
        "binary3d/split/phi":
            "ab0514903848135591812e0c50309a284ab487b33e422cf039d642ca59ad60eb",
        "binary3d/split/phi_project":
            "9a67cfc5ca2e4ab04df1af50d4e984ee760478f73723146650062d6b4709c164",
    },
    "p1": {
        "p1_3d/full/mu":
            "639ad53dbb80a21fd876b34db2950d4e58e084a5bbe76577f910c8d62cb43807",
        "p1_3d/full/mu:frontier_a0hi":
            "647b36060625630f59048d68782d67b76c5e8a9958afd4bd53f0f28566d5a92a",
        "p1_3d/full/mu:frontier_a0lo":
            "2f03f3382148fc5eea034a4f5324eed9a1695c1aa136d0f8d873a5a2b1067cbd",
        "p1_3d/full/mu:frontier_a1hi":
            "718d498e3cdae495fa413e148bc8046ae2feafaf41f64b9b186bd0a784e9570c",
        "p1_3d/full/mu:frontier_a1lo":
            "c157ec9aa73069b0614cbd8ad10c3a9d2368af92132b804b0dc0fd5ea9aeef24",
        "p1_3d/full/mu:frontier_a2hi":
            "e8f1138112982bd214c1e1764a3a2d4d9169fc6de557806ec9b139323a9180c6",
        "p1_3d/full/mu:frontier_a2lo":
            "a24c4f8d9ecab833e645d38dfa84fb72e5fe71ca3b7ab002bfac386e07a8675f",
        "p1_3d/full/mu:interior":
            "de58e5e90d2dd8927e66eadc9abe4d94ed2955e3741e92aed571ee1b9dec7d21",
        "p1_3d/full/phi":
            "6d00b192090c2849065ed8232d7ea923e831dc3e86d22f074b86428af2bf8c35",
        "p1_3d/full/phi_project":
            "8117e7de0a1feeed575be58c108fbc0e2c89f90b17ac50157b53f641ca841873",
        "p1_3d/split/mu":
            "99ea23b71cbc001392e163c6518d19632231f9d94abe81db0e6d7d4db3366be6",
        "p1_3d/split/phi":
            "1ea628fc579748e863f27926ae35e1730c3307233842722d068bac01cb993f41",
        "p1_3d/split/phi_project":
            "8117e7de0a1feeed575be58c108fbc0e2c89f90b17ac50157b53f641ca841873",
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
