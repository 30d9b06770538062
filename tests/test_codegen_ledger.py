"""Emitted-source ledger: the SHA-256 of every generated C kernel, pinned.

A change to the symbolic pipeline (PDE assembly, discretization, the
simplification passes, the IR) that alters what the C emitter prints alters
the compiled kernel, and with it every result.  Such a change must show up
here, not silently in a new ``.so``.  The ledger covers the binary 2-D and
3-D kernel sets, full and split, the overlapped schedule's restricted µ units
(``split_interior_frontier``), and — in the ``slow`` case — the P1 3-D set.

Each group is generated in a fresh interpreter under two string-hash seeds:
seed 0 is the one the benchmark pins, seed 3 the one that once produced a
different 3-D µ kernel.  Both must print the pinned text.

Run a group by hand (prints ``{kernel: sha256}`` as JSON)::

    PYTHONPATH=src python tests/test_codegen_ledger.py binary
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SEEDS = ("0", "3")


def ledger(group: str) -> dict[str, str]:
    """``{"<set>/<variant>/<kernel>": sha256(generate_c_source)}`` of *group*."""
    from repro.backends.c_backend import generate_c_source
    from repro.ir.kernel import split_interior_frontier
    from repro.pfm import GrandPotentialModel, make_p1, make_two_phase_binary

    if group == "binary":
        models = {f"binary{d}d": make_two_phase_binary(dim=d) for d in (2, 3)}
    elif group == "p1":
        models = {"p1_3d": make_p1(dim=3)}
    else:
        raise ValueError(f"unknown ledger group {group!r}")
    out = {}
    for label, params in models.items():
        model = GrandPotentialModel(params)
        for variant in ("full", "split"):
            kernels = model.create_kernels(variant_phi=variant, variant_mu=variant)
            units = list(kernels.all_kernels)
            if variant == "full":
                # the overlapped schedule's µ: one interior unit, 2·dim slabs
                for mu in kernels.mu_kernels:
                    interior, frontiers = split_interior_frontier(mu)
                    units += [interior, *frontiers]
            for kernel in units:
                source = generate_c_source(kernel).encode()
                out[f"{label}/{variant}/{kernel.name}"] = hashlib.sha256(source).hexdigest()
    return out


def _generate(group: str, seed: str) -> dict[str, str]:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONHASHSEED": seed}
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
        "binary2d/split/mu_flux":
            "dba905cc7773e31319fef3fadfdc2411220bd1ce1af41b1d8c57df897617be49",
        "binary2d/split/mu_main":
            "0d314cd252f80f5fe765efc0503a3d9669bc7adf7e431f1b87dffa0b1db32dcd",
        "binary2d/split/phi_flux":
            "9b4b9c981912d01845009a4d506b9ffb579da19089e9baf3438251714dbce0a8",
        "binary2d/split/phi_main":
            "4866134f2d3d4862cb0ba31608091b5c452903cca0f2a3f03a51e313e815cdcd",
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
        "binary3d/split/mu_flux":
            "15dab9f397410f92454dc2e798bfe14ea5e61f49ddf18e230486e63093416000",
        "binary3d/split/mu_main":
            "f2e097ee3ce53d72c1506e51f29c8e5abcb6f3881157f9c97978894a448cfdb7",
        "binary3d/split/phi_flux":
            "f167c17a3ddb15db18685060dc6a8831c7cc0ae9079608be8270e20725003ac6",
        "binary3d/split/phi_main":
            "96b23e97c1c3dbb5bfcbb3a7abdc30575608da74b2fb65915af56cf9d7c12244",
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
        "p1_3d/split/mu_flux":
            "fc7059a23ffc88b45f01430d4e739593484ca98e34eeb6cb72a58089efd1acee",
        "p1_3d/split/mu_main":
            "046a6a68c42754579b9253ac4c42091eaf4da7549c464d45ab0c12f85a7f7497",
        "p1_3d/split/phi_flux":
            "f8b1f4f5089e283dd48bcbcf90438d43ca0d136e038041e59abe8812f31063ba",
        "p1_3d/split/phi_main":
            "cf21e1cad42d2b5fc6bd6e409699caa967733cd1066baeb172b1ec5e42c24792",
        "p1_3d/split/phi_project":
            "aeb704ca97788440a2135a40aabd6b9e87cdb913461e456f5bae7d42f481a15a",
    },
}


def _check(group: str, seed: str) -> None:
    got = _generate(group, seed)
    pinned = PINNED[group]
    assert sorted(got) == sorted(pinned), "kernel list changed"
    changed = sorted(name for name in pinned if got[name] != pinned[name])
    assert not changed, f"emitted C changed under PYTHONHASHSEED={seed}: {changed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_sets_emit_the_pinned_source(seed):
    _check("binary", seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_p1_set_emits_the_pinned_source(seed):
    _check("p1", seed)


if __name__ == "__main__":
    print(json.dumps(ledger(sys.argv[1]), indent=1, sort_keys=True))
