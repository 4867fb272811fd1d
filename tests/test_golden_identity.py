"""Golden identity of the generator's output over the kernel suite.

Every (kernel config, backend options, emitter family) triple pins a
sha256 of the emitted artifacts and of the scheduled design's IR
(``design["dag"]`` plus the per-dataflow ``configs``).  The pins in
``golden_identity.json`` were recorded at the commit *before* the back
end's IR became indexed, so a refactor of ``backend/`` that changes one
emitted byte, one edge's position in the serialized order or one
liveness set fails here in tier-1 and not only in the benchmark's three
sums.  ``design["report"]`` is excluded: it is free to gain keys.

The ``adg/...`` pins hold the front end alone at benchmark scale: a sha256
of the canonical ``design["adg"]`` of each ``cold_compile`` config at
8x8/12x12 (plus gemm-IJ/IK at 8x8), where the reuse arborescences
contract cycles that 4x4 arrays barely have.  Only ``build_adg`` runs.

The ``ir/...`` pins hold the scheduled back end at the same scale: the IR
digest of the six ``cold_compile`` configs at default options.
Accumulation chains 8 and 12 adders deep and large broadcast trees only
appear there; the 4x4 pins above barely have either.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_identity.py > tests/golden_identity.json
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.backend import BackendOptions
from repro.core.frontend import build_adg
from repro.serialize import canonical_dumps
from repro.service.spec import DesignRequest, execute_request

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_identity.json")

KERNELS = {
    "gemm-KJ": dict(kernel="gemm", dataflows=("KJ",)),
    "gemm-IJ": dict(kernel="gemm", dataflows=("IJ",)),
    "gemm-IK": dict(kernel="gemm", dataflows=("IK",)),
    "gemm-IJ+KJ": dict(kernel="gemm", dataflows=("IJ", "KJ"), systolic=False),
    "conv2d-OHOW": dict(kernel="conv2d", dataflows=("OHOW",)),
    "mttkrp-IJ+KJ": dict(kernel="mttkrp", dataflows=("IJ", "KJ"),
                         systolic=False),
    "attention": dict(kernel="attention"),
}
OPTIONS = {"default": BackendOptions(), "baseline": BackendOptions.baseline()}
FAMILIES = ("verilog", "hls_c")
CASES = [(k, o, f) for k in KERNELS for o in OPTIONS for f in FAMILIES]


ADG_CASES = {
    "gemm-KJ@8x8": dict(KERNELS["gemm-KJ"], array=(8, 8)),
    "gemm-IJ@8x8": dict(KERNELS["gemm-IJ"], array=(8, 8)),
    "gemm-IK@8x8": dict(KERNELS["gemm-IK"], array=(8, 8)),
    "gemm-IJ+KJ@8x8": dict(KERNELS["gemm-IJ+KJ"], array=(8, 8)),
    "conv2d-OHOW@8x8": dict(KERNELS["conv2d-OHOW"], array=(8, 8)),
    "mttkrp-IJ+KJ@8x8": dict(KERNELS["mttkrp-IJ+KJ"], array=(8, 8)),
    "attention@8x8": dict(KERNELS["attention"], array=(8, 8)),
    "gemm-KJ@12x12": dict(KERNELS["gemm-KJ"], array=(12, 12)),
}


IR_CASES = ("gemm-KJ@8x8", "gemm-IJ+KJ@8x8", "conv2d-OHOW@8x8",
            "mttkrp-IJ+KJ@8x8", "attention@8x8", "gemm-KJ@12x12")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(kernel: str, options: str, family: str) -> dict[str, str]:
    return digests(DesignRequest(array=(4, 4), options=OPTIONS[options],
                                 backend=family, module="golden_top",
                                 **KERNELS[kernel]))


def digests(request: DesignRequest) -> dict[str, str]:
    result = execute_request(request, cache=None)
    assert result.ok, result.traceback
    return {
        "artifacts": _sha(canonical_dumps(result.artifacts)),
        "ir": _sha(canonical_dumps({"dag": result.design["dag"],
                                    "configs": result.design["configs"]})),
    }


def adg_section(adg) -> dict:
    """``design["adg"]`` as ``serialize.design_to_dict`` writes it."""
    return {
        "connections": [{
            "tensor": c.tensor, "src": list(c.src), "dst": list(c.dst),
            "depth": c.depth, "kind": c.kind,
            "dataflows": sorted(c.dataflows),
        } for c in adg.connections],
        "data_nodes": [{
            "tensor": n.tensor, "fu": list(n.fu), "is_output": n.is_output,
            "dataflows": sorted(n.dataflows),
            "fallback_of": sorted(n.fallback_of),
        } for n in adg.data_nodes],
        "memory": {t: {"bank_shape": list(m.bank_shape),
                       "bank_stride": list(m.bank_stride),
                       "n_data_nodes": m.n_data_nodes}
                   for t, m in adg.memory.items()},
    }


def adg_digest(label: str) -> str:
    request = DesignRequest(**ADG_CASES[label])
    adg = build_adg(request.build_dataflows(), request.frontend)
    return _sha(canonical_dumps(adg_section(adg)))


def ir_digest(label: str) -> str:
    return digests(DesignRequest(**ADG_CASES[label]))["ir"]


@pytest.mark.parametrize("label", list(ADG_CASES))
def test_adg_matches_pinned_hash(label):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert adg_digest(label) == golden[f"adg/{label}"]


@pytest.mark.parametrize("label", IR_CASES)
def test_scheduled_ir_matches_pinned_hash(label):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert ir_digest(label) == golden[f"ir/{label}"]


def test_adg_section_is_what_the_design_records():
    request = DesignRequest(array=(4, 4), **KERNELS["gemm-IJ+KJ"])
    result = execute_request(request, cache=None)
    adg = build_adg(request.build_dataflows(), request.frontend)
    assert canonical_dumps(adg_section(adg)) == \
        canonical_dumps(result.design["adg"])


@pytest.mark.parametrize("kernel,options,family", CASES)
def test_output_matches_pinned_hashes(kernel, options, family):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint(kernel, options, family) == \
        golden[f"{kernel}/{options}/{family}"]


# no pinned design has three dataflows
THREE_DATAFLOWS = dict(kernel="gemm", dataflows=("IJ", "IK", "KJ"),
                       array=(6, 5), systolic=False)


def test_output_does_not_depend_on_the_hash_seed():
    """With three dataflows the output path used to group them in set
    order, so the design a process emitted followed PYTHONHASHSEED."""
    here = pathlib.Path(__file__).parent
    script = ("import json, test_golden_identity as g\n"
              "print(json.dumps(g.digests("
              "g.DesignRequest(**g.THREE_DATAFLOWS))))")
    path = str(here.parent / "src") + os.pathsep + os.environ.get(
        "PYTHONPATH", "")
    outputs = [json.loads(subprocess.run(
        [sys.executable, "-c", script], cwd=here, capture_output=True,
        text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout)
        for seed in ("0", "1")]
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    pins = {f"{k}/{o}/{f}": fingerprint(k, o, f) for k, o, f in CASES}
    pins.update({f"adg/{label}": adg_digest(label) for label in ADG_CASES})
    pins.update({f"ir/{label}": ir_digest(label) for label in IR_CASES})
    print(json.dumps(pins, indent=1, sort_keys=True))
