"""Golden identity of the generator's output over the kernel suite.

Every (kernel config, backend options, emitter family) triple pins a
sha256 of the emitted artifacts and of the scheduled design's IR
(``design["dag"]`` plus the per-dataflow ``configs``).  The pins in
``golden_identity.json`` were recorded at the commit *before* the back
end's IR became indexed, so a refactor of ``backend/`` that changes one
emitted byte, one edge's position in the serialized order or one
liveness set fails here in tier-1 and not only in the benchmark's three
sums.  ``design["report"]`` is excluded: it is free to gain keys.

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
    print(json.dumps({f"{k}/{o}/{f}": fingerprint(k, o, f)
                      for k, o, f in CASES}, indent=1, sort_keys=True))
