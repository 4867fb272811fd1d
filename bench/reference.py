"""Output checks that do not trust the generator.

Every ``cold_compile`` design is run, dataflow by dataflow, through the
cycle simulator on seeded inputs and compared with the NumPy references
below (written here, from the kernels' mathematical definitions — not
imported from ``repro``).  Where a C compiler exists, each emitted
``hls_c`` testbench is compiled and executed and must report its own
self-check as passed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import time

import numpy as np

# kernel (or, for attention, dataflow name) -> (input tensors, output)
_TENSORS = {
    "gemm": (("X", "W"), "Y"),
    "conv2d": (("X", "W"), "Y"),
    "mttkrp": (("A", "B", "C"), "Y"),
    "Attn-QK": (("Q", "K"), "S"),
    "Attn-PV": (("P", "V"), "O"),
}


def tensors_of(kernel: str, dataflow: str) -> tuple[tuple[str, ...], str]:
    return _TENSORS[dataflow if kernel == "attention" else kernel]


def _conv2d(x: np.ndarray, w: np.ndarray, out_shape) -> np.ndarray:
    """``Y[n,oc,oh,ow] += X[n,ic,oh+kh-1,ow+kw-1] * W[oc,ic,kh,kw]`` as a
    direct loop; an input index of -1 reads zero (the kernel's padding
    origin)."""
    n_n, n_oc, n_oh, n_ow = out_shape
    _oc, n_ic, n_kh, n_kw = w.shape
    y = np.zeros(out_shape, dtype=np.int64)
    for kh in range(n_kh):
        for kw in range(n_kw):
            for oh in range(n_oh):
                ih = oh + kh - 1
                if ih < 0:
                    continue
                for ow in range(n_ow):
                    iw = ow + kw - 1
                    if iw < 0:
                        continue
                    # [n, ic] x [oc, ic] -> [n, oc]
                    y[:, :, oh, ow] += x[:, :, ih, iw] @ w[:, :, kh, kw].T
    return y


def reference(kernel: str, dataflow: str, tensors: dict, out_shape):
    if kernel == "gemm":
        return tensors["X"] @ tensors["W"]
    if kernel == "conv2d":
        return _conv2d(tensors["X"], tensors["W"], out_shape)
    if kernel == "mttkrp":
        return np.einsum("ikl,kj,lj->ij", tensors["A"], tensors["B"],
                         tensors["C"])
    if dataflow == "Attn-QK":
        return np.einsum("hqd,hkd->hqk", tensors["Q"], tensors["K"])
    return np.einsum("hqk,hkd->hqd", tensors["P"], tensors["V"])


def check_design(kernel: str, design_dict: dict, seed: int) -> list[dict]:
    """Simulate every dataflow of one serialized design on seeded inputs;
    one row per dataflow with the verdict and the activity counters."""
    from repro.serialize import design_from_dict
    from repro.sim import dag_sim

    design = design_from_dict(design_dict)
    reference_calls = [0]
    run_reference = dag_sim.Simulator._run_reference

    def counting(self, *args, **kwargs):
        reference_calls[0] += 1
        return run_reference(self, *args, **kwargs)

    rows = []
    dag_sim.Simulator._run_reference = counting
    try:
        for index, name in enumerate(sorted(design.configs)):
            inputs, output = tensors_of(kernel, name)
            rng = np.random.default_rng([seed, index])
            tensors = {t: dag_sim.make_input(design, name, t, rng, 0, 8)
                       for t in inputs}
            t0 = time.perf_counter()
            sim = dag_sim.Simulator(design, name)
            t1 = time.perf_counter()
            before = reference_calls[0]
            result = sim.run(tensors)
            t2 = time.perf_counter()
            got = result.outputs[output]
            want = reference(kernel, name, tensors, got.shape)
            static = getattr(sim, "_program", None) is None
            rows.append({
                "dataflow": name,
                "ok": bool(got.shape == want.shape
                           and np.array_equal(got, want)),
                "cycles": int(result.cycles),
                "toggles": int(sum(result.toggles.values())),
                "mem_reads": int(sum(result.mem_reads.values())),
                "mem_writes": int(sum(result.mem_writes.values())),
                "compile_s": t1 - t0,
                "run_s": t2 - t1,
                "static_fallback": static,
                "runtime_fallback": (not static
                                     and reference_calls[0] > before),
            })
    finally:
        dag_sim.Simulator._run_reference = run_reference
    return rows


class Testbenches:
    """Compile and run emitted ``hls_c`` testbenches with the system C
    compiler, compiling in the background while other checks run."""

    def __init__(self, workdir: str):
        self.cc = shutil.which("cc") or shutil.which("gcc")
        self.workdir = workdir
        self._jobs: list[tuple[str, str, subprocess.Popen]] = []

    def start(self, label: str, artifacts: dict[str, str]) -> None:
        if self.cc is None:
            return
        directory = os.path.join(self.workdir, f"tb-{len(self._jobs)}")
        os.makedirs(directory, exist_ok=True)
        sources = []
        for filename, text in artifacts.items():
            path = os.path.join(directory, os.path.basename(filename))
            with open(path, "w") as fh:
                fh.write(text)
            sources.append(path)
        binary = os.path.join(directory, "tb.bin")
        proc = subprocess.Popen(
            [self.cc, "-O0", "-w", "-o", binary, *sources],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self._jobs.append((label, binary, proc))

    def finish(self) -> list[dict]:
        rows = []
        for label, binary, proc in self._jobs:
            compiled = proc.wait() == 0
            passed = False
            if compiled:
                try:
                    run = subprocess.run([binary], capture_output=True,
                                         text=True, timeout=60)
                    passed = (run.returncode == 0
                              and "TESTBENCH PASSED" in run.stdout)
                except (OSError, subprocess.TimeoutExpired):
                    passed = False
            rows.append({"design": label, "compiled": compiled,
                         "passed": passed})
        self._jobs = []
        return rows

    def abort(self) -> None:
        for _label, _binary, proc in self._jobs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self._jobs = []
