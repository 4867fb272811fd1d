"""The netlist lowering (:mod:`repro.backend.netlist`) where generated
designs never exercise its rules.

Generated designs enable every active memory port and give every pin of
a reducer the same dataflows (reduction extraction makes it so), and no
dynamic mux has an unconnected source, so dropping the read-enable rule,
the reducer's ``pin_dataflows`` filter or the printer's rule for an
unconnected source moves no golden output.  Each test edits one design's
configuration so that one rule decides the outcome, then checks the
vectorized engine, which runs the netlist, against the reference
interpreter, which applies its own copy of the rule.
"""

import numpy as np
import pytest

from repro.backend import generate, run_backend
from repro.backend.netlist import Netlist
from repro.core.frontend import build_adg
from repro.service.spec import DesignRequest
from test_backends import _compiler, run_testbenches
from test_golden_identity import KERNELS
from test_sim_differential import assert_engines_agree, stimulus


def golden(kernel: str):
    request = DesignRequest(array=(2, 2), **KERNELS[kernel])
    return run_backend(generate(build_adg(request.build_dataflows(),
                                          request.frontend)),
                       request.options)


def lowered(design, dataflow: str, nid: int):
    return next(op for op in Netlist(design, dataflow).ops() if op.nid == nid)


def test_read_disabled_port_is_idle():
    design = golden("gemm-KJ")
    (name, cfg), = design.configs.items()
    tensors = stimulus(design, name, np.random.default_rng(0))
    port = min(cfg.read_enable)
    cfg.read_enable.discard(port)
    assert lowered(design, name, port).kind == "idle"
    assert_engines_agree(design, name, tensors)


def test_reducer_sums_only_its_dataflows_pins():
    design = golden("mttkrp-IJ+KJ")
    name = "MTTKRP-KJ"
    reducer = next(op for op in Netlist(design, name).ops()
                   if op.kind == "reducer")
    params = design.dag.nodes[reducer.nid].params
    params["pin_dataflows"] = {**params["pin_dataflows"], 1: set()}
    assert lowered(design, name, reducer.nid).operands == \
        reducer.operands[:1]
    assert_engines_agree(design, name,
                         stimulus(design, name, np.random.default_rng(0)))


@pytest.mark.skipif(_compiler() is None,
                    reason="no system C compiler available")
def test_unconnected_policy_source_forwards_invalid(tmp_path):
    """A dynamic mux whose chosen source is unconnected forwards an
    invalid value in the simulator and in the printed C alike."""
    design = golden("conv2d-OHOW")
    (name, cfg), = design.configs.items()
    mux = min(cfg.mux_policy)
    (pin, dt), *_rest = cfg.mux_policy[mux]
    assert dt is not None
    cfg.active_edges -= {e.uid for e in design.dag.edges
                         if e.dst == mux and e.dst_pin == pin}
    assert lowered(design, name, mux).operands[1] is None
    assert_engines_agree(design, name,
                         stimulus(design, name, np.random.default_rng(0)))
    # the disconnected source's producer is now written and never read,
    # which the compiler warns about
    assert run_testbenches(design, tmp_path, "conv2d-OHOW",
                           werror=False) == 1
