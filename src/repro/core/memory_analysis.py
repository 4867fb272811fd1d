"""Relation-based memory analysis (paper §IV-D, Fig. 6).

Data nodes access L1 memory simultaneously, so the tensor data layout must
avoid bank conflicts.  Examining the data indexes of all data-node FUs at
``t = 0``, a per-tensor-dimension bank count

    B_i  =  max|delta_d_i| / gcd({|delta_d_i|}) + 1

guarantees conflict-freedom (Eq. 8-9): any two simultaneous accesses then
land in different banks.  When several dataflows are fused, each needs its
own bank *shape*; the fused memory provisions ``max`` banks and re-views
them per dataflow (Fig. 6(c)).
"""

from __future__ import annotations

import numpy as np

from .adg import MemoryLayout
from .dataflow import Dataflow

__all__ = ["analyze_banks", "verify_conflict_free", "fuse_layouts",
           "distribution_switch_size"]

Coord = tuple[int, ...]


def analyze_banks(dataflow: Dataflow, tensor: str,
                  data_nodes: list[Coord]) -> MemoryLayout:
    """Compute the conflict-free bank shape for *tensor* under *dataflow*.

    ``data_nodes`` are the FU coordinates labelled with a data node by the
    MST stage.  Following the paper, we evaluate the accessed data index of
    each data node at ``t = 0`` and bound the per-dimension index deltas.
    """
    mdt, mds, bias = dataflow.tensor_ts_map(tensor)
    rank = mds.shape[0]
    if not data_nodes:
        return MemoryLayout(tensor, (1,) * rank, (1,) * rank, 0)

    # All data-node indexes at once, one row per node.
    coords = np.array(data_nodes, dtype=np.int64).reshape(len(data_nodes), -1)
    indexes = coords @ mds.T + bias
    # Per dimension the set {|d_a - d_b|} has max = max - min, and the same
    # gcd as the deltas against any one node (every pairwise delta is a
    # difference of two of those); a dimension no delta touches reads 0.
    spread = indexes.max(axis=0) - indexes.min(axis=0)
    stride = np.gcd.reduce(indexes - indexes[0], axis=0)
    stride[stride == 0] = 1
    return MemoryLayout(tensor, tuple((spread // stride + 1).tolist()),
                        tuple(stride.tolist()), len(data_nodes))


def verify_conflict_free(layout: MemoryLayout, dataflow: Dataflow,
                         tensor: str, data_nodes: list[Coord]) -> bool:
    """Check Eq. 8 directly: no two data nodes hit the same bank at t=0."""
    _mdt, mds, bias = dataflow.tensor_ts_map(tensor)
    banks = set()
    for fu in data_nodes:
        d = tuple(int(v) for v in (mds @ np.array(fu, dtype=np.int64) + bias))
        bank = layout.bank_of(d)
        if bank in banks:
            return False
        banks.add(bank)
    return True


def fuse_layouts(layouts: list[MemoryLayout]) -> MemoryLayout:
    """Fuse per-dataflow layouts into one provisioned memory (Fig. 6(c)).

    The fused memory has ``max`` total banks over the dataflows; each
    dataflow views it with its own bank shape.  We keep the bank shape of
    the most-demanding dataflow and record the provisioned bank count.
    """
    if not layouts:
        raise ValueError("need at least one layout to fuse")
    tensor = layouts[0].tensor
    if any(l.tensor != tensor for l in layouts):
        raise ValueError("cannot fuse layouts of different tensors")
    best = max(layouts, key=lambda l: l.n_banks)
    return MemoryLayout(
        tensor=tensor,
        bank_shape=best.bank_shape,
        bank_stride=best.bank_stride,
        n_data_nodes=max(l.n_data_nodes for l in layouts),
    )


def distribution_switch_size(layout: MemoryLayout) -> int:
    """Crosspoint count of the data-distribution switch for one tensor:
    every data node must be able to reach every bank (the switch resolves
    layout conflicts; reuse between FUs is already handled by the FU
    interconnections, §II)."""
    return layout.n_banks * max(layout.n_data_nodes, 1)
