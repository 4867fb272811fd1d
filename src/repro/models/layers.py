"""Layer descriptors for end-to-end model evaluation (paper §VI-A).

Performance and energy depend only on layer *shapes*, dataflows and
bandwidth — not tensor values — so the model zoo is expressed as shape
descriptors.  Tensor layers (conv / depthwise conv / linear / attention
contractions) run on the FU array; non-tensor layers (softmax, norms,
activations) run on the post-processing units (§II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = ["ConvLayer", "LinearLayer", "AttentionLayer", "PPULayer", "Model"]


@dataclass(frozen=True)
class ConvLayer:
    """2-D convolution; ``groups == ic == oc`` denotes depthwise."""

    name: str
    n: int
    ic: int
    oc: int
    ih: int
    iw: int
    kh: int
    kw: int
    stride: int = 1
    groups: int = 1

    @property
    def oh(self) -> int:
        return max(1, self.ih // self.stride)

    @property
    def ow(self) -> int:
        return max(1, self.iw // self.stride)

    @property
    def is_depthwise(self) -> bool:
        return self.groups > 1 and self.groups == self.ic

    def macs(self) -> int:
        return (self.n * self.oc * self.oh * self.ow
                * (self.ic // self.groups) * self.kh * self.kw)

    def ops(self) -> int:
        return 2 * self.macs()

    def dims(self) -> dict[str, int]:
        return {"n": self.n, "oc": self.oc, "ic": self.ic // self.groups,
                "oh": self.oh, "ow": self.ow, "kh": self.kh, "kw": self.kw}

    def tensor_bytes(self) -> dict[str, int]:
        return {
            "X": self.n * self.ic * self.ih * self.iw,
            "W": self.oc * (self.ic // self.groups) * self.kh * self.kw,
            "Y": self.n * self.oc * self.oh * self.ow,
        }


@dataclass(frozen=True)
class LinearLayer:
    """GEMM ``Y[m, n] += X[m, k] W[k, n]`` (fully-connected / projection)."""

    name: str
    m: int
    n: int
    k: int

    def macs(self) -> int:
        return self.m * self.n * self.k

    def ops(self) -> int:
        return 2 * self.macs()

    def dims(self) -> dict[str, int]:
        return {"i": self.m, "j": self.n, "k": self.k}

    def tensor_bytes(self) -> dict[str, int]:
        return {"X": self.m * self.k, "W": self.k * self.n, "Y": self.m * self.n}


@dataclass(frozen=True)
class AttentionLayer:
    """Multi-head attention's two tensor contractions (QK^T and PV);
    softmax runs on the PPUs.  ``kv_len`` covers decode-time KV caches."""

    name: str
    heads: int
    q_len: int
    kv_len: int
    d_head: int

    def macs(self) -> int:
        return 2 * self.heads * self.q_len * self.kv_len * self.d_head

    def ops(self) -> int:
        return 2 * self.macs()

    def dims(self) -> dict[str, int]:
        return {"h": self.heads, "q": self.q_len, "k": self.kv_len,
                "d": self.d_head}

    def tensor_bytes(self) -> dict[str, int]:
        hq = self.heads * self.q_len
        return {
            "Q": hq * self.d_head,
            "KV": 2 * self.heads * self.kv_len * self.d_head,
            "S": hq * self.kv_len,
            "Y": hq * self.d_head,
        }

    def softmax_elements(self) -> int:
        return self.heads * self.q_len * self.kv_len


@dataclass(frozen=True)
class PPULayer:
    """A non-tensor function: activation / softmax / normalization."""

    name: str
    fn: str           # relu | gelu | softmax | layernorm | batchnorm | sigmoid
    n_elements: int
    #: reductions need two passes over the data (stats then apply)
    n_passes: int = field(default=1)

    def __post_init__(self) -> None:
        if self.fn in ("softmax", "layernorm", "batchnorm") and self.n_passes == 1:
            object.__setattr__(self, "n_passes", 2)

    def ops(self) -> int:
        return self.n_elements * self.n_passes

    def macs(self) -> int:
        return 0


@dataclass(frozen=True)
class Model:
    """An end-to-end network: an ordered list of layers plus metadata."""

    name: str
    layers: tuple = ()

    def total_ops(self) -> int:
        return sum(l.ops() for l in self.layers)

    def total_macs(self) -> int:
        return sum(l.macs() for l in self.layers)

    def tensor_layers(self):
        return [l for l in self.layers if not isinstance(l, PPULayer)]

    def ppu_layers(self):
        return [l for l in self.layers if isinstance(l, PPULayer)]

    @cached_property
    def shapes(self) -> tuple[tuple, tuple[int, ...]]:
        """``(distinct, index)``: the model's distinct layer shapes (each
        layer with ``name`` blanked, in order of first appearance) and,
        per layer, its position in ``distinct``.  Performance depends
        only on shapes, so the perf model asks about each one once per
        architecture (BERT: 60 tensor layers, 5 shapes)."""
        seen: dict = {}
        index = tuple(seen.setdefault(replace(layer, name=""), len(seen))
                      for layer in self.layers)
        return tuple(seen), index
