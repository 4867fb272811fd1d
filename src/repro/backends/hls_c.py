"""HLS-C emitter family: the scheduled DAG lowered to synthesizable C.

Where the Verilog family prints the DAG structurally, this family lowers
it *behaviourally* in the style of HLS front ends (hwtHls and friends):
one C function per design whose body is the cycle loop — the shared
control counter chain is the loop induction variable, per-FU operand
muxes become config-selected reads (static selects constant-folded per
dataflow, timestamp-gated selects an inline coverage test), delay
interconnections become ring-buffered delay lines, the address
generators become baked affine matrix kernels, and the accumulation /
commit path becomes read-modify-write updates of the tensor port
arrays.  HLS ``PIPELINE``/``UNROLL`` pragmas annotate the loops; a plain
C compiler ignores them, an HLS tool consumes them.

Unlike the structural Verilog (whose address generators are left as
black boxes), the emitted C is **functionally complete**: compiled with
any system C compiler and driven by the emitted testbench it reproduces
the Python cycle-accurate simulator bit for bit, which is what the test
suite asserts.  Emission prints each dataflow's
:class:`~repro.backend.netlist.Netlist`, the lowering the vectorized
simulator executes — one ``static`` function per configuration with
that dataflow's mux selects, FIFO depths, and address matrices baked in
as constants — and a top function dispatches on ``cfg_dataflow``
exactly like the Verilog module's configuration word.
"""

from __future__ import annotations

import numpy as np

from ..backend import BackendOptions
from ..backend.codegen import Design

__all__ = ["emit_hls_c", "emit_hls_testbench", "HlsCFamily"]

_NONE = "LEGO_ADDR_NONE"
_PAD = "LEGO_ADDR_PAD"
_ARITH_OPS = {"mul": "*", "add": "+", "sub": "-", "shl": "<<", "shr": ">>"}


# ---------------------------------------------------------------------------
# Shared shape queries (emitter + testbench must agree on the signature).
# ---------------------------------------------------------------------------

def _tensor_directions(design: Design) -> dict[str, bool]:
    """Every tensor with an enabled memory port in any dataflow, mapped
    to ``True`` when some dataflow commits to it (non-const port)."""
    dag = design.dag
    written: set[str] = set()
    seen: set[str] = set()
    for cfg in design.configs.values():
        for nid in cfg.read_enable:
            seen.add(dag.nodes[nid].params["tensor"])
        for nid in cfg.write_enable:
            tensor = dag.nodes[nid].params["tensor"]
            seen.add(tensor)
            written.add(tensor)
    return {t: t in written for t in sorted(seen)}


def _top_params(design: Design) -> list[str]:
    """Ordered C parameter declarations of the top function's tensor
    ports (after the leading ``cfg_dataflow``)."""
    return [(f"lego_val_t *mem_{t}" if is_out
             else f"const lego_val_t *mem_{t}")
            for t, is_out in _tensor_directions(design).items()]


def _top_prototype(design: Design, module_name: str) -> str:
    params = ", ".join(["int cfg_dataflow", *_top_params(design)])
    return f"int {module_name}({params})"


def _df_tensors(design: Design, cfg) -> list[str]:
    """Tensors the given dataflow configuration actually ports."""
    dag = design.dag
    used = {dag.nodes[nid].params["tensor"]
            for nid in (cfg.read_enable | cfg.write_enable)}
    return sorted(used)


def _literal_rows(values, per_line: int = 12, indent: str = "  ") -> str:
    items = [str(int(v)) for v in values]
    lines = [", ".join(items[i:i + per_line])
             for i in range(0, len(items), per_line)]
    return (",\n" + indent).join(lines)


# ---------------------------------------------------------------------------
# Per-dataflow lowering.
# ---------------------------------------------------------------------------

class _DataflowLowering:
    """Prints one dataflow's :class:`~repro.backend.netlist.Netlist` as
    its ``static`` C function: the ops the vectorized simulator executes,
    so the C is a transliteration of exactly that schedule.  Each op's
    value and valid bit live in a ring buffer one slot deeper than the
    deepest lookback any op reads it at.
    """

    def __init__(self, design: Design, name: str, ordinal: int):
        from ..backend.netlist import Netlist

        self.design = design
        self.net = Netlist(design, name)
        self.cfg = self.net.cfg
        self.name = name
        self.p = f"df{ordinal}"
        self.tensors = _df_tensors(design, self.cfg)
        self.ops = self.net.ops()
        self.ring: dict[int, int] = dict.fromkeys(self.net.order, 1)
        for op in self.ops:
            for src, lb in filter(None, op.operands):
                self.ring[src] = max(self.ring[src], lb + 1)

    # -- expression helpers ------------------------------------------------

    def _read(self, operand) -> tuple[str, str]:
        """(value, valid) C expressions for one ``(src, lookback)``
        operand."""
        src, lb = operand
        h = self.ring[src]
        idx = "0" if h == 1 else (f"c % {h}" if lb == 0
                                  else f"(c - {lb}) % {h}")
        value = f"v{src}[{idx}]"
        valid = f"k{src}[{idx}]"
        if lb > 0:
            valid = f"(c >= {lb} && {valid})"
        return value, valid

    def _slot(self, nid: int) -> str:
        h = self.ring[nid]
        return "0" if h == 1 else f"c % {h}"

    # -- helper functions (unrank + address generators) --------------------

    def emit_helpers(self, out) -> None:
        rt = self.net.rt
        assert rt, "a dataflow always has at least one temporal dim"
        total = int(np.prod(rt))
        nt = len(rt)
        out(f"/* {self.name}: temporal extents {rt}, "
            f"{self.cfg.total_timestamps} timestamps, "
            f"pipeline bound {self.net.pipeline_bound} */")
        out(f"static int {self.p}_unrank(lego_val_t t, lego_val_t *u)")
        out("{")
        out(f"  static const lego_val_t rt[{nt}] = "
            f"{{ {_literal_rows(rt)} }};")
        out(f"  if (t < 0 || t >= {total}) return 0;")
        out("  lego_val_t rem = t;")
        out(f"  for (int i = {nt} - 1; i >= 0; --i) {{")
        out("#pragma HLS UNROLL")
        out("    u[i] = rem % rt[i]; rem /= rt[i];")
        out("  }")
        out("  return 1;")
        out("}")
        out("")
        for op in sorted((op for op in self.ops if op.kind == "addrgen"),
                         key=lambda op: op.nid):
            self._emit_ag(out, op)

    def _emit_ag(self, out, op) -> None:
        ag, agc, rt = op.nid, op.agc, self.net.rt
        nt, nr = len(rt), len(agc.offset)
        mdt = np.array(agc.mdt, dtype=np.int64).reshape(nr, nt)
        tensor = self.design.dag.nodes[ag].params["tensor"]
        out(f"/* address generator n{ag} ({tensor}): "
            f"d = M_DT @ unrank(t) + offset */")
        out(f"static lego_val_t {self.p}_ag{ag}(lego_val_t ts)")
        out("{")
        rows = ", ".join(
            "{ " + _literal_rows(row) + " }" for row in mdt)
        out(f"  static const lego_val_t mdt[{nr}][{nt}] = {{ {rows} }};")
        out(f"  static const lego_val_t off[{nr}] = "
            f"{{ {_literal_rows(agc.offset)} }};")
        out(f"  static const lego_val_t dims[{nr}] = "
            f"{{ {_literal_rows(agc.dims)} }};")
        out(f"  lego_val_t u[{nt}];")
        out(f"  if (!{self.p}_unrank(ts, u)) return {_NONE};")
        if agc.gate_dt is not None:
            out("  /* commit gate: a downstream FU continues this "
                "accumulation */")
            out(f"  static const lego_val_t gate[{nt}] = "
                f"{{ {_literal_rows(agc.gate_dt)} }};")
            out(f"  static const lego_val_t rt[{nt}] = "
                f"{{ {_literal_rows(rt)} }};")
            out("  int covered = 1;")
            out(f"  for (int i = 0; i < {nt}; ++i) {{")
            out("#pragma HLS UNROLL")
            out("    lego_val_t s = u[i] + gate[i];")
            out("    if (s < 0 || s >= rt[i]) covered = 0;")
            out("  }")
            out(f"  if (covered) return {_NONE};")
        out("  lego_val_t addr = 0;")
        out(f"  for (int r = 0; r < {nr}; ++r) {{")
        out("#pragma HLS UNROLL")
        out("    lego_val_t x = off[r];")
        out(f"    for (int q = 0; q < {nt}; ++q) x += mdt[r][q] * u[q];")
        out(f"    if (x < 0 || x >= dims[r]) return {_PAD};")
        out("    addr = addr * dims[r] + x;")
        out("  }")
        out("  return addr;")
        out("}")
        out("")

    # -- the per-dataflow run function -------------------------------------

    def emit_run(self, out) -> None:
        ops = self.ops
        direction = _tensor_directions(self.design)
        params = ", ".join(
            (f"lego_val_t *mem_{t}" if direction[t]
             else f"const lego_val_t *mem_{t}")
            for t in self.tensors) or "void"
        out(f"/* dataflow {self.name} "
            f"(cfg_dataflow {self.p[2:]}): {len(ops)} active "
            f"primitives, {self.net.n_cycles} cycles */")
        out(f"static int {self.p}_run({params})")
        out("{")
        # Ring buffers: value + valid per active primitive but the memory
        # write sinks.  `static` keeps them off the stack; an HLS tool
        # maps them to BRAM/regs.
        rings = [op.nid for op in ops if op.prim != "mem_write"]
        for nid in rings:
            h = self.ring[nid]
            out(f"  static lego_val_t v{nid}[{h}]; "
                f"static uint8_t k{nid}[{h}];")
        for nid in rings:
            out(f"  memset(k{nid}, 0, sizeof k{nid});")
        # Constants are cycle-invariant: fill every ring slot up front.
        for op in ops:
            if op.kind == "const":
                out(f"  for (int i = 0; i < {self.ring[op.nid]}; ++i) "
                    f"{{ v{op.nid}[i] = {op.value}; k{op.nid}[i] = 1; }}")
        # LUT contents (loaded at configuration time in hardware).
        for op in ops:
            if op.kind == "lut":
                out(f"  static const lego_val_t lut{op.nid}"
                    f"[{len(op.table)}] = {{ {_literal_rows(op.table)} }};")
        out("")
        out(f"  for (lego_val_t c = 0; c < {self.net.n_cycles}; ++c) {{")
        out("#pragma HLS PIPELINE II=1")
        for op in ops:
            self._emit_op(out, op)
        out("  }")
        out(f"  return {self.net.n_cycles};")
        out("}")
        out("")

    def _emit_op(self, out, op) -> None:
        nid, kind = op.nid, op.kind
        if kind == "const":
            return  # pre-filled before the loop
        s = self._slot(nid)
        place = self.design.dag.nodes[nid].place
        out(f"    /* n{nid} {op.prim}"
            f"{'' if place is None else f' @{place}'} */")
        reads = [operand and self._read(operand) for operand in op.operands]
        if kind == "idle":
            if op.prim != "mem_write":
                out(f"    k{nid}[{s}] = 0;")
        elif kind == "ctrl":
            expr = "c" if op.value == 0 else f"c - {op.value}"
            out(f"    v{nid}[{s}] = {expr}; k{nid}[{s}] = 1;")
        elif kind == "pass":
            value, valid = reads[0]
            out(f"    {{ int kk = {valid}; k{nid}[{s}] = (uint8_t)kk; "
                f"if (kk) v{nid}[{s}] = {value}; }}")
        elif kind == "mux_dyn":
            self._emit_dynamic_mux(out, op, s, reads)
        elif kind in ("addrgen", "mem_read"):
            value, valid = reads[0]
            out(f"    {{ k{nid}[{s}] = 0;")
            out(f"      if ({valid}) {{")
            if kind == "addrgen":
                out(f"        lego_val_t a = {self.p}_ag{nid}({value});")
                out(f"        if (a != {_NONE}) "
                    f"{{ v{nid}[{s}] = a; k{nid}[{s}] = 1; }}")
            else:
                out(f"        lego_val_t a = {value};")
                out(f"        v{nid}[{s}] = (a < 0) ? 0 : mem_{op.tensor}[a];"
                    f" /* padding reads zero */")
                out(f"        k{nid}[{s}] = 1;")
            out("      } }")
        elif kind == "mem_write":
            (addr, addr_ok), (data, data_ok) = reads
            update = "+=" if op.accumulate else "="
            out(f"    if ({addr_ok} && {data_ok}) {{")
            out(f"      lego_val_t a = {addr};")
            out(f"      if (a >= 0) mem_{op.tensor}[a] {update} {data};")
            out("    }")
        elif kind == "alu":
            (a, a_ok), (b, b_ok) = reads
            expr = (f"({a} > {b}) ? {a} : {b}" if op.prim == "max"
                    else f"{a} {_ARITH_OPS[op.prim]} {b}")
            out(f"    {{ int kk = {a_ok} && {b_ok};")
            out(f"      k{nid}[{s}] = (uint8_t)kk; "
                f"if (kk) v{nid}[{s}] = {expr}; }}")
        elif kind == "reducer":
            out(f"    {{ lego_val_t acc = 0; int seen = 0;")
            for value, valid in reads:
                out(f"      if ({valid}) {{ acc += {value}; seen = 1; }}")
            out(f"      k{nid}[{s}] = (uint8_t)seen; "
                f"if (seen) v{nid}[{s}] = acc; }}")
        else:  # lut
            value, valid = reads[0]
            n = len(op.table)
            out(f"    {{ int kk = {valid}; k{nid}[{s}] = (uint8_t)kk;")
            out(f"      if (kk) {{ lego_val_t x = {value} % {n}; "
                f"if (x < 0) x += {n}; v{nid}[{s}] = lut{nid}[x]; }} }}")

    def _emit_dynamic_mux(self, out, op, s: str, reads) -> None:
        """Timestamp-gated operand mux: operand 0 carries the local
        timestamp; the first source whose coverage test passes wins (an
        unconnected one forwards an invalid value)."""
        nid = op.nid
        (ts_value, ts_valid), *sources = reads
        rt = self.net.rt
        out(f"    {{ k{nid}[{s}] = 0; /* timestamp-gated mux */")
        out(f"      lego_val_t u[{len(rt)}];")
        out(f"      if ({ts_valid} && {self.p}_unrank({ts_value}, u)) {{")
        branch = "if"
        for source, dt in zip(sources, op.dts):
            if dt is None:
                out("        if (1) {" if branch == "if" else "        else {")
            else:
                tests = " && ".join(
                    f"(u[{i}] - {d} >= 0 && u[{i}] - {d} < {rt[i]})"
                    for i, d in enumerate(dt))
                out(f"        {branch} ({tests}) {{")
            if source is not None:
                value, valid = source
                out(f"          int kk = {valid}; "
                    f"k{nid}[{s}] = (uint8_t)kk; "
                    f"if (kk) v{nid}[{s}] = {value};")
            out("        }")
            if dt is None:
                break
            branch = "else if"
        out("      }")
        out("    }")


# ---------------------------------------------------------------------------
# Public emitters.
# ---------------------------------------------------------------------------

def emit_hls_c(design: Design, module_name: str = "lego_top") -> str:
    """Emit one self-contained, compilable C translation unit for the
    design: per-dataflow ``static`` run functions plus a top function
    dispatching on ``cfg_dataflow`` (same ordinal encoding as the
    Verilog module's configuration word).

    The caller owns the tensor port arrays; output tensors are
    read-modify-write accumulated, so zero them before the call.
    Returns the executed cycle count, or ``-1`` on an unknown
    configuration ordinal.
    """
    dag = design.dag
    lines: list[str] = []
    out = lines.append
    names = sorted(design.configs)
    lowerings = [_DataflowLowering(design, name, i)
                 for i, name in enumerate(names)]

    out("/* Generated by the LEGO reproduction HLS-C backend */")
    out(f"/* nodes: {len(dag.nodes)}  edges: {len(dag.edges)}  "
        f"dataflows: {', '.join(names)} */")
    out("/* HLS pragmas target Vitis-style tools; a plain C compiler")
    out("   ignores them and yields a bit-exact functional model. */")
    out("#include <stdint.h>")
    out("#include <string.h>")
    out("")
    out("typedef int64_t lego_val_t;")
    out(f"#define {_NONE} INT64_MIN /* idle / commit-gated timestamp */")
    out(f"#define {_PAD} (-1)      /* out-of-bounds: reads 0, drops "
        "writes */")
    out("")
    for low in lowerings:
        low.emit_helpers(out)
    for low in lowerings:
        low.emit_run(out)

    direction = _tensor_directions(design)
    out("/* top: one call runs the full temporal range of the selected")
    out("   dataflow; returns the cycle count, -1 on a bad ordinal. */")
    out(_top_prototype(design, module_name))
    out("{")
    for tensor in direction:
        out(f"#pragma HLS INTERFACE m_axi port=mem_{tensor} "
            f"offset=slave bundle=gmem")
    out("#pragma HLS INTERFACE s_axilite port=cfg_dataflow")
    out("#pragma HLS INTERFACE s_axilite port=return")
    out("  switch (cfg_dataflow) {")
    for i, low in enumerate(lowerings):
        args = ", ".join(f"mem_{t}" for t in low.tensors)
        out(f"  case {i}: return df{i}_run({args}); /* {low.name} */")
    out("  default: return -1;")
    out("  }")
    out("}")
    return "\n".join(lines) + "\n"


def emit_hls_testbench(design: Design, dataflow: str,
                       tensors: dict | None = None,
                       module_name: str = "lego_top",
                       golden: tuple | None = None) -> str:
    """Emit a self-checking C ``main`` for one dataflow.

    Exactly like the Verilog testbench, stimulus and golden outputs come
    from the Python cycle-accurate simulator: compile this file together
    with the :func:`emit_hls_c` output and a zero exit status (plus
    ``TESTBENCH PASSED`` on stdout) proves the lowered C reproduces the
    verified Python execution bit for bit.

    *golden* is an optional precomputed ``(tensors, outputs, cycles)``
    triple (the sim-phase cache record, see
    :meth:`repro.backends.EmitContext.golden_vectors`); when present the
    simulator is not run at all.
    """
    if golden is not None:
        tensors, outputs, _cycles = golden
    else:
        from ..sim.dag_sim import Simulator, canonical_stimulus

        tensors = tensors or canonical_stimulus(design, dataflow)
        outputs = Simulator(design, dataflow).run(
            tensors, activity=False).outputs
    ordinal = sorted(design.configs).index(dataflow)
    direction = _tensor_directions(design)

    lines: list[str] = []
    out = lines.append
    out(f"/* Self-checking testbench for dataflow {dataflow} "
        f"(cfg_dataflow {ordinal}) */")
    out("#include <stdint.h>")
    out("#include <stdio.h>")
    out("")
    out("typedef int64_t lego_val_t;")
    out("")
    out(f"extern {_top_prototype(design, module_name)};")
    out("")
    for tensor, arr in sorted(tensors.items()):
        flat = np.asarray(arr).reshape(-1)
        out(f"static const lego_val_t in_{tensor}[{flat.size}] = {{")
        out(f"  {_literal_rows(flat)}")
        out("};")
    for tensor, arr in sorted(outputs.items()):
        flat = np.asarray(arr).reshape(-1)
        out(f"static lego_val_t out_{tensor}[{flat.size}]; "
            "/* zero-initialized commit buffer */")
        out(f"static const lego_val_t gold_{tensor}[{flat.size}] = {{")
        out(f"  {_literal_rows(flat)}")
        out("};")
    out("")
    out("int main(void)")
    out("{")
    args = ["0"] * len(direction)
    for i, tensor in enumerate(direction):
        if tensor in outputs:
            args[i] = f"out_{tensor}"
        elif tensor in tensors:
            args[i] = f"in_{tensor}"
    out(f"  int cycles = {module_name}({ordinal}, {', '.join(args)});")
    out('  if (cycles < 0) { printf("TESTBENCH FAILED: bad '
        'cfg_dataflow\\n"); return 2; }')
    out("  long errors = 0;")
    for tensor, arr in sorted(outputs.items()):
        size = int(np.asarray(arr).size)
        out(f"  for (long i = 0; i < {size}; ++i)")
        out(f"    if (out_{tensor}[i] != gold_{tensor}[i]) {{")
        out(f'      if (errors < 10) printf("MISMATCH {tensor}[%ld]: '
            f'got %lld want %lld\\n", i, (long long)out_{tensor}[i], '
            f'(long long)gold_{tensor}[i]);')
        out("      ++errors;")
        out("    }")
    out('  if (errors == 0) { printf("TESTBENCH PASSED (%d cycles)\\n", '
        'cycles); return 0; }')
    out('  printf("TESTBENCH FAILED: %ld errors\\n", errors);')
    out("  return 1;")
    out("}")
    return "\n".join(lines) + "\n"


class HlsCFamily:
    """The HLS-C emitter as a registrable backend family."""

    name = "hls_c"
    description = ("behavioural HLS-style C: per-dataflow cycle loops "
                   "with baked mux selects / FIFO delay lines / affine "
                   "address kernels, PIPELINE+UNROLL pragmas, and a "
                   "self-checking C testbench from simulator vectors")
    suffix = ".c"

    def artifact_names(self, module_name: str) -> list[str]:
        return [f"{module_name}.c", f"{module_name}_tb.c"]

    def validate(self, options: BackendOptions) -> None:
        if not isinstance(options, BackendOptions):
            raise ValueError(f"hls_c backend expects BackendOptions, "
                             f"got {type(options).__name__}")

    def emit(self, design, module_name: str = "lego_top",
             context=None) -> dict[str, str]:
        """Kernel translation unit plus (unless the request opted out
        via ``BackendOptions.emit_testbench=False``) the self-checking
        testbench.  With a staged-pipeline *context*, the testbench's
        golden vectors come from the sim-phase cache instead of a fresh
        simulator run."""
        source = emit_hls_c(design, module_name=module_name)
        artifacts = {f"{module_name}.c": source}
        if context is None or context.want_testbench():
            first = sorted(design.configs)[0]
            golden = (context.golden_vectors(design, first)
                      if context is not None else None)
            artifacts[f"{module_name}_tb.c"] = emit_hls_testbench(
                design, first, module_name=module_name, golden=golden)
        return artifacts
