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
suite asserts.  Emission is specialized per dataflow — one ``static``
function per configuration with that dataflow's mux selects, FIFO
depths, and address matrices baked in as constants — and a top function
dispatches on ``cfg_dataflow`` exactly like the Verilog module's
configuration word.
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
    """Everything needed to print one dataflow's ``static`` C function.

    Reuses the cycle-accurate :class:`~repro.sim.dag_sim.Simulator`'s
    graph preparation (active topological order, per-pin input map,
    pipeline-depth bound) so the C is a transliteration of exactly the
    schedule the simulator executes.
    """

    def __init__(self, design: Design, name: str, ordinal: int):
        from ..sim.dag_sim import Simulator

        self.design = design
        # reference=True: only the graph preparation is used here, so
        # skip compiling a vectorized step program that never runs.
        self.sim = Simulator(design, name, reference=True)
        self.cfg = self.sim.cfg
        self.name = name
        self.p = f"df{ordinal}"
        self.n_cycles = (self.cfg.total_timestamps
                         + self.sim.pipeline_bound + 2)
        self.tensors = _df_tensors(design, self.cfg)
        # Ring-buffer depth per producing node: one slot past the
        # deepest lookback any consumer performs.
        self.ring: dict[int, int] = {nid: 1 for nid in self.sim.order}
        for nid, pins in self.sim.inputs.items():
            extra = self._extra_delay(nid)
            for _pin, (src, el) in pins.items():
                self.ring[src] = max(self.ring.get(src, 1), el + extra + 1)

    def _extra_delay(self, nid: int) -> int:
        """Cycles, beyond the edge pipeline stages, by which *nid* reads
        its inputs in the past — mirrors ``Simulator.run`` exactly."""
        node = self.design.dag.nodes[nid]
        if node.kind == "fifo":
            return self.cfg.fifo_phys.get(
                nid, self.cfg.fifo_depth.get(nid, 0))
        if node.kind in ("ctrl_tap", "wire", "output", "mux", "mem_write"):
            return 0
        return node.latency

    # -- expression helpers ------------------------------------------------

    def _read(self, nid: int, pin: int) -> tuple[str, str] | None:
        """(value, valid) C expressions for input *pin* of *nid*, or
        None when the pin is unconnected in this dataflow."""
        entry = self.sim.inputs.get(nid, {}).get(pin)
        if entry is None:
            return None
        src, el = entry
        lb = el + self._extra_delay(nid)
        h = self.ring[src]
        idx = "0" if h == 1 else (f"c % {h}" if lb == 0
                                  else f"(c - {lb}) % {h}")
        value = f"v{src}[{idx}]"
        valid = f"k{src}[{idx}]"
        if lb > 0:
            valid = f"(c >= {lb} && {valid})"
        return value, valid

    def _slot(self, nid: int) -> str:
        h = self.ring.get(nid, 1)
        return "0" if h == 1 else f"c % {h}"

    # -- helper functions (unrank + address generators) --------------------

    def emit_helpers(self, out) -> None:
        rt = tuple(int(r) for r in self.sim.rt)
        assert rt, "a dataflow always has at least one temporal dim"
        total = int(np.prod(rt))
        nt = len(rt)
        out(f"/* {self.name}: temporal extents {rt}, "
            f"{self.cfg.total_timestamps} timestamps, "
            f"pipeline bound {self.sim.pipeline_bound} */")
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
        for ag in sorted(self.cfg.addrgen):
            self._emit_ag(out, ag)

    def _emit_ag(self, out, ag: int) -> None:
        agc = self.cfg.addrgen[ag]
        rt = tuple(int(r) for r in agc.rt)
        assert rt == tuple(int(r) for r in self.sim.rt), \
            "address generators share the dataflow's temporal basis"
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
        dag = self.design.dag
        cfg = self.cfg
        direction = _tensor_directions(self.design)
        params = ", ".join(
            (f"lego_val_t *mem_{t}" if direction[t]
             else f"const lego_val_t *mem_{t}")
            for t in self.tensors) or "void"
        out(f"/* dataflow {self.name} "
            f"(cfg_dataflow {self.p[2:]}): {len(self.sim.order)} active "
            f"primitives, {self.n_cycles} cycles */")
        out(f"static int {self.p}_run({params})")
        out("{")
        # Ring buffers: value + valid per active primitive.  `static`
        # keeps them off the stack; an HLS tool maps them to BRAM/regs.
        decls = []
        for nid in self.sim.order:
            h = self.ring[nid]
            if dag.nodes[nid].kind == "mem_write":
                continue  # sink: no consumers, no ring
            decls.append(f"static lego_val_t v{nid}[{h}]; "
                         f"static uint8_t k{nid}[{h}];")
        for line in decls:
            out(f"  {line}")
        for nid in self.sim.order:
            if dag.nodes[nid].kind == "mem_write":
                continue
            out(f"  memset(k{nid}, 0, sizeof k{nid});")
        # Constants are cycle-invariant: fill every ring slot up front.
        for nid in self.sim.order:
            node = dag.nodes[nid]
            if node.kind != "const":
                continue
            value = int(node.params.get("value", 0))
            h = self.ring[nid]
            out(f"  for (int i = 0; i < {h}; ++i) "
                f"{{ v{nid}[i] = {value}; k{nid}[i] = 1; }}")
        # LUT contents (loaded at configuration time in hardware).
        for nid in self.sim.order:
            node = dag.nodes[nid]
            if node.kind == "lut" and node.params.get("table") is not None:
                table = [int(v) for v in node.params["table"]]
                out(f"  static const lego_val_t lut{nid}[{len(table)}] = "
                    f"{{ {_literal_rows(table)} }};")
        out("")
        out(f"  for (lego_val_t c = 0; c < {self.n_cycles}; ++c) {{")
        out("#pragma HLS PIPELINE II=1")
        for nid in self.sim.order:
            self._emit_node(out, nid)
        out("  }")
        out(f"  return {self.n_cycles};")
        out("}")
        out("")

    def _emit_node(self, out, nid: int) -> None:
        dag = self.design.dag
        cfg = self.cfg
        node = dag.nodes[nid]
        kind = node.kind
        s = self._slot(nid)
        place = f" @{node.place}" if node.place is not None else ""

        def pass_through(pin: int) -> None:
            rd = self._read(nid, pin)
            if rd is None:
                out(f"    k{nid}[{s}] = 0;")
                return
            value, valid = rd
            out(f"    {{ int kk = {valid}; k{nid}[{s}] = (uint8_t)kk; "
                f"if (kk) v{nid}[{s}] = {value}; }}")

        if kind == "const":
            return  # pre-filled before the loop
        out(f"    /* n{nid} {kind}{place} */")
        if kind == "ctrl":
            offset = cfg.ctrl_offset.get(nid, 0)
            expr = "c" if offset == 0 else f"c - {offset}"
            out(f"    v{nid}[{s}] = {expr}; k{nid}[{s}] = 1;")
        elif kind in ("ctrl_tap", "wire", "output", "fifo"):
            pass_through(0)
        elif kind == "mux":
            policy = cfg.mux_policy.get(nid)
            if policy is None:
                pass_through(cfg.mux_select.get(nid, 0))
            else:
                self._emit_dynamic_mux(out, nid, policy, s)
        elif kind == "addrgen":
            rd = self._read(nid, 0)
            if rd is None or nid not in cfg.addrgen:
                out(f"    k{nid}[{s}] = 0;")
            else:
                value, valid = rd
                out(f"    {{ k{nid}[{s}] = 0;")
                out(f"      if ({valid}) {{")
                out(f"        lego_val_t a = {self.p}_ag{nid}({value});")
                out(f"        if (a != {_NONE}) "
                    f"{{ v{nid}[{s}] = a; k{nid}[{s}] = 1; }}")
                out("      } }")
        elif kind == "mem_read":
            rd = self._read(nid, 0)
            if nid not in cfg.read_enable or rd is None:
                out(f"    k{nid}[{s}] = 0;")
            else:
                tensor = node.params["tensor"]
                value, valid = rd
                out(f"    {{ k{nid}[{s}] = 0;")
                out(f"      if ({valid}) {{")
                out(f"        lego_val_t a = {value};")
                out(f"        v{nid}[{s}] = (a < 0) ? 0 : mem_{tensor}[a];"
                    f" /* padding reads zero */")
                out(f"        k{nid}[{s}] = 1;")
                out("      } }")
        elif kind == "mem_write":
            if nid not in cfg.write_enable:
                return
            addr = self._read(nid, 0)
            data = self._read(nid, 1)
            if addr is None or data is None:
                return
            tensor = node.params["tensor"]
            op = "+=" if node.params.get("accumulate", True) else "="
            out(f"    if ({addr[1]} && {data[1]}) {{")
            out(f"      lego_val_t a = {addr[0]};")
            out(f"      if (a >= 0) mem_{tensor}[a] {op} {data[0]};")
            out("    }")
        elif kind in ("mul", "add", "sub", "shl", "shr", "max"):
            a = self._read(nid, 0)
            b = self._read(nid, 1)
            if a is None or b is None:
                out(f"    k{nid}[{s}] = 0;")
                return
            if kind == "max":
                expr = (f"({a[0]} > {b[0]}) ? {a[0]} : {b[0]}")
            else:
                expr = f"{a[0]} {_ARITH_OPS[kind]} {b[0]}"
            out(f"    {{ int kk = {a[1]} && {b[1]};")
            out(f"      k{nid}[{s}] = (uint8_t)kk; "
                f"if (kk) v{nid}[{s}] = {expr}; }}")
        elif kind == "reducer":
            pin_dfs = node.params.get("pin_dataflows", {})
            pins = sorted(self.sim.inputs.get(nid, {}))
            if pin_dfs:
                pins = [p for p in pins
                        if self.name in pin_dfs.get(p, ())]
            out(f"    {{ lego_val_t acc = 0; int seen = 0;")
            for pin in pins:
                value, valid = self._read(nid, pin)
                out(f"      if ({valid}) {{ acc += {value}; seen = 1; }}")
            out(f"      k{nid}[{s}] = (uint8_t)seen; "
                f"if (seen) v{nid}[{s}] = acc; }}")
        elif kind == "lut":
            rd = self._read(nid, 0)
            table = node.params.get("table")
            if rd is None or table is None:
                out(f"    k{nid}[{s}] = 0;")
                return
            value, valid = rd
            n = len(table)
            out(f"    {{ int kk = {valid}; k{nid}[{s}] = (uint8_t)kk;")
            out(f"      if (kk) {{ lego_val_t x = {value} % {n}; "
                f"if (x < 0) x += {n}; v{nid}[{s}] = lut{nid}[x]; }} }}")
        else:  # pragma: no cover — exhaustive over PRIMITIVE_LATENCY
            raise ValueError(f"no HLS-C template for {kind!r}")

    def _emit_dynamic_mux(self, out, nid: int, policy, s: str) -> None:
        """Timestamp-gated operand mux: pin 0 carries the local
        timestamp; the first source whose coverage test passes wins."""
        ts = self._read(nid, 0)
        out(f"    {{ k{nid}[{s}] = 0; /* timestamp-gated mux */")
        if ts is None:
            out("    }")
            return
        rt = tuple(int(r) for r in self.sim.rt)
        out(f"      lego_val_t u[{len(rt)}];")
        out(f"      if ({ts[1]} && {self.p}_unrank({ts[0]}, u)) {{")
        branch = "if"
        closed = False
        for pin, dt in policy:
            rd = self._read(nid, pin)
            if rd is None:
                continue
            value, valid = rd
            if dt is None:
                cond = "1" if branch == "if" else None
                if cond is None:
                    out("        else {")
                else:
                    out(f"        {branch} ({cond}) {{")
            else:
                tests = " && ".join(
                    f"(u[{i}] - {int(d)} >= 0 && "
                    f"u[{i}] - {int(d)} < {rt[i]})"
                    for i, d in enumerate(dt))
                out(f"        {branch} ({tests}) {{")
            out(f"          int kk = {valid}; "
                f"k{nid}[{s}] = (uint8_t)kk; "
                f"if (kk) v{nid}[{s}] = {value};")
            out("        }")
            if dt is None:
                closed = True
                break
            branch = "else if"
        del closed
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
