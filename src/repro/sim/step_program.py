"""Vectorized execution of a design's cycle schedule — the fast cold path.

The per-cycle interpreter in :mod:`.dag_sim` walks every active primitive
every cycle in Python.  This module compiles the dataflow's
:class:`~repro.backend.netlist.Netlist` (the one lowering, which the
HLS-C family prints too) *once* into a **step program** and executes it
as whole-series numpy operations over value/valid matrices ``V``/``K``
of shape ``(rows, cycles)``.  Three compile-time facts keep that cheap:

* **Pass-throughs are aliases.**  A ``ctrl_tap``, ``wire``, ``output``,
  ``fifo`` or statically selected ``mux`` only delays its one input, so
  every row resolves to ``(root row, total lookback)`` and is never
  materialized; consumers read the root through the lookback.
* **Timestamps and addresses are static streams.**  Every address
  generator and every dynamic-mux timestamp pin is fed by a ``ctrl``
  counter seen through such lookbacks, i.e. ``t = n - shift`` from cycle
  ``start`` on, and every memory port's address pin by an address
  generator.  The temporal range is unranked once per program,
  ``M_DT @ digits`` is computed once per distinct matrix and the mux
  coverage tests once per distinct policy; an address series is then an
  offset, a bounds mask and a shifted slice, and a mux is a precomputed
  gather.  None of them depends on data, so memory ports read and commit
  through precomputed indices.  A timestamp fed by anything but a
  counter, or an address by anything but an address generator, is
  refused at compile time.
* **Steps are levelized.**  The remaining rows are grouped by
  (dependency level, kind), so every step's inputs are finished series
  and each step runs as a few fancy-indexed 2-D operations: operands are
  gathered through a sliding-window view of ``V``, which is left-padded
  by the deepest lookback, so a delayed read is one index.

Outputs, cycle counts, per-node toggle counts and memory access counters
are **bit-identical** to the interpreter, which stays available as the
``Simulator(..., reference=True)`` oracle (``tests/test_vector_sim.py``
and ``tests/test_sim_differential.py``).  A caller that keeps only the
outputs (``activity=False``, the golden vectors) skips toggles, memory
counters and every row that feeds no memory commit.  ``V`` uses the
narrowest integer type the run's value bounds allow.

Designs the program cannot reproduce exactly are refused with a reason
the simulator logs and reports: memory feedback on a tensor, a
non-accumulating commit, or a timestamp/address fed by something other
than a counter/address generator (at compile time), or values that could
exceed int64 for the given inputs (:meth:`StepProgram.value_bounds`, at
run time).
"""

from __future__ import annotations

from types import SimpleNamespace as _Group  # one step's index arrays

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["StepProgram"]

#: magnitude ceiling for the int64 engine: if any value the program can
#: produce may reach this, the run falls back to the interpreter (whose
#: Python ints never wrap) instead of silently wrapping
_SAFE_LIMIT = 1 << 62

#: value types for ``V``, narrowest first, with the exclusive magnitude
#: bound each one holds
_VALUE_TYPES = ((np.int16, 1 << 15), (np.int32, 1 << 31),
                (np.int64, _SAFE_LIMIT))


class _Unsupported(Exception):
    """Design feature the vectorized path cannot reproduce bit-exactly;
    the message is the reason the simulator reports."""


def value_dtype(peak: int):
    """Narrowest integer type holding every magnitude up to *peak*."""
    for dtype, limit in _VALUE_TYPES:
        if peak < limit:
            return dtype
    raise ValueError(f"magnitude {peak} does not fit int64")


class StepProgram:
    """Precompiled vectorized execution plan for one dataflow config.

    Compiled from the ops of a :class:`~repro.sim.dag_sim.Simulator`'s
    :class:`~repro.backend.netlist.Netlist`, the one lowering of the
    dataflow (read delays, static selects, reducer pins and idle
    primitives are decided there).  ``fallback`` is the reason the
    design needs the reference interpreter (``supported`` is then False
    and ``run`` must not be called).  ``steps`` lists the groups in
    execution order as ``(kind, specs)``; every spec has its ``row`` and
    the rows it reads at run time (``_srcs``).
    """

    def __init__(self, sim):
        self.net = sim.netlist
        self.n_cycles = self.net.n_cycles
        self.order = list(self.net.order)
        self.row = {nid: i for i, nid in enumerate(self.order)}
        self.steps: list[tuple[str, list[dict]]] = []
        self.fallback: str | None = None
        self._plans: dict[bool, _Plan] = {}
        self._streams: _Streams | None = None
        try:
            self._compile()
        except _Unsupported as exc:
            self.fallback = str(exc)

    @property
    def supported(self) -> bool:
        return self.fallback is None

    # -- compilation -------------------------------------------------------

    def _input(self, operand):
        """(root row, total lookback) a netlist operand reads, or None
        when it is unconnected or its source never carries a value."""
        if operand is None:
            return None
        src, lookback = operand
        root, lb = self._alias[self.row[src]]
        if root == self._zero:
            return None
        lb += lookback if lookback > 0 else 0
        return root, lb if lb < self.n_cycles else self.n_cycles

    def _stream(self, nid: int, entry):
        """``(shift, start)`` of a timestamp input: it carries ``n -
        shift`` from cycle ``start`` on (None: never valid)."""
        if entry is None:
            return None
        root, lb = entry
        if root not in self._counter:
            raise _Unsupported(f"timestamp input of node {nid} is not a "
                               f"counter")
        return lb + self._counter[root], lb

    def _check_address(self, nid: int, entry) -> None:
        """A memory port's address must be an address generator's
        series (at some lookback)."""
        if entry[0] not in self._addrgen:
            raise _Unsupported(f"address input of node {nid} is not an "
                               f"address generator")

    def _compile(self) -> None:
        ops = self.net.ops()
        read = {op.tensor for op in ops if op.kind == "mem_read"}
        for tensor in sorted(read & {op.tensor for op in ops
                                     if op.kind == "mem_write"}):
            # The interpreter interleaves the accesses cycle by cycle;
            # whole-series execution cannot.
            raise _Unsupported(f"memory feedback on tensor {tensor!r}")

        self._zero = len(self.order)  # the never-valid row
        #: row -> (root row, lookback); materialized rows are their own
        #: root, rows that never carry a value alias the zero row
        self._alias: list[tuple[int, int]] = []
        self._counter: dict[int, int] = {}   # ctrl row -> counter offset
        self._addrgen: dict[int, dict] = {}  # addrgen row -> its spec
        self._index_range: dict = {}         # M_DT -> per-row (min, max)
        level: dict[int, int] = {}
        groups: dict[tuple[int, str], list[dict]] = {}
        for row, op in enumerate(ops):
            kind = op.kind
            if kind == "pass":
                self._alias.append(self._input(op.operands[0])
                                   or (self._zero, 0))
                continue
            if kind != "idle":
                kind, spec = self._compile_node(op, row)
            materialized = kind not in ("idle", "mem_write")
            self._alias.append((row, 0) if materialized else (self._zero, 0))
            if kind == "idle":
                continue
            spec["_srcs"] = tuple(root for root, _lb in _gathered(kind, spec)
                                  if root != self._zero)
            depth = 1 + max((level[s] for s in spec["_srcs"]), default=-1)
            level[row] = depth
            groups.setdefault((depth, kind), []).append(spec)
        # sorted() is stable: kinds within a level keep first-seen order
        self.steps = [(kind, specs) for (_depth, kind), specs
                      in sorted(groups.items(), key=lambda kv: kv[0][0])]

    def _compile_node(self, op, row: int) -> tuple[str, dict]:
        """One materialized or committing op as ``(step kind, spec)``:
        operands resolved through the aliases, and the idle step when one
        never carries a value."""
        kind, nid = op.kind, op.nid
        spec: dict = {"row": row}
        ins = [self._input(operand) for operand in op.operands]
        if kind == "const":
            spec["value"] = op.value
        elif kind == "ctrl":
            spec["offset"] = self._counter[row] = op.value
        elif kind in ("mux_dyn", "addrgen"):
            stream = self._stream(nid, ins[0])
            if stream is None:
                return "idle", spec
            if kind == "addrgen":
                self._compile_addrgen(spec, op.agc, stream)
                self._addrgen[row] = spec
            else:
                # an unconnected source still claims its cycles (as invalid)
                spec["stream"] = stream
                spec["policy"] = [(entry or (self._zero, 0), dt)
                                  for entry, dt in zip(ins[1:], op.dts)]
        elif kind == "reducer":
            spec["pins"] = [entry for entry in ins if entry is not None]
            if not spec["pins"]:
                return "idle", spec
        elif None in ins:
            return "idle", spec
        elif kind in ("mem_read", "mem_write"):
            if kind == "mem_write" and not op.accumulate:
                # Overwriting commits are order-sensitive across write
                # ports; only the interpreter serializes them exactly.
                raise _Unsupported(f"non-accumulating commit on node {nid}")
            self._check_address(nid, ins[0])
            spec.update(addr=ins[0], tensor=op.tensor)
            if kind == "mem_write":
                spec["data"] = ins[1]
        elif kind == "alu":
            spec.update(op=op.prim, a=ins[0], b=ins[1])
        elif kind == "lut":
            spec.update(input=ins[0],
                        table=np.array(op.table, dtype=np.int64))
        return kind, spec

    def _compile_addrgen(self, spec: dict, agc, stream) -> None:
        """The static part of one address generator: its matrix, the
        flat-address contribution of its offset (``carry``) and the
        tensor dimensions its index can leave (``checks``: dim and the
        allowed ``[low, high)`` of ``M_DT @ digits`` there)."""
        mdt = tuple(tuple(map(int, r)) for r in agc.mdt)
        ranges = self._index_range.get(mdt)
        if ranges is None:
            # every digit sweeps its full range, so each index row spans
            # the sums of its negative and of its positive terms
            rt = self.net.rt
            ranges = self._index_range[mdt] = [
                (sum(min(0, c * (r - 1)) for c, r in zip(coeffs, rt)),
                 sum(max(0, c * (r - 1)) for c, r in zip(coeffs, rt)))
                for coeffs in mdt]
        dims = tuple(map(int, agc.dims))
        carry, stride, checks = 0, 1, []
        for dim in range(len(dims) - 1, -1, -1):
            offset = int(agc.offset[dim])
            carry += offset * stride
            stride *= dims[dim]
            low, high = ranges[dim]
            if low + offset < 0 or high + offset >= dims[dim]:
                checks.append((dim, -offset, dims[dim] - offset))
        spec.update(stream=stream, mdt=mdt, dims=dims, carry=carry,
                    checks=checks,
                    gate=(None if agc.gate_dt is None
                          else tuple(map(int, agc.gate_dt))))

    # -- magnitude safety --------------------------------------------------

    def value_bounds(self, storage: dict[str, np.ndarray]
                     ) -> tuple[dict[int, int], str | None]:
        """``(bound per materialized row, reason)``: a conservative
        interval check that every value this run can produce — and every
        accumulated memory commit — provably fits int64.

        The reference interpreter computes on Python ints (unbounded)
        and only overflows loudly when committing to the int64 tensor
        memories; the vectorized engine would *wrap silently* instead.
        So before running we propagate worst-case magnitude bounds (in
        exact Python ints) through the step program from the actual
        input data.  Any possible excursion past ``_SAFE_LIMIT`` returns
        the reason the caller falls back to the interpreter with;
        otherwise the bounds pick ``V``'s value type.  A bound covers
        every lane of a row, valid or not.
        """
        bound: dict[int, int] = {}
        commit: dict[str, int] = {}
        for tensor, arr in storage.items():
            commit[tensor] = int(np.abs(arr).max()) if arr.size else 0

        def inb(entry):
            return bound.get(entry[0], 0) if entry is not None else 0

        for kind, specs in self.steps:
            for s in specs:
                b = 0
                if kind == "const":
                    b = abs(s["value"])
                elif kind == "ctrl":
                    b = self.n_cycles + abs(s["offset"])
                elif kind == "mux_dyn":
                    b = max(inb(e) for e, _dt in s["policy"])
                elif kind == "addrgen":
                    b = int(np.prod(s["dims"])) + 1
                elif kind == "mem_read":
                    b = commit[s["tensor"]]
                elif kind == "mem_write":
                    # every cycle may add the worst-case datum
                    commit[s["tensor"]] += inb(s["data"]) * self.n_cycles
                    if commit[s["tensor"]] >= _SAFE_LIMIT:
                        return bound, (f"int64 magnitude: commits to "
                                       f"tensor {s['tensor']!r}")
                    continue
                elif kind == "alu":
                    ba, bb = inb(s["a"]), inb(s["b"])
                    op = s["op"]
                    if op == "mul":
                        b = ba * bb
                    elif op in ("add", "sub"):
                        b = ba + bb
                    elif op == "max":
                        b = max(ba, bb)
                    elif op == "shl":
                        if bb > 63:
                            # Python << has no 63-bit ceiling; the
                            # engine's clamp would diverge.
                            return bound, (f"int64 magnitude: shift count "
                                           f"of node {self.order[s['row']]}")
                        b = ba << bb
                    else:  # shr never grows magnitude
                        b = ba
                elif kind == "reducer":
                    b = sum(inb(e) for e in s["pins"])
                elif kind == "lut":
                    table = s["table"]
                    b = int(np.abs(table).max()) if table.size else 0
                if b >= _SAFE_LIMIT:
                    return bound, (f"int64 magnitude: node "
                                   f"{self.order[s['row']]} ({kind})")
                bound[s["row"]] = b
        return bound, None

    def magnitude_safe(self, storage: dict[str, np.ndarray]) -> bool:
        """True when no value of this run can leave int64 (see
        :meth:`value_bounds`)."""
        return self.value_bounds(storage)[1] is None

    # -- execution ---------------------------------------------------------

    def run(self, storage: dict[str, np.ndarray], bounds: dict[int, int],
            activity: bool = True):
        """Execute the program on *storage* (committing into it) with the
        row *bounds* of :meth:`value_bounds`; returns ``(toggles,
        mem_reads, mem_writes)`` — all three empty unless *activity*."""
        plan = self._plans.get(activity)
        if plan is None:
            plan = self._plans[activity] = _Plan(self, activity)
        dtype = value_dtype(max((bounds[r] for r in plan.rows), default=0))
        shape = (len(self.order) + 1, plan.width)
        r = _Run(self.n_cycles, plan, np.zeros(shape, dtype=dtype),
                 np.zeros(shape, dtype=bool), storage, activity)
        for kind, group in plan.groups:
            getattr(self, f"_exec_{kind}")(group, r)
        if not activity:
            return {}, {}, {}
        return self._toggles(plan, r.V, r.K), r.mem_reads, r.mem_writes

    def streams(self) -> _Streams:
        if self._streams is None:
            self._streams = _Streams(self)
        return self._streams

    def _toggles(self, plan, V, K) -> dict[int, int]:
        """Per-node value changes, exactly the interpreter's ``prev !=
        out`` test (None==None never toggles, None vs value always does).

        Changes are counted on materialized rows only; a row that delays
        its root by ``lb`` sees the root's changes up to cycle ``n-1-lb``
        plus the step from invalid to the root's first lane at cycle
        ``lb``.
        """
        n = self.n_cycles
        if n < 2 or not plan.rows:
            return dict.fromkeys(self.order, 0)
        rows = np.array(sorted(plan.rows))
        vm = V[rows, plan.lookback:]
        km = K[rows, plan.lookback:]
        changed = (km[:, 1:] != km[:, :-1]) | (
            km[:, 1:] & km[:, :-1] & (vm[:, 1:] != vm[:, :-1]))
        total = changed.sum(axis=1)
        position = np.full(len(self.order) + 1, -1)
        position[rows] = np.arange(len(rows))
        root = position[np.array([a for a, _lb in self._alias])]
        lb = np.array([lb for _a, lb in self._alias])
        counts = np.zeros(len(self.order), dtype=np.int64)
        live = (root >= 0) & (lb < n)
        counts[live] = total[root[live]]
        late = live & (lb >= 1)
        if late.any():
            depth = int(lb[late].max())
            # tail[:, j]: changes within the last j + 1 cycle steps
            tail = np.cumsum(changed[:, n - 1 - depth:][:, ::-1], axis=1)
            counts[late] -= tail[root[late], lb[late] - 1]
            counts[late] += km[root[late], 0]
        return {nid: int(c) for nid, c in zip(self.order, counts)}

    # Each executor runs one group (same kind, same dependency level) as
    # whole-series operations; ``r.gather`` reads operands through their
    # lookbacks and ``r.put`` writes the group's rows.

    def _exec_const(self, g, r):
        r.put(g.rows, g.values[:, None], True)

    def _exec_ctrl(self, g, r):
        cycle = np.arange(self.n_cycles, dtype=np.int64)
        r.put(g.rows, cycle[None, :] - g.offsets[:, None], True)

    def _exec_addrgen(self, g, r):
        r.put(g.rows, g.addr, g.valid)

    def _exec_alu(self, g, r):
        av, ak = r.gather(g.a)
        bv, bk = r.gather(g.b)
        bits = av.dtype.itemsize * 8 - 1
        out = np.empty_like(av)
        for op, idx in g.ops:
            a, b = (av, bv) if idx is None else (av[idx], bv[idx])
            if op == "mul":
                res = a * b
            elif op == "add":
                res = a + b
            elif op == "sub":
                res = a - b
            elif op == "max":
                res = np.maximum(a, b)
            elif op == "shl":
                # Invalid lanes may carry garbage shift counts; clamping
                # them never touches valid data (Python << would have
                # raised on a negative count).
                res = np.left_shift(a, np.clip(b, 0, bits))
            else:  # shr
                res = np.right_shift(a, np.clip(b, 0, bits))
            if idx is None:
                out = res
            else:
                out[idx] = res
        r.put(g.rows, out, ak & bk)

    def _exec_mux_dyn(self, g, r):
        r.put(g.rows, np.take(r.V, g.flat), np.take(r.K, g.flat) & g.live)

    def _exec_mem_read(self, g, r):
        out = np.empty(g.index.shape, dtype=np.int64)
        for tensor, idx in g.tensors:
            if idx is None:
                out = np.take(r.storage[tensor], g.index)
            else:
                out[idx] = np.take(r.storage[tensor], g.index[idx])
        np.multiply(out, g.fetch, out=out)  # padding reads zero
        r.put(g.rows, out, g.valid)
        if r.mem_reads is not None:
            for tensor, count in g.reads.items():
                r.mem_reads[tensor] = r.mem_reads.get(tensor, 0) + count

    def _exec_mem_write(self, g, r):
        dv, dk = r.gather(g.data)
        commit = g.ok & dk
        for tensor, idx in g.tensors:
            if idx is None:
                index, data, hit = g.index, dv, commit
            else:
                index, data, hit = g.index[idx], dv[idx], commit[idx]
            # an int64 datum keeps ufunc.at on its fast path
            np.add.at(r.storage[tensor], index[hit],
                      data[hit].astype(np.int64))
            if r.mem_writes is not None:
                count = int(np.count_nonzero(hit))
                if count:
                    r.mem_writes[tensor] = \
                        r.mem_writes.get(tensor, 0) + count

    def _exec_reducer(self, g, r):
        v, k = r.gather(g.pins)
        acc = np.add.reduceat(np.where(k, v, 0), g.starts, axis=0)
        r.put(g.rows, acc, np.logical_or.reduceat(k, g.starts, axis=0))

    def _exec_lut(self, g, r):
        v, k = r.gather(g.input)
        out = np.empty_like(v)
        for i, table in enumerate(g.tables):
            out[i] = table[v[i] % len(table)]
        r.put(g.rows, out, k)


class _Streams:
    """The temporal range unranked once, with everything derived from it
    per distinct address matrix, coverage offset and mux policy."""

    def __init__(self, program: StepProgram):
        self.n_cycles = program.n_cycles
        self._addrgen = program._addrgen
        self.rt = np.array(program.net.rt, dtype=np.int64)
        self.total = int(np.prod(self.rt))
        strides = np.ones(len(self.rt), dtype=np.int64)
        for i in range(len(self.rt) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.rt[i + 1]
        # digits[i, t] == unrank(t)[i]
        self.digits = (np.arange(self.total, dtype=np.int64)[None, :]
                       // strides[:, None]) % self.rt[:, None]
        self._address: dict = {}
        self._covered: dict = {}
        self._first: dict = {}

    def window(self, shift: int, start: int) -> tuple[int, int, int]:
        """Cycles ``[lo, hi)`` on which the stream ``n - shift`` (valid
        from cycle *start*) lies inside the temporal range, and the
        timestamp at ``lo``."""
        lo = max(start, shift, 0)
        hi = max(lo, min(shift + self.total, self.n_cycles))
        return lo, hi, lo - shift

    def address(self, mdt, dims):
        """``(flat, index)``: the tensor index ``M_DT @ digits`` of every
        timestamp and its row-major flat address (per-generator offsets
        and bounds are applied by :meth:`addresses`)."""
        hit = self._address.get((mdt, dims))
        if hit is None:
            index = np.array(mdt, dtype=np.int64) @ self.digits
            strides = np.ones(len(dims), dtype=np.int64)
            for i in range(len(dims) - 2, -1, -1):
                strides[i] = strides[i + 1] * dims[i + 1]
            hit = self._address[(mdt, dims)] = (strides @ index, index)
        return hit

    def covered(self, dt, sign: int):
        """Timestamps ``t`` with ``unrank(t) + sign * dt`` still inside
        the temporal range."""
        hit = self._covered.get((dt, sign))
        if hit is None:
            moved = self.digits + sign * np.array(dt, dtype=np.int64)[:, None]
            hit = self._covered[(dt, sign)] = np.all(
                (moved >= 0) & (moved < self.rt[:, None]), axis=0)
        return hit

    def first(self, dts):
        """``(position, matched)`` per timestamp: the first policy entry
        whose coverage test passes (None always passes), and whether any
        does (position is 0 where none does)."""
        hit = self._first.get(dts)
        if hit is None:
            position = np.zeros(self.total, dtype=np.intp)
            open_ = np.ones(self.total, dtype=bool)
            for p, dt in enumerate(dts):
                cond = open_ if dt is None else open_ & self.covered(dt, -1)
                position[cond] = p
                open_ &= ~cond
            hit = self._first[dts] = (position, ~open_)
        return hit

    def addresses(self, entries):
        """``(addr, valid)`` matrices, one row per ``(address generator
        row, lookback)`` entry: the flat address each cycle reads (-1 in
        the padding region) and whether the generator drives one."""
        addr = np.zeros((len(entries), self.n_cycles), dtype=np.int64)
        valid = np.zeros((len(entries), self.n_cycles), dtype=bool)
        for i, (row, lb) in enumerate(entries):
            ag = self._addrgen[row]
            shift, start = ag["stream"]
            lo, hi, first = self.window(shift + lb, start + lb)
            if lo == hi:
                continue
            last = first + hi - lo
            flat, index = self.address(ag["mdt"], ag["dims"])
            series = flat[first:last] + ag["carry"]
            if ag["checks"]:
                inside = np.ones(hi - lo, dtype=bool)
                for dim, low, high in ag["checks"]:
                    d = index[dim, first:last]
                    inside &= (d >= low) & (d < high)
                series = np.where(inside, series, -1)
            addr[i, lo:hi] = series
            valid[i, lo:hi] = (True if ag["gate"] is None
                               else ~self.covered(ag["gate"], 1)[first:last])
        return addr, valid


class _Operand:
    """One input of every spec in a group: root rows and the window
    index ``lookback - lb`` that reads each root delayed by its ``lb``."""

    __slots__ = ("roots", "index")

    def __init__(self, entries, zero: int, lookback: int):
        entries = [e or (zero, 0) for e in entries]
        self.roots = np.array([root for root, _lb in entries], dtype=np.intp)
        self.index = lookback - np.array([lb for _root, lb in entries],
                                         dtype=np.intp)


def _by_key(specs, key):
    """``[(value, index array or None when it is the whole group)]``."""
    parts: dict = {}
    for i, s in enumerate(specs):
        parts.setdefault(s[key], []).append(i)
    if len(parts) == 1:
        return [(next(iter(parts)), None)]
    return [(value, np.array(idx)) for value, idx in parts.items()]


def _gathered(kind: str, spec: dict) -> list:
    """The input entries a spec reads from ``V`` at run time."""
    if kind == "alu":
        return [spec["a"], spec["b"]]
    if kind == "mem_write":
        return [spec["data"]]
    if kind == "reducer":
        return spec["pins"]
    if kind == "lut":
        return [spec["input"]]
    if kind == "mux_dyn":
        return [entry for entry, _dt in spec["policy"]]
    return []


class _Plan:
    """The steps one kind of run executes, as prepared groups.

    With ``activity=False`` only the rows that feed a memory commit are
    kept: counters and toggles are not computed, so nothing else is
    observable.
    """

    def __init__(self, program: StepProgram, activity: bool):
        steps = program.steps
        if not activity:
            needed: set[int] = set()
            for kind, specs in reversed(steps):
                for s in specs:
                    if kind == "mem_write" or s["row"] in needed:
                        needed.update(s["_srcs"])
            steps = [(kind, kept) for kind, specs in steps
                     if (kept := [s for s in specs if kind == "mem_write"
                                  or s["row"] in needed])]
        self.program = program
        self.rows = {s["row"] for kind, specs in steps for s in specs
                     if kind != "mem_write"}
        self.lookback = max((lb for kind, specs in steps for s in specs
                             for _root, lb in _gathered(kind, s)),
                            default=0)
        self.width = self.lookback + program.n_cycles
        self.groups = [(kind, self._prepare(kind, specs))
                       for kind, specs in steps]

    def _operand(self, entries) -> _Operand:
        return _Operand(entries, self.program._zero, self.lookback)

    def _prepare(self, kind, specs) -> _Group:
        rows = np.array([s["row"] for s in specs], dtype=np.intp)
        if kind == "const":
            return _Group(rows=rows, values=np.array(
                [s["value"] for s in specs], dtype=np.int64))
        if kind == "ctrl":
            return _Group(rows=rows, offsets=np.array(
                [s["offset"] for s in specs], dtype=np.int64))
        streams = self.program.streams()
        if kind == "addrgen":
            addr, valid = streams.addresses([(s["row"], 0) for s in specs])
            return _Group(rows=rows, addr=addr, valid=valid)
        if kind == "mem_read":
            addr, valid = streams.addresses([s["addr"] for s in specs])
            fetch = valid & (addr >= 0)
            tensors = _by_key(specs, "tensor")
            reads = {tensor: int(np.count_nonzero(
                fetch if idx is None else fetch[idx]))
                for tensor, idx in tensors}
            return _Group(rows=rows, index=np.where(fetch, addr, 0),
                          fetch=fetch, valid=valid, tensors=tensors,
                          reads={t: c for t, c in reads.items() if c})
        if kind == "mem_write":
            addr, valid = streams.addresses([s["addr"] for s in specs])
            return _Group(index=addr, ok=valid & (addr >= 0),
                          data=self._operand([s["data"] for s in specs]),
                          tensors=_by_key(specs, "tensor"))
        if kind == "alu":
            return _Group(rows=rows,
                          a=self._operand([s["a"] for s in specs]),
                          b=self._operand([s["b"] for s in specs]),
                          ops=_by_key(specs, "op"))
        if kind == "reducer":
            return _Group(rows=rows, pins=self._operand(
                [e for s in specs for e in s["pins"]]),
                starts=np.cumsum([0] + [len(s["pins"]) for s in specs[:-1]]))
        if kind == "lut":
            return _Group(rows=rows,
                          input=self._operand([s["input"] for s in specs]),
                          tables=[s["table"] for s in specs])
        if kind == "mux_dyn":
            return self._prepare_mux(rows, specs, streams)
        raise AssertionError(f"no executor for step kind {kind!r}")

    def _prepare_mux(self, rows, specs, streams) -> _Group:
        """A group of dynamic muxes as one precomputed gather: ``flat[i,
        n]`` indexes ``V`` (and ``K``) at the source mux *i* forwards at
        cycle *n*, delayed by that source's lookback."""
        n = self.program.n_cycles
        width = max(len(s["policy"]) for s in specs)
        # start[i, p]: flat index of source p of mux i at cycle 0
        start = np.full((len(specs), width), self.program._zero * self.width,
                        dtype=np.intp)
        pick = np.zeros((len(specs), n), dtype=np.intp)
        live = np.zeros((len(specs), n), dtype=bool)
        for i, s in enumerate(specs):
            for p, ((root, lb), _dt) in enumerate(s["policy"]):
                start[i, p] = root * self.width + self.lookback - lb
            lo, hi, first = streams.window(*s["stream"])
            position, matched = streams.first(
                tuple(dt for _entry, dt in s["policy"]))
            pick[i, lo:hi] = position[first:first + hi - lo]
            live[i, lo:hi] = matched[first:first + hi - lo]
        pick += (np.arange(len(specs)) * width)[:, None]
        flat = np.take(start, pick)
        flat += np.arange(n)
        return _Group(rows=rows, flat=flat, live=live)


class _Run:
    """The matrices of one execution and the operand access into them."""

    def __init__(self, n_cycles, plan, V, K, storage, activity):
        self.V = V
        self.K = K
        self.storage = storage
        # window[row, lookback - lb] is the row's series delayed by lb
        self._wv = sliding_window_view(V, n_cycles, axis=1)
        self._wk = sliding_window_view(K, n_cycles, axis=1)
        self._columns = slice(plan.lookback, plan.lookback + n_cycles)
        self.mem_reads: dict[str, int] | None = {} if activity else None
        self.mem_writes: dict[str, int] | None = {} if activity else None

    def gather(self, op: _Operand):
        return self._wv[op.roots, op.index], self._wk[op.roots, op.index]

    def put(self, rows, values, valid) -> None:
        self.V[rows, self._columns] = values
        self.K[rows, self._columns] = valid
