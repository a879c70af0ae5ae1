"""The batch engine: trace-driven functional replay, statistics only.

A thin, timing-free replay over the model's own coherence core.  Every
decision comes from the code the event kernel's controllers use: the
protocols' memoised FSM lookups, the wrapper policy's snoop-op
conversion and shared-signal forcing, the cache arrays with their LRU
victim choice, and the snoop-hit / write-miss / update / drain
decisions of :mod:`repro.cache.controller`.  What this engine drops is
the execution machinery: no event kernel, no generators, no time heap,
no arbitration, no tracing.  An access costs a handful of dict
operations instead of ~30 kernel events, which is where the
order-of-magnitude speedup comes from (``docs/engines.md``).

Faithfulness contract (enforced by ``tests/engines/test_equivalence.py``):
on any serialised trace, every counter except the timing-only
``bus.busy*`` keys matches the exact engine, as do the final per-master
line-state occupancy and every per-access value.  What the batch engine
does *not* model: simulated time, inter-master concurrency (port
contention, upgrade races), devices, fault injection, and non-coherent
masters.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..bus.types import BusOp
from ..cache.array import CacheArray
from ..cache.controller import (
    SnoopDecision,
    WriteMiss,
    classify_snoop_hit,
    drain_writes_back,
    update_state,
    write_miss_plan,
)
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..cache.protocols.base import WriteAction
from ..core.platform import PlatformConfig, build_memory_map
from ..core.reduction import WrapperPolicy, reduce_protocols
from ..errors import ConfigError, ProtocolError
from ..mem.map import WritePolicy
from .exact import line_state_occupancy
from .interfaces import EngineCapabilities, EngineRunResult, ISimEngine
from .registry import register_engine

__all__ = ["BatchEngine"]

_WORD_MASK = 0xFFFF_FFFF
_OP_CODES = {"read": 0, "write": 1, "swap": 2}
# Interned stat-key strings: the bus bumps run once per transaction, so
# the "bus.op.<x>" concatenation is hoisted out of the hot loop.
_OP_KEYS = {op: "bus.op." + op.value for op in BusOp}
# Reading an Enum member off its class goes through the metaclass's
# attribute hook on CPython 3.11 (~100 ns); the replay paths use these
# module aliases instead.
_INVALID, _MODIFIED = State.INVALID, State.MODIFIED
_READ, _WRITE, _SWAP = BusOp.READ, BusOp.WRITE, BusOp.SWAP
_READ_LINE, _READ_LINE_EXCL = BusOp.READ_LINE, BusOp.READ_LINE_EXCL
_WRITE_LINE, _INVALIDATE, _UPDATE = (
    BusOp.WRITE_LINE, BusOp.INVALIDATE, BusOp.UPDATE,
)
_SILENT, _WRITE_THROUGH, _BROADCAST = (
    WriteAction.NONE, WriteAction.WRITE_THROUGH, WriteAction.UPDATE,
)


class _Master:
    """One master's side of the model: cache array, FSMs, wrapper policy."""

    __slots__ = (
        "name", "enabled", "protocol", "protocol_wt", "policy", "geom",
        "array", "bus_key",
    )

    def __init__(self, cfg, policy: WrapperPolicy):
        self.name = cfg.name
        self.enabled = cfg.cache_enabled
        self.protocol = make_protocol(cfg.protocol)
        self.protocol_wt = (
            make_protocol(cfg.protocol_wt) if cfg.protocol_wt else None
        )
        self.policy = policy
        self.geom = cfg.geometry()
        self.array = CacheArray(self.geom)
        self.bus_key = f"bus.master.{cfg.name}"

    def protocol_for(self, wt: bool):
        """The FSM a line of this region allocates under (i486 split)."""
        if wt and self.protocol_wt is not None:
            return self.protocol_wt
        return self.protocol


class _BatchModel:
    """One run's worth of functional-replay state."""

    def __init__(self, config: PlatformConfig):
        if config.faults:
            raise ConfigError("the batch engine does not model fault injection")
        if config.fabric != "atomic":
            raise ConfigError(
                "the batch engine replays the atomic snoopy bus only; "
                f"fabric {config.fabric!r} needs the exact event kernel"
            )
        if not all(cfg.coherent for cfg in config.cores):
            raise ConfigError(
                "the batch engine supports coherent masters only; "
                "non-coherent cores need the snoop-logic/interrupt "
                "machinery of the event kernel"
            )
        self.map = build_memory_map(config)
        self.snooping = config.hardware_coherence
        if self.snooping:
            policies = reduce_protocols(
                [cfg.protocol for cfg in config.cores]
            ).policies
        else:
            policies = [WrapperPolicy()] * len(config.cores)
        self.masters = [
            _Master(cfg, policy)
            for cfg, policy in zip(config.cores, policies)
        ]
        self.mem: Dict[int, int] = {}
        self.stats: Dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        stats = self.stats
        stats[key] = stats.get(key, 0) + amount

    # -- the bus ---------------------------------------------------------
    def txn(self, op, addr, master, data=None, line_words=0):
        """One bus tenure: snoop window, ARTRY/drain loop, data phase.

        Returns ``(shared, data)`` — the sampled shared signal and the
        data-phase payload — mirroring the exact bus's BusResult.
        """
        stats = self.stats
        get = stats.get
        stats["bus.txns"] = get("bus.txns", 0) + 1
        key = _OP_KEYS[op]
        stats[key] = get(key, 0) + 1
        key = master.bus_key
        stats[key] = get(key, 0) + 1
        shared = False
        supplier_data = None
        if self.snooping:
            update = data if op is _UPDATE else None
            while True:
                shared = False
                supplier_data = None
                drains = []
                for snooper in self.masters:
                    if snooper is master:
                        continue
                    # CacheArray.lookup(addr), inlined: every snooper is
                    # probed on every transaction.  Batch lines are never
                    # left invalid in place, so a tag hit is a valid line.
                    geom = snooper.geom
                    entry = snooper.array.index[
                        (addr >> geom.offset_bits) & geom.set_mask
                    ].get(addr >> geom.tag_shift)
                    if entry is None:
                        continue
                    line = entry[1]
                    policy = snooper.policy
                    kind, next_state, asserted = classify_snoop_hit(
                        line, policy.snoop_op(op),
                        0 if update is None else geom.word_offset(addr),
                        update, policy.allow_supply, snooper.name,
                    )
                    if kind == SnoopDecision.DRAIN:
                        # ARTRY: commit deferred to the drain push.
                        drains.append((snooper, next_state))
                        continue
                    if kind == SnoopDecision.SUPPLY and supplier_data is None:
                        supplier_data = list(line.data)
                    shared = shared or asserted
                    self._commit_snoop(snooper, addr, line, next_state)
                if not drains:
                    break
                stats["bus.retries"] = get("bus.retries", 0) + 1
                for snooper, next_state in drains:
                    self._drain(snooper, addr, next_state)
                # The master re-arbitrates and the address phase
                # re-snoops everyone against the post-drain states.
        if supplier_data is not None:
            stats["bus.c2c_supplies"] = get("bus.c2c_supplies", 0) + 1
            return shared, supplier_data
        return shared, self._data_phase(op, addr, data, line_words)

    def _data_phase(self, op, addr, data, line_words):
        mem = self.mem
        if op is _READ:
            return mem.get(addr, 0)
        if op is _WRITE:
            mem[addr] = data & _WORD_MASK
            return None
        if op is _SWAP:
            old = mem.get(addr, 0)
            mem[addr] = data & _WORD_MASK
            return old
        if op is _READ_LINE or op is _READ_LINE_EXCL:
            get = mem.get
            return [get(a, 0) for a in range(addr, addr + 4 * line_words, 4)]
        if op is _WRITE_LINE:
            for i, value in enumerate(data):
                mem[addr + 4 * i] = value & _WORD_MASK
        # INVALIDATE / UPDATE: address-only as far as memory is concerned.
        return None

    @staticmethod
    def _commit_snoop(snooper, addr, line, next_state):
        if next_state is _INVALID:
            snooper.array.remove(addr)
        else:
            line.state = next_state

    def _drain(self, snooper, addr, next_state):
        """Snoop push at DRAIN priority: write back, enter next_state."""
        base = snooper.geom.line_base(addr)
        line = snooper.array.lookup(base)
        if line is None:
            return
        if not drain_writes_back(line):
            self._commit_snoop(snooper, base, line, next_state)
            return
        self.txn(
            _WRITE_LINE, base, snooper,
            data=line.data, line_words=snooper.geom.line_words,
        )
        self._commit_snoop(snooper, base, line, next_state)
        self.bump(snooper.name + ".drains")

    # -- processor side ---------------------------------------------------
    def miss(self, m, op, addr, value, offset, cacheable, wt):
        """Every access but a cache hit (those are inlined in
        BatchEngine.run): misses, uncached accesses and swaps."""
        if op == 2:
            if cacheable:
                raise ProtocolError(
                    f"swap at 0x{addr:08x}: atomic exchange is only defined "
                    "for uncached addresses (lock variables are never cached)"
                )
            return self.txn(_SWAP, addr, m, data=value)[1]
        if not cacheable:
            if op == 0:
                value = self.txn(_READ, addr, m)[1]
                self.bump(m.name + ".uncached_reads")
                return value
            self.txn(_WRITE, addr, m, data=value)
            self.bump(m.name + ".uncached_writes")
            return None
        if op == 0:
            self.bump(m.name + ".read_misses")
            return self._fill(m, addr, wt, exclusive=False).data[offset]
        self.bump(m.name + ".write_misses")
        plan = write_miss_plan(m.protocol_for(wt))
        if plan is WriteMiss.WRITE_THROUGH:
            self.txn(_WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
        elif plan is WriteMiss.FILL_THEN_HIT:
            # The write counts as a hit on the freshly filled line, like
            # the exact controller's fill-then-write-hit sequence.
            line = self._fill(m, addr, wt, exclusive=False)
            self.bump(m.name + ".hits")
            self.write_hit(m, addr, line, offset, value)
        else:
            line = self._fill(m, addr, wt, exclusive=True)
            line.data[offset] = value
            if line.state is not _MODIFIED:
                line.state = _MODIFIED
        return None

    def write_hit(self, m, addr, line, offset, value):
        """A write hit (already counted), with its bus action if any."""
        new_state, action = line.protocol.lookup_write_hit(line.state)
        if action is _SILENT:
            line.state = new_state
            line.data[offset] = value
        elif action is _WRITE_THROUGH:
            line.data[offset] = value
            self.txn(_WRITE, addr, m, data=value)
            self.bump(m.name + ".write_throughs")
        elif action is _BROADCAST:
            shared = self.txn(_UPDATE, addr, m, data=value)[0]
            line.data[offset] = value
            line.state = update_state(shared)
            self.bump(m.name + ".updates")
        else:
            # UPGRADE: address-only invalidate.  Serialised replay has
            # no competing RWITM in arbitration, so the race arm of the
            # exact controller (upgrade_races) is unreachable here.
            self.txn(_INVALIDATE, m.geom.line_base(addr), m)
            line.state = new_state
            line.data[offset] = value
            self.bump(m.name + ".upgrades")

    def _fill(self, m, addr, wt, exclusive):
        protocol = m.protocol_for(wt)
        array = m.array
        base = m.geom.line_base(addr)
        way, victim, victim_addr = array.victim_for(base)
        if victim is not None:
            if victim.is_dirty:
                self.txn(
                    _WRITE_LINE, victim_addr, m,
                    data=victim.data, line_words=m.geom.line_words,
                )
                self.bump(m.name + ".writebacks")
            array.remove(victim_addr)
            self.bump(m.name + ".evictions")
        op = _READ_LINE_EXCL if exclusive else _READ_LINE
        shared, data = self.txn(op, base, m, line_words=m.geom.line_words)
        state = protocol.lookup_fill_state(
            exclusive, m.policy.filter_shared(shared)
        )
        line = array.install(base, way, data, state, protocol)
        self.bump(m.name + ".fills")
        return line


def _ingest(model: _BatchModel, accesses: Sequence) -> List[tuple]:
    """Decompose the trace into per-access machine integers.

    One row per access: ``(proc, op, addr, value, set index, tag, word
    offset, cacheable, write-through)``, with ``op`` coded 0=read /
    1=write / 2=swap and the address split in the issuing master's
    cache geometry.
    """
    layouts = [
        (m.geom.offset_bits, m.geom.set_mask, m.geom.tag_shift,
         m.geom.line_bytes - 1, m.enabled)
        for m in model.masters
    ]
    rows = []
    append = rows.append
    lo = hi = 0  # bounds of the region the previous access fell in
    for access in accesses:
        proc, addr = access.proc, access.addr
        if not 0 <= proc < len(layouts):
            raise ConfigError("trace references a processor the config lacks")
        if not lo <= addr < hi:
            region = model.map.lookup(addr)
            if region is None:
                raise ConfigError(f"trace access at unmapped address 0x{addr:08x}")
            lo, hi = region.base, region.end
            cacheable = region.cacheable
            wt = region.write_policy is WritePolicy.WRITE_THROUGH
        offset_bits, set_mask, tag_shift, line_mask, enabled = layouts[proc]
        append((
            proc, _OP_CODES[access.op], addr, access.value,
            (addr >> offset_bits) & set_mask, addr >> tag_shift,
            (addr & line_mask) >> 2, enabled and cacheable, wt,
        ))
    return rows


@register_engine
class BatchEngine(ISimEngine):
    """Statistics-only functional replay (no event kernel)."""

    name = "batch"
    version = 1

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            trace_exact=False, timing=False, concurrent=False
        )

    def run(
        self, config: PlatformConfig, accesses: Sequence
    ) -> EngineRunResult:
        model = _BatchModel(config)
        rows = _ingest(model, accesses)
        masters = model.masters
        arrays = [m.array for m in masters]
        hit_counts = [0] * len(masters)
        miss = model.miss
        write_hit = model.write_hit
        out: List[Optional[int]] = []
        append = out.append
        # Wall time is the engine's reported metric; the batch engine
        # models no simulated time at all (elapsed_ns stays 0).
        start = time.perf_counter()  # repro: lint-ok[determinism]
        for p, op, addr, val, set_i, tag, offset, ca, wt in rows:
            if ca and op != 2:
                # The hit fast path: what CacheArray.lookup(addr,
                # touch=True) does, over the same tag index and LRU
                # clock, with no call on a read or silent-write hit.
                array = arrays[p]
                entry = array.index[set_i].get(tag)
                if entry is not None:
                    line = entry[1]
                    clock = array.clock + 1
                    array.clock = clock
                    line.lru_stamp = clock
                    hit_counts[p] += 1
                    if op == 0:
                        append(line.data[offset])
                        continue
                    outcome = line.protocol.write_hit_table.get(line.state)
                    if outcome is not None and outcome[1] is _SILENT:
                        line.state = outcome[0]
                        line.data[offset] = val
                    else:
                        write_hit(masters[p], addr, line, offset, val)
                    append(None)
                    continue
            append(miss(masters[p], op, addr, val, offset, ca, wt))
        wall = time.perf_counter() - start  # repro: lint-ok[determinism]
        for m, hits in zip(masters, hit_counts):
            if hits:
                model.bump(m.name + ".hits", hits)
        return EngineRunResult(
            engine=self.name,
            stats=dict(model.stats),
            accesses=len(accesses),
            events=0,
            elapsed_ns=0,
            wall_s=wall,
            line_states=line_state_occupancy(
                (m.name, m.array) for m in masters
            ),
            values=out,
        )
