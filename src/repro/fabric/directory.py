"""A directory-based coherence interconnect.

Instead of broadcasting every address phase to every cache, a
**directory** records, per line, exactly which caches hold a copy, and
forwards snoops point-to-point to those caches only (cf. the
phase-priority directory-coherence line of work, arXiv:1305.3038).
Two structural differences from the snoopy fabrics:

* **Presence tracking.** The directory reads the presence map every
  fabric keeps (:meth:`~repro.bus.asb.AsbBus.register_master` installs
  listeners on each cache controller's install/remove hooks, the same
  hooks the snoop logic's TAG CAM mirrors), so the sharer/owner set per
  line is an exact mirror of which caches hold the line valid.
  Consulting only those caches is equivalent to broadcast: a cache
  without the line answers every snoop MISS/OK, contributing nothing.
  Unlike the snoopy buses, which skip only presence-filtered wrappers,
  the directory forwards to no snooper outside the sharer set.
  ``observe`` taps remain broadcast — the snoop-logic TAG CAM needs to
  see its own master's transactions regardless of presence.
* **Home banks.** The line address hashes to one of ``banks``
  per-home arbiters (each an instance of the configured service
  discipline), so transactions to different homes proceed
  concurrently — the scaling win over a single snoopy bus.  Same-line
  transactions always hash to the same bank, preserving the
  per-address serialisation the coherence checker relies on.  The hash
  and the presence map use the bus's one line size, so a cache with
  any other is refused at ``register_master``.

The tenure is :meth:`AsbBus.transact`, unchanged: each bank tenure is
atomic (address + directory lookup + data), and the protocol tables,
wrapper conversions, ARTRY/drain handover and validate-cancel
semantics are the atomic bus's own.  The directory overrides only the
hooks that say *how tenures are arbitrated* (``_arbiter_for`` returns
the home bank), *who is consulted* (``_snoop_window``) and how long
the address phase is (``DIRECTORY_LOOKUP_CYCLES`` folds into
``address_cycles``).  Fabric-specific counters use the ``fabric.dir.``
prefix.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..bus.types import SnoopAction, SnoopReply, Transaction
from .atomic import AtomicFabric
from .interfaces import FabricCapabilities
from .registry import register_fabric

__all__ = ["BankedArbiter", "DirectoryFabric"]


class BankedArbiter:
    """Aggregate diagnostic view over the per-home-bank arbiters.

    Presents the same read surface a single arbiter does (``grants``,
    ``grants_by_master``, ``pending``, ``snapshot``) so the watchdog
    and the experiment runners work unchanged; fault injectors that
    patch selection (``arbiter.starve``) iterate ``banks`` directly.
    """

    def __init__(self, banks: Tuple):
        self.banks = banks

    @property
    def grants(self) -> int:
        return sum(bank.grants for bank in self.banks)

    @property
    def grants_by_master(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for bank in self.banks:
            for master, count in bank.grants_by_master.items():
                merged[master] = merged.get(master, 0) + count
        return merged

    def pending(self) -> int:
        return sum(bank.pending() for bank in self.banks)

    def snapshot(self) -> dict:
        return {
            "grants": self.grants,
            "banks": [bank.snapshot() for bank in self.banks],
        }


@register_fabric
class DirectoryFabric(AtomicFabric):
    """Per-line-home directory with point-to-point snoop forwarding."""

    name = "directory"
    version = 1

    #: default number of home banks (concurrent arbitration domains)
    DEFAULT_BANKS = 8
    #: directory lookup latency added to every address phase
    DIRECTORY_LOOKUP_CYCLES = 1

    def __init__(
        self,
        sim,
        clock,
        controller,
        *,
        arbiter_factory,
        banks: int = DEFAULT_BANKS,
        line_bytes: int = 32,
        tracer=None,
        stats=None,
        max_retries=1000,
    ):
        super().__init__(
            sim,
            clock,
            controller,
            arbiter=None,
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )
        # The lookup lengthens every address phase; DRAIN priority skips
        # only the arbitration cycles, so it folds into address_cycles.
        self.address_cycles += self.DIRECTORY_LOOKUP_CYCLES
        # One line size for the presence map and the home-bank hash:
        # register_master refuses a cache with any other.
        self._line_bytes = line_bytes
        self._line_mask = ~(line_bytes - 1)
        self._banks: Tuple = tuple(arbiter_factory() for _ in range(max(1, banks)))
        #: the watchdog-facing aggregate over the home banks
        self.arbiter = BankedArbiter(self._banks)

    @classmethod
    def capabilities(cls) -> FabricCapabilities:
        return FabricCapabilities(
            broadcast=False,
            atomic_tenure=True,
            pipelined=False,
            point_to_point=True,
        )

    @classmethod
    def build(
        cls,
        sim,
        clock,
        controller,
        *,
        arbiter_factory,
        tracer=None,
        stats=None,
        max_retries=1000,
        line_bytes=32,
    ) -> "DirectoryFabric":
        return cls(
            sim,
            clock,
            controller,
            arbiter_factory=arbiter_factory,
            line_bytes=line_bytes,
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )

    @classmethod
    def fingerprint(cls) -> Dict[str, object]:
        return {
            "name": cls.name,
            "version": cls.version,
            "banks": cls.DEFAULT_BANKS,
            "lookup_cycles": cls.DIRECTORY_LOOKUP_CYCLES,
        }

    def snapshot(self) -> dict:
        return {
            "fabric": self.name,
            "completions": self.completions,
            "tracked_lines": len(self._presence),
            "arbiter": self.arbiter.snapshot(),
            "inflight": [t.describe() for t in self.inflight_tenures()],
        }

    # -- the tenure hooks ---------------------------------------------------
    def _arbiter_for(self, addr: int):
        """The line's home bank."""
        return self._banks[(addr // self._line_bytes) % len(self._banks)]

    def _snoop_window(self, txn: Transaction) -> List[Tuple[str, SnoopReply]]:
        """Consult the directory and forward the snoop point-to-point.

        Equivalent to the broadcast window: caches absent from the
        presence set hold the line INVALID and would answer MISS/OK.
        Both the snooper list and the sharer set are snapshotted before
        the walk — a forwarded invalidation mutates the presence set
        (the remove listener fires), and fault-proxy teardown can
        detach a snooper mid-window.
        """
        sharers = frozenset(self._presence.get(txn.addr & self._line_mask, ()))
        self.stats.bump("fabric.dir.lookups")
        replies: List[Tuple[str, SnoopReply]] = []
        trace = self._trace_bus
        snoopers = tuple(self.snoopers)
        for snooper in snoopers:
            # Passive taps stay broadcast: the snoop-logic TAG CAM must
            # see its own master's transactions to track allocations.
            snooper.observe(txn)
        for snooper in snoopers:
            name = snooper.master_name
            if name == txn.master or name not in sharers:
                continue
            self.stats.bump("fabric.dir.forwards")
            reply = snooper.snoop(txn)
            if reply.action is not SnoopAction.OK and trace.enabled:
                trace.emit(
                    self.sim.now, name, "snoop",
                    op=txn.op.value, addr=txn.addr, action=reply.action.value,
                )
            replies.append((name, reply))
        return replies
