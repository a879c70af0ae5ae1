"""The bus wrapper (Fig 1 / Fig 2): the paper's central hardware block.

A :class:`Wrapper` sits between one coherent processor's cache
controller and the shared bus.  It is the *only* place heterogeneity is
handled; the native cache FSMs are untouched.  Three duties:

1. **Snoop-path conversion** — per its :class:`WrapperPolicy`, present
   snooped read transactions to the native controller as writes (the
   Intel486 realisation asserts the INV pin on read snoop cycles), so
   the controller invalidates instead of downgrading to S/O
   (:meth:`WrapperPolicy.snoop_op`).
2. **Shared-signal forcing** — on the processor's own fills, force the
   sampled shared signal per policy (NEVER kills I->S, ALWAYS kills
   I->E; :meth:`WrapperPolicy.filter_shared`).
3. **Snoop-push scheduling** — when the native FSM demands a drain
   (dirty snoop hit), answer ARTRY and queue the push.  The push runs at
   DRAIN bus priority but must wait for the cache port, which the
   processor's own in-flight (possibly backed-off) transaction holds —
   the paper's "retries the transaction instead of draining" behaviour
   that underlies the Fig 4 hardware deadlock.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..bus.asb import AsbBus, Snooper
from ..bus.types import SnoopAction, SnoopReply, Transaction
from ..cache.controller import CacheController, SnoopDecision
from ..cache.line import State
from ..cache.protocols.base import SnoopOp
from ..errors import IntegrationError
from ..sim import Event, Simulator
from .reduction import WrapperPolicy

__all__ = ["Wrapper"]


class Wrapper(Snooper):
    """Protocol-conversion wrapper around one coherent cache controller."""

    #: A snoop of a line the cache does not hold is a MISS: reply OK,
    #: nothing else.  The bus skips this wrapper for such lines.
    presence_filtered = True

    def __init__(
        self,
        sim: Simulator,
        controller: CacheController,
        policy: WrapperPolicy,
        bus: AsbBus,
    ):
        if not controller.coherent:
            raise IntegrationError(
                f"{controller.name}: a Wrapper needs a coherent controller; "
                "use SnoopLogic for processors without coherence hardware"
            )
        self.sim = sim
        self.controller = controller
        self.policy = policy
        self.bus = bus
        self.master_name = controller.name
        # Read through self.policy at call time: callers may swap the
        # policy after construction (identity-wrapper experiments).
        controller.shared_filter = lambda actual: self.policy.filter_shared(actual)
        self._drain_queue: Deque[Tuple[int, State, Event]] = deque()
        self._drain_wakeup: Optional[Event] = None
        self._worker = sim.process(
            self._drain_worker(), name=f"{self.master_name}.wrapper", daemon=True
        )
        # The presence filter is only sound for a master the bus tracks.
        bus.register_master(self.master_name, controller)
        bus.attach_snooper(self)

    # -- snoop path -----------------------------------------------------------
    def snoop(self, txn: Transaction) -> SnoopReply:
        policy = self.policy
        op = policy.snoop_op(txn.op)
        data = txn.data if op is SnoopOp.UPDATE else None
        decision = self.controller.snoop_decision(
            op, txn.addr, data=data, allow_supply=policy.allow_supply
        )
        if decision.kind == SnoopDecision.MISS:
            return SnoopReply.OK
        if decision.kind == SnoopDecision.DRAIN:
            completion = self.sim.event()
            self._drain_queue.append((txn.addr, decision.drain_next_state, completion))
            self._kick_worker()
            return SnoopReply(SnoopAction.RETRY, completion=completion)
        if decision.kind == SnoopDecision.SUPPLY:
            return SnoopReply(SnoopAction.SUPPLY, supply_data=decision.supply_data)
        if decision.assert_shared:
            return SnoopReply(SnoopAction.SHARED)
        return SnoopReply.OK

    # -- drain worker --------------------------------------------------------
    def _kick_worker(self) -> None:
        if self._drain_wakeup is not None and not self._drain_wakeup.triggered:
            wakeup, self._drain_wakeup = self._drain_wakeup, None
            wakeup.succeed()

    def _drain_worker(self):
        while True:
            if not self._drain_queue:
                self._drain_wakeup = self.sim.event()
                yield self._drain_wakeup
                continue
            addr, next_state, completion = self._drain_queue.popleft()
            # drain_line acquires the cache port: if the processor's own
            # transaction is in flight (e.g. backed off on ARTRY), the
            # push waits — deliberately, per Section 3.
            yield from self.controller.drain_line(addr, next_state)
            completion.succeed()

    @property
    def pending_drains(self) -> int:
        """Snoop pushes queued but not yet completed."""
        return len(self._drain_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wrapper {self.master_name} policy={self.policy}>"
