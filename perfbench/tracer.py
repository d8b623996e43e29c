"""Per-layer tracing of a uavchain run, installed from outside the package.

Nothing in ``src/uavchain`` knows about this module.  ``install`` rebinds
each layer's entry point where its caller looks it up:

* ``simnet`` imports ``link_capacity``, ``step``, ``steer_to_waypoint``,
  ``apply_spoofing`` and ``deploy_fleet`` by name, so those are rebound in
  the ``simnet`` namespace (and ``deploy_fleet`` also in ``harness``);
* ``simnet`` calls consensus through ``cons.``, so ``handle_message``,
  ``on_timeout`` and ``proposal_for_turn`` are rebound on the module;
* ``consensus`` imports ``make_block`` by name, so it is rebound there;
* methods are patched on their class.

Each wrapped call is a span.  Spans stay in memory as aggregates per
(parent span, span) pair -- a call tree, not a list -- because a hurricane
pbft run makes millions of calls; ``spans`` returns them for writing once
the run is over.  Self time is a span's busy time minus the busy time of the
wrapped spans nested directly inside it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

LOOP_SPAN = "simnet.loop"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, busy_s, self_s]
        self.layers: dict[str, list] = {}
        # (parent name or "", name) -> [calls, busy_s]
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self.counts: dict[str, float] = {
            "handle_effective": 0,
            "chain_len_sum": 0,
            "verifies_rejected": 0,
            "admit_tail_dropped": 0,
            "admit_wait_sum_s": 0.0,
        }
        # Host cost per handled message by quarter of simulated time.
        self.quarter_first_host: list[Optional[float]] = [None] * 4
        self.quarter_calls = [0] * 4
        self.duration_s = 0.0

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        acc = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += busy
                acc[2] += busy - frame[1]
                if parent is not None:
                    parent[1] += busy
                key = (parent[0] if parent is not None else "", name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += busy
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, name: str, observe=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    # -- observers: counts taken where the work happens ---------------------------

    def _on_handle(self, args: tuple, result: Any) -> None:
        if result.outbound or result.committed:
            self.counts["handle_effective"] += 1
        now = args[3]
        q = min(3, int(4 * now / self.duration_s)) if self.duration_s > 0 else 0
        self.quarter_calls[q] += 1
        if self.quarter_first_host[q] is None:
            self.quarter_first_host[q] = time.perf_counter()

    def _on_add_transactions(self, args: tuple, result: Any) -> None:
        self.counts["chain_len_sum"] += len(args[0].committed_chain)

    def _on_verifies(self, args: tuple, result: Any) -> None:
        if not result:
            self.counts["verifies_rejected"] += 1

    def _on_admit(self, args: tuple, result: Any) -> None:
        if result is None:
            self.counts["admit_tail_dropped"] += 1
        else:
            self.counts["admit_wait_sum_s"] += result[1]

    def install(self, uavchain: Any, duration_s: float) -> None:
        """Wrap every traced entry point of the imported ``uavchain`` package."""
        consensus, harness, simnet = uavchain.consensus, uavchain.harness, uavchain.simnet
        self.duration_s = duration_s
        self._patch(simnet.Simulation, "run", LOOP_SPAN)
        self._patch(consensus, "handle_message", "consensus.handle_message", self._on_handle)
        self._patch(consensus, "on_timeout", "consensus.on_timeout")
        self._patch(consensus, "proposal_for_turn", "consensus.proposal_for_turn")
        self._patch(consensus, "make_block", "domain.make_block")
        self._patch(
            consensus.ConsensusState, "add_transactions", "consensus.add_transactions",
            self._on_add_transactions,
        )
        self._patch(consensus.ConsensusState, "copy", "consensus.copy")
        self._patch(consensus.ProtocolConfig, "proposer_for", "consensus.proposer_for")
        self._patch(uavchain.domain.ConsensusMessage, "verifies", "domain.verifies", self._on_verifies)
        self._patch(simnet.NodeQueue, "admit", "simnet.queue.admit", self._on_admit)
        self._patch(simnet.EventTrace, "add", "simnet.trace.add")
        self._patch(simnet.EventTrace, "hash_hex", "simnet.trace.hash")
        self._patch(simnet, "link_capacity", "radio.link_capacity")
        self._patch(simnet, "step", "mobility.step")
        self._patch(simnet, "steer_to_waypoint", "mobility.steer_to_waypoint")
        self._patch(simnet, "apply_spoofing", "mobility.apply_spoofing")
        self._patch(simnet, "deploy_fleet", "scenario.deploy_fleet")
        self._patch(harness, "deploy_fleet", "scenario.deploy_fleet")
        self._patch(harness, "compute_metrics", "harness.compute_metrics")
        self._patch(harness, "export", "harness.export")

    def summary(self, run_start: float, run_end: float) -> dict[str, Any]:
        """Raw accumulators; ratios are derived after summing across runs."""
        bounds = [run_start] + self.quarter_first_host[1:] + [run_end]
        quarter_host_s = [
            (bounds[q + 1] - bounds[q])
            if bounds[q] is not None and bounds[q + 1] is not None
            else 0.0
            for q in range(4)
        ]
        return {
            "layers": {k: list(v) for k, v in sorted(self.layers.items())},
            "counts": dict(self.counts),
            "quarter_host_s": quarter_host_s,
            "quarter_calls": list(self.quarter_calls),
        }

    def spans(self) -> list[dict[str, Any]]:
        return [
            {"parent": parent, "span": name, "calls": calls, "busy_s": busy}
            for (parent, name), (calls, busy) in sorted(self.edges.items())
        ]
