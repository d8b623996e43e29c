"""Deterministic discrete-event network simulator.

A single global event queue ordered by (time, sequence) drives everything:
mobility ticks, transaction arrivals, message queue arrivals and deliveries,
block proposals, and timeout checks.  The full trace is a pure function of
(scenario, fault plan, protocol, seed); every random draw comes from a
labeled substream of the master seed, so runs replay bit-identically.

Message transport composes the radio model: per-message latency is
processing + measured FIFO queue wait + transmission + propagation.  Each
receiver runs one deterministic-service queue (one message per 1/rate
seconds); the measured wait is the time between physical arrival and
service start, which reduces to the analytic queue estimate at steady
state and to zero on an idle node.

A message is priced for all its recipients in one pass, and its arrivals,
sorted by (time, sequence), wait in one FIFO of which only the head is on
the event queue.  The arrival handler admits the head, then each next
arrival while it comes before every other queued event, so arrivals are
admitted in the order one event per arrival would give them.  An admitted
message waits in its receiver's inbox, a FIFO keyed as the event queue is,
and only the head of each inbox is on the event queue.  A node's
deliveries come due in admission order (its service starts never decrease,
and sequence numbers break ties), so each head holds its inbox's least
(time, sequence) key and the events run in the same order as they would
with every delivery on the event queue.  The queue's size follows the
messages in flight and the node count, not the recipients or the backlogs.

Attack injection: byzantine senders mutate their own outbound traffic
(equivocation, invalid blocks, silence), DDoS windows pour junk messages
straight into a target's inbound queue where they burn service capacity
until signature verification discards them, and spoofing windows shift
reported positions, which distorts the link distances the transport layer
sees without touching true physics.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from . import consensus as cons
from .consensus import (
    ConsensusState,
    ProtocolConfig,
    ProtocolKind,
    UavProfile,
    ValidatorSet,
    byzantine_tolerance,
    substream,
)
from .domain import (
    Block,
    Commit,
    ConsensusMessage,
    NodeId,
    Prepare,
    PrePrepare,
    Transaction,
    forged_message,
    signed_message,
)
from .faults import ByzantineStrategy, FaultPlan
from .mobility import AreaBounds, KinematicState, Vec3, ZERO, apply_spoofing, sample_waypoint, steer_to_waypoint, step
from .radio import MIN_LINK_DISTANCE_M, PROPAGATION_SPEED_M_S, link_capacity
from .scenario import (
    Scenario, ScenarioError, deploy_fleet,
    fault_plan_from_dict, fault_plan_to_dict, scenario_from_dict, scenario_to_dict,
)

# Synthetic sender id used by DDoS junk traffic; never part of any fleet.
ATTACKER_ID: NodeId = 10**9


@dataclass(frozen=True)
class TxForward:
    """Wire wrapper moving a client transaction to a validator's mempool."""

    tx: Transaction

    def kind(self) -> str:
        return "TxForward"


@dataclass
class NodeQueue:
    """Single-server FIFO with deterministic service time per message.

    The backlog is bounded (tail drop), so a flood saturates the node for
    the attack window instead of leaving an unbounded drain queue behind.
    """

    service_rate: float
    max_backlog_msgs: int = 500
    busy_until: float = 0.0
    # Service starts still ahead at the last admission, oldest first.  Arrivals
    # are admitted in time order and starts never decrease, so the starts an
    # arrival has passed lead the deque.
    pending_starts: deque[float] = field(default_factory=deque)
    served: int = 0
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0
    total_len_seen: float = 0.0

    def admit(self, now: float) -> Optional[tuple[float, float]]:
        """Enqueue one message; returns (service_start, measured_wait), or
        None when the backlog is full and the message is tail-dropped."""
        starts = self.pending_starts
        while starts and starts[0] <= now:
            starts.popleft()
        qlen = len(starts)
        if qlen >= self.max_backlog_msgs:
            return None
        # Comparisons pick what max(now, busy) and max(max_wait_s, wait) pick.
        busy = self.busy_until
        start = busy if busy > now else now
        self.busy_until = start + 1.0 / self.service_rate
        wait = start - now
        starts.append(start)
        self.served += 1
        self.total_wait_s += wait
        if wait > self.max_wait_s:
            self.max_wait_s = wait
        self.total_len_seen += qlen
        return start, wait


@dataclass
class SimNode:
    # The live profile: the election reads it, and history updates replace it.
    profile: UavProfile
    # The cluster's region at the area's altitude band, where waypoints are drawn.
    box: AreaBounds
    queue: NodeQueue
    kin: KinematicState
    # The position the network sees: the true one shifted by any spoofing
    # offset, set once per mobility tick; the transport prices links from it.
    reported: Vec3
    machine: Optional[ConsensusState] = None
    waypoint: Vec3 = ZERO
    # The last (height, view) a proposal was armed for; a node's pair only grows.
    armed: Optional[tuple[int, int]] = None
    sync_pending: bool = False
    # Admitted messages awaiting delivery, in admission order, each as
    # (deliver_at, seq, wire, src, sent_at); only the head is on the event queue.
    inbox: deque = field(default_factory=deque)


# One trace line is its record as compact JSON with sorted keys.  The encoder
# is built once: `json.dumps` with these options builds a new one per call.
# A record is built from numbers, strings, lists and dicts and never holds
# itself, so the encoder keeps no table of the containers it has entered.
_encode_record = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode
# Every record of a fixed shape -- the transport records, nearly all of a
# full trace, and the commit, tx_arrival, proposal and mobility_tick records,
# nearly all of an events-level one -- is written by one format string per
# kind, keyed by kind and field count, with the same bytes: keys in sorted
# order, numbers by %r (for an int and a finite float, what the encoder
# writes) and strings as they are (class names, reason literals, mission
# names and hex digests, none of which needs an escape).
_LINE_FORMATS = {
    (kind, len(keys) + 1): (fmt, itemgetter(*keys))
    for kind, fmt, keys in (
        ("send", '{"dst":%r,"kind":"send","msg":"%s","seq":%r,"src":%r,"t":%r}',
         ("dst", "msg", "seq", "src", "t")),
        ("drop", '{"dst":%r,"kind":"drop","reason":"%s","seq":%r,"src":%r,"t":%r}',
         ("dst", "reason", "seq", "src", "t")),
        ("deliver", '{"dst":%r,"kind":"deliver","latency":%r,"msg":"%s","seq":%r,"src":%r,"t":%r}',
         ("dst", "latency", "msg", "seq", "src", "t")),
        ("commit", '{"hash":"%s","height":%r,"kind":"commit","node":%r,"seq":%r,"t":%r}',
         ("hash", "height", "node", "seq", "t")),
        ("tx_arrival", '{"bits":%r,"kind":"tx_arrival","mission":"%s","origin":%r,"seq":%r,"t":%r,"tx":%r}',
         ("bits", "mission", "origin", "seq", "t", "tx")),
        ("proposal", '{"hash":"%s","height":%r,"kind":"proposal","node":%r,"seq":%r,"t":%r,"txs":%r,"view":%r}',
         ("hash", "height", "node", "seq", "t", "txs", "view")),
        ("mobility_tick", '{"kind":"mobility_tick","seq":%r,"t":%r}', ("seq", "t")),
    )
}


def _encode_line(record: dict[str, Any]) -> str:
    """One trace line: `_encode_record`'s text, by format string where the
    record's kind and field count have one."""
    line = _LINE_FORMATS.get((record["kind"], len(record)))
    if line is None:
        return _encode_record(record)
    fmt, fields = line
    return fmt % fields(record)


# Records per piece of serialized trace: enough to amortize each hash update
# or file write, few enough that the text in hand stays small.
_CHUNK_RECORDS = 512


class EventTrace:
    """Ordered run trace: one JSON-compatible record per event."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        # The text the last hash_hex encoded, one zlib stream per chunk, and
        # how many records it covers; the next jsonl_chunks takes it.
        self._held: Optional[tuple[int, list[bytes]]] = None

    def add(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def _encoded_chunks(self) -> Iterator[bytes]:
        records = self.records
        for i in range(0, len(records), _CHUNK_RECORDS):
            text = "\n".join(map(_encode_line, records[i:i + _CHUNK_RECORDS])) + "\n"
            yield text.encode("utf-8")

    def jsonl_chunks(self) -> Iterator[bytes]:
        """The trace as UTF-8 JSON lines, each ending in a newline, yielded a
        chunk of records at a time.  The trace hash and events.jsonl are both
        these bytes.  The text the last hash_hex encoded is released here,
        and yielded again if no record was added since, so a hash followed
        by a write encodes each record once."""
        held, self._held = self._held, None
        if held is not None and held[0] == len(self.records):
            return map(zlib.decompress, held[1])
        return self._encoded_chunks()

    def hash_hex(self) -> str:
        """SHA-256 of `jsonl_chunks`.  The text is kept, compressed, until
        the next `jsonl_chunks` takes it."""
        h = hashlib.sha256()
        held = []
        for chunk in self._encoded_chunks():
            h.update(chunk)
            held.append(zlib.compress(chunk, 1))
        self._held = (len(self.records), held)
        return h.hexdigest()

    def by_kind(self, kind: str) -> list[dict[str, Any]]:
        return [r for r in self.records if r["kind"] == kind]


@dataclass
class RunResult:
    trace: EventTrace
    counters: dict[str, int]
    chains: dict[NodeId, tuple[Block, ...]]
    queue_stats: dict[NodeId, dict[str, float]]

    def trace_hash(self) -> str:
        """SHA-256 of the trace's JSON lines, taken as they stream by: unlike
        `EventTrace.hash_hex`, it keeps no compressed copy for a later write."""
        h = hashlib.sha256()
        for chunk in self.trace.jsonl_chunks():
            h.update(chunk)
        return h.hexdigest()


# A validator that times out this many times in a row suspects it has fallen
# behind and fetches the committed chain from its peers (state transfer).
SYNC_AFTER_TIMEOUTS = 2
SYNC_DELAY_S = 0.2


class Simulation:
    """One deterministic run of a scenario under a protocol and fault plan."""

    def __init__(
        self,
        scenario: Scenario,
        fault_plan: FaultPlan,
        protocol: ProtocolKind,
        seed: int,
        enforce_tolerance: bool = True,
    ) -> None:
        # Run what the summary will replay: through its documents, an int in
        # a float field runs as a float and a bool is rejected.
        scenario = scenario_from_dict(scenario_to_dict(scenario))
        fault_plan = fault_plan_from_dict(fault_plan_to_dict(fault_plan))
        self.scenario = scenario
        self.plan = fault_plan
        self.protocol = protocol
        self.seed = seed
        self.cfg: ProtocolConfig = scenario.consensus.protocol_config(protocol, seed)

        self.rng_drop = substream(seed, "drop")
        self.rng_net = substream(seed, "net")
        self.rng_attack = substream(seed, "attack")
        self.rng_equiv = substream(seed, "equivocate")

        self.now = 0.0
        self._seq = 0
        self._rec_seq = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self.trace = EventTrace()
        self.full_trace = scenario.trace_detail == "full"

        self.counters: dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "dropped_zero_capacity": 0,
            "dropped_queue_full": 0,
            "junk_injected": 0,
            "invalid_signature": 0,
            "unknown_sender": 0,
            "invalid_block": 0,
            "view_changes": 0,
            "blocks_committed": 0,
            "txs_committed": 0,
        }

        self.nodes: dict[NodeId, SimNode] = {}
        for uav in deploy_fleet(scenario, seed):
            self.nodes[uav.profile.node] = SimNode(
                profile=uav.profile,
                box=uav.box,
                queue=NodeQueue(service_rate=scenario.service.service_rate_msgs_per_s),
                kin=uav.state,
                reported=uav.state.position,
            )
        planned = {*fault_plan.byzantine, *(w.target for w in (*fault_plan.ddos, *fault_plan.spoof))}
        outside = sorted(planned - self.nodes.keys())
        if outside:
            raise ScenarioError(f"attack plan names node(s) outside the fleet: {outside}")

        # An empty fleet still runs (mobility only); consensus needs nodes.
        self.vset: Optional[ValidatorSet] = self._elect() if self.nodes else None
        if enforce_tolerance and self.vset is not None:
            fault_plan.check_tolerance(self.vset.ids, byzantine_tolerance(self.vset.n))

        validators = self.vset.ordered_ids if self.vset else ()
        for node_id in validators:
            self.nodes[node_id].machine = cons.initial_state(node_id, 0.0, self.cfg)

        # Canonical committed prefix: first commit seen per height.  A node
        # commits h+1 only after h and state transfer adds no heights, so the
        # keys run 1..H in insertion order.
        self.first_commit: dict[int, Block] = {}
        # Chain-level block cadence; proposals respect a global floor.
        self.last_proposal_time: float = -math.inf
        self._failed_proposer_logged: set = set()
        self._tx_counter = 0

        self._init_waypoints()
        self._schedule(scenario.mobility.dt, Simulation._on_mobility, ())
        self._generate_workload()
        self._generate_junk()
        for node_id in validators:
            self._arm_timeout(node_id)
        self._schedule_proposer_duty(validators, first=True)

    # -- setup ---------------------------------------------------------------

    def _elect(self) -> ValidatorSet:
        n = self.scenario.consensus.n_validators
        if self.protocol is ProtocolKind.PURE_PBFT:
            n = len(self.nodes)
        profiles = [self.nodes[i].profile for i in sorted(self.nodes)]
        return cons.elect_validators(profiles, self.scenario.consensus.weights, n)

    def _init_waypoints(self) -> None:
        rng = substream(self.seed, "mobility")
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node.waypoint = sample_waypoint(rng, node.box)
        self._mobility_rng = rng

    def _generate_workload(self) -> None:
        rng = substream(self.seed, "workload")
        rate = self.scenario.workload.tx_rate_per_uav
        if rate <= 0:
            return
        bits = self.scenario.workload.payload_bits
        for node_id in sorted(self.nodes):
            t = rng.expovariate(rate)
            while t < self.scenario.duration_s:
                tx = Transaction(tx_id=self._tx_counter, origin=node_id, payload_bits=bits)
                self._tx_counter += 1
                self._schedule(t, Simulation._on_tx, (tx,))
                t += rng.expovariate(rate)

    def _generate_junk(self) -> None:
        for window in self.plan.ddos:
            t = window.start_s + self.rng_attack.expovariate(window.flood_rate_msgs_per_s)
            end = window.start_s + window.duration_s
            while t < min(end, self.scenario.duration_s):
                junk_digest = self.rng_attack.getrandbits(256).to_bytes(32, "big")
                self._schedule(t, Simulation._on_junk, (window.target, junk_digest))
                t += self.rng_attack.expovariate(window.flood_rate_msgs_per_s)

    # -- event plumbing --------------------------------------------------------

    def _schedule(self, time: float, handler: Callable[..., None], data: tuple) -> None:
        """Queue ``handler(self, *data)`` at ``time``; seq is unique, so the
        handler is never compared.  Handlers are class functions: a bound
        method would cost an allocation per event and a reference cycle that
        keeps a finished simulation alive until the next garbage collection."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, data))

    def _record(self, kind: str, **fields: Any) -> None:
        self._rec_seq += 1
        record = {"t": round(self.now, 9), "seq": self._rec_seq, "kind": kind}
        record.update(fields)
        self.trace.add(record)

    # -- transport -------------------------------------------------------------

    def _wire_bits(self, wire: Any) -> int:
        cp = self.scenario.consensus
        if isinstance(wire, TxForward):
            return wire.tx.payload_bits
        body = wire.body
        if isinstance(body, PrePrepare):
            return cp.header_bits + sum(tx.payload_bits for tx in body.block.transactions)
        return cp.vote_bits

    def _send(self, wire: Any, src: NodeId, dsts: list[NodeId], bits: int) -> None:
        """Send one message, ``wire`` of ``bits`` (its `_wire_bits`), from
        ``src`` to each of ``dsts`` in order, and queue its arrivals as one
        event.  Each recipient draws loss, then jitter, and takes its
        sequence number, in ``dsts`` order."""
        self.counters["sent"] += len(dsts)
        full_trace = self.full_trace
        kind = wire.kind() if full_trace else None
        drop_prob = self.plan.drop_prob
        draw_drop = self.rng_drop.random
        max_jitter = self.scenario.extra_delay_jitter_s
        draw_jitter = self.rng_net.uniform
        radio = self.scenario.radio
        nodes = self.nodes
        here = nodes[src].reported
        now = self.now
        seq = self._seq
        arrivals = []
        for dst in dsts:
            if full_trace:
                self._record("send", src=src, dst=dst, msg=kind)
            if drop_prob > 0 and draw_drop() < drop_prob:
                self.counters["dropped"] += 1
                if full_trace:
                    self._record("drop", src=src, dst=dst, reason="loss")
                continue
            distance = here.distance_to(nodes[dst].reported)
            if distance < MIN_LINK_DISTANCE_M:
                distance = MIN_LINK_DISTANCE_M
            cap = link_capacity(radio, distance)
            if cap <= 0.0:
                self.counters["dropped_zero_capacity"] += 1
                if full_trace:
                    self._record("drop", src=src, dst=dst, reason="zero_capacity")
                continue
            # Transmission, then propagation, then jitter: the sum's order.
            t_arr = now + bits / cap + distance / PROPAGATION_SPEED_M_S
            if max_jitter > 0:
                t_arr += draw_jitter(0.0, max_jitter)
            seq += 1
            arrivals.append((t_arr, seq, dst))
        self._seq = seq
        if arrivals:
            # Latest first, so the earliest pops off the end; keys are unique.
            arrivals.sort(reverse=True)
            self._queue_arrivals(wire, src, now, arrivals)

    def _queue_arrivals(self, wire: Any, src: NodeId, sent_at: float, arrivals: list) -> None:
        """Put a message's earliest pending arrival on the event queue, under
        its own key.  ``arrivals`` holds ``(t_arr, seq, dst)``, latest first."""
        t_arr, seq, _dst = arrivals[-1]
        heapq.heappush(self._heap, (t_arr, seq, Simulation._on_arrivals, (wire, src, sent_at, arrivals)))

    def _broadcast(self, sender: NodeId, messages: list[ConsensusMessage]) -> None:
        strategy = self.plan.byzantine.get(sender)
        recipients = [v for v in self.vset.ordered_ids if v != sender]
        for msg in messages:
            for out_msg, targets in self._apply_byzantine(sender, msg, strategy, recipients):
                self._send(out_msg, sender, targets, self._wire_bits(out_msg))

    def _apply_byzantine(
        self,
        sender: NodeId,
        msg: ConsensusMessage,
        strategy: Optional[ByzantineStrategy],
        recipients: list[NodeId],
    ) -> list[tuple[ConsensusMessage, list[NodeId]]]:
        """Mutate one outbound message per the sender's strategy."""
        if strategy is None:
            return [(msg, recipients)]
        if strategy is ByzantineStrategy.SILENT:
            return []
        body = msg.body
        if strategy is ByzantineStrategy.EQUIVOCATE and isinstance(body, (Prepare, Commit)):
            fake_hash = hashlib.sha256(
                body.block_hash + self.rng_equiv.getrandbits(64).to_bytes(8, "big")
            ).digest()
            fake_body = replace(body, block_hash=fake_hash)
            half = len(recipients) // 2
            return [
                (msg, recipients[:half]),
                (signed_message(sender, fake_body), recipients[half:]),
            ]
        if strategy is ByzantineStrategy.INVALID_BLOCK and isinstance(body, PrePrepare):
            block = body.block
            broken = replace(
                block,
                block_hash=bytes(b ^ 0xFF for b in block.block_hash),
            )
            return [(signed_message(sender, PrePrepare(broken)), recipients)]
        return [(msg, recipients)]

    # -- consensus plumbing ------------------------------------------------------

    def _schedule_proposer_duty(self, node_ids: Iterable[NodeId], first: bool = False) -> None:
        """Arm a proposal event for each of ``node_ids`` that leads its own
        (h, v).  Callers pass the nodes whose (h, v) moved, or every validator
        when the set itself changed; no other node's answer can change."""
        for node_id in node_ids:
            node = self.nodes[node_id]
            machine = node.machine
            if machine is None:
                continue
            h, v = machine.height, machine.view
            if node.armed == (h, v):
                continue
            if self.cfg.proposer_for(self.vset, h, v) != node_id:
                continue
            if self.plan.byzantine.get(node_id) is ByzantineStrategy.SILENT:
                continue
            earliest = max(
                self.now,
                self.last_proposal_time + self.scenario.consensus.min_block_interval_s,
            )
            if first:
                earliest = max(earliest, self.scenario.consensus.min_block_interval_s)
            node.armed = (h, v)
            self._schedule(earliest, Simulation._on_proposal, (node_id, h, v))

    def _arm_timeout(self, node_id: NodeId) -> None:
        machine = self.nodes[node_id].machine
        if machine is None:  # node left the validator set mid-absorb
            return
        # An infinite deadline (DPoS) sorts after the end of the run.
        self._schedule(
            machine.timeout_deadline, Simulation._on_timeout, (node_id, machine.timeout_deadline)
        )

    def _absorb_result(self, node_id: NodeId, result: cons.HandleResult) -> None:
        node = self.nodes[node_id]
        old = node.machine
        state = node.machine = result.state
        # Most results only add a vote to a tally: nothing below would act.
        if (
            not (result.committed or result.outbound or result.discarded)
            and state.view == old.view
            and state.timeout_deadline == old.timeout_deadline
        ):
            return
        vset = self.vset
        for name in result.discarded:
            self.counters[name] += 1
        for block in result.committed:
            self._note_commit(node_id, block)
        if state.view != old.view:
            self.counters["view_changes"] += 1
            self._record(
                "view_adopted", node=node_id, height=old.height,
                old_view=old.view, new_view=state.view,
            )
            self._note_failed_proposer(old.height, old.view)
        if state.timeout_deadline != old.timeout_deadline:
            self._arm_timeout(node_id)
        if result.outbound:
            self._broadcast(node_id, result.outbound)
        if self.vset is not vset:  # re-elected, possibly reordering members
            self._schedule_proposer_duty(self.vset.ordered_ids)
        elif result.committed or state.view != old.view:
            self._schedule_proposer_duty((node_id,))

    def _note_commit(self, node_id: NodeId, block: Block) -> None:
        self._record("commit", node=node_id, height=block.height, hash=block.block_hash.hex())
        if block.height not in self.first_commit:
            self.first_commit[block.height] = block
            self.counters["blocks_committed"] += 1
            self.counters["txs_committed"] += len(block.transactions)
            self._record(
                "block",
                height=block.height,
                hash=block.block_hash.hex(),
                proposer=block.proposer,
                view=block.view,
                txs=[tx.tx_id for tx in block.transactions],
            )
            if len(self.first_commit) % self.scenario.consensus.reelect_every_blocks == 0:
                self._reelect()

    def _note_failed_proposer(self, height: int, view: int) -> None:
        key = (height, view)
        if key in self._failed_proposer_logged:
            return
        self._failed_proposer_logged.add(key)
        failed = self.nodes[self.cfg.proposer_for(self.vset, height, view)]
        failed.profile = cons.update_history(failed.profile, 0.0)

    def _reelect(self) -> None:
        """Epoch boundary: refresh history scores and re-run the election."""
        if self.protocol is ProtocolKind.PURE_PBFT:
            return
        proposers = {b.proposer for b in self.first_commit.values()}
        for node_id in self.vset.ids & proposers:
            node = self.nodes[node_id]
            node.profile = cons.update_history(node.profile, 1.0)
        new_set = self._elect()
        if new_set.ids == self.vset.ids:
            self.vset = new_set
            return
        joined = new_set.ids - self.vset.ids
        left = self.vset.ids - new_set.ids
        self.vset = new_set
        self._record(
            "reelection", joined=sorted(joined), left=sorted(left),
            members=list(new_set.ordered_ids),
        )
        chain = self._canonical_chain()
        for node_id in sorted(left):
            self.nodes[node_id].machine = None
        for node_id in sorted(joined):
            self.nodes[node_id].machine = cons.initial_state(node_id, self.now, self.cfg, chain)
            self._arm_timeout(node_id)
        self._schedule_proposer_duty(new_set.ordered_ids)

    def _canonical_chain(self) -> tuple[Block, ...]:
        return (cons.genesis_block(), *self.first_commit.values())

    # -- event handlers -----------------------------------------------------------

    def _on_mobility(self) -> None:
        scn = self.scenario
        mob = scn.mobility
        area = scn.area
        active_spoofs: dict[NodeId, Vec3] = {}
        for window in self.plan.spoof:
            if window.active(self.now):
                prev = active_spoofs.get(window.target, ZERO)
                active_spoofs[window.target] = prev + window.offset
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            kin = node.kin
            accel = steer_to_waypoint(kin, node.waypoint, mob)
            if accel is ZERO:  # arrived: only an arrival returns ZERO itself
                node.waypoint = sample_waypoint(self._mobility_rng, node.box)
                accel = steer_to_waypoint(kin, node.waypoint, mob)
            kin = node.kin = step(kin, accel, mob, area)
            node.reported = apply_spoofing(kin.position, active_spoofs.get(node_id, ZERO))
        self._record("mobility_tick")
        nxt = self.now + mob.dt
        if nxt < scn.duration_s:
            self._schedule(nxt, Simulation._on_mobility, ())

    def _on_tx(self, tx: Transaction) -> None:
        origin = self.nodes[tx.origin]
        self._record(
            "tx_arrival", tx=tx.tx_id, origin=tx.origin,
            mission=origin.profile.mission.value, bits=tx.payload_bits,
        )
        wire = TxForward(tx)
        validators = self.vset.ordered_ids if self.vset else ()
        if origin.machine is not None:  # exactly the validators hold a machine
            origin.machine = origin.machine.add_transactions([tx])
        self._send(wire, tx.origin, [v for v in validators if v != tx.origin], self._wire_bits(wire))

    def _on_arrivals(self, wire: Any, src: NodeId, sent_at: float, arrivals: list) -> None:
        """Admit the head of a message's arrivals at its receiver, then each
        next arrival while it is due before every other event and by the end
        of the run; otherwise put the next one back on the event queue.  Each
        arrival is admitted at the point the event order gives it."""
        heap = self._heap
        nodes = self.nodes
        end = self.scenario.duration_s
        proc_latency = self.scenario.service.proc_latency_s
        while True:
            t_arr, _seq, dst = arrivals.pop()
            self.now = t_arr
            node = nodes[dst]
            admitted = node.queue.admit(t_arr)
            if admitted is None:
                self.counters["dropped_queue_full"] += 1
                if self.full_trace:
                    self._record("drop", src=src, dst=dst, reason="queue_full")
            else:
                # The inbox's keys only grow (service starts never decrease,
                # seq breaks ties), so its head holds its least key.
                self._seq += 1
                deliver_at = admitted[0] + proc_latency
                inbox = node.inbox
                inbox.append((deliver_at, self._seq, wire, src, sent_at))
                if len(inbox) == 1:
                    heapq.heappush(heap, (deliver_at, self._seq, Simulation._on_deliver, (dst,)))
            if not arrivals:
                return
            # Seqs are unique, so tuple order never reaches the third items.
            nxt = arrivals[-1]
            if nxt[0] > end or (heap and heap[0] < nxt):
                # `_queue_arrivals` inlined: this push runs for most arrivals.
                heapq.heappush(heap, (nxt[0], nxt[1], Simulation._on_arrivals, (wire, src, sent_at, arrivals)))
                return

    def _on_deliver(self, dst: NodeId) -> None:
        node = self.nodes[dst]
        inbox = node.inbox
        _deliver_at, _seq, wire, src, sent_at = inbox.popleft()
        if inbox:
            head = inbox[0]
            heapq.heappush(self._heap, (head[0], head[1], Simulation._on_deliver, (dst,)))
        self.counters["delivered"] += 1
        if self.full_trace:
            self._record(
                "deliver", src=src, dst=dst, msg=wire.kind(),
                latency=round(self.now - sent_at, 9),
            )
        machine = node.machine
        if machine is None:
            return
        if isinstance(wire, TxForward):
            node.machine = machine.add_transactions([wire.tx])
            return
        result = cons.handle_message(machine, wire, self.vset, self.now, self.cfg)
        self._absorb_result(dst, result)

    def _on_junk(self, target: NodeId, junk_digest: bytes) -> None:
        self.counters["junk_injected"] += 1
        junk = forged_message(ATTACKER_ID, Prepare(junk_digest, 1, 0))
        self._seq += 1
        self._queue_arrivals(junk, ATTACKER_ID, self.now, [(self.now, self._seq, target)])

    def _on_sync(self, node_id: NodeId) -> None:
        """State transfer: fast-forward a lagging validator to the committed
        chain its peers hold.  The blocks are quorum-certified, so adopting
        them never conflicts with any honest commit."""
        node = self.nodes[node_id]
        node.sync_pending = False
        machine = node.machine
        if machine is None:
            return
        chain = self._canonical_chain()
        if len(chain) <= machine.height:
            return
        fresh = cons.initial_state(node_id, self.now, self.cfg, chain)
        fresh.view = chain[-1].view
        node.machine = fresh.add_transactions(machine.mempool.values())
        self._record(
            "sync", node=node_id, from_height=machine.height, to_height=fresh.height,
        )
        self._arm_timeout(node_id)
        self._schedule_proposer_duty((node_id,))

    def _on_proposal(self, node_id: NodeId, height: int, view: int) -> None:
        node = self.nodes[node_id]
        machine = node.machine
        if machine is None or machine.height != height or machine.view != view:
            return
        if self.cfg.proposer_for(self.vset, height, view) != node_id:
            return
        block = cons.proposal_for_turn(machine, self.cfg)
        self.last_proposal_time = self.now
        self._record(
            "proposal", node=node_id, height=height, view=view,
            hash=block.block_hash.hex(), txs=len(block.transactions),
        )
        msg = signed_message(node_id, PrePrepare(block))
        self._broadcast(node_id, [msg])
        result = cons.handle_message(machine, msg, self.vset, self.now, self.cfg)
        self._absorb_result(node_id, result)

    def _on_timeout(self, node_id: NodeId, deadline: float) -> None:
        node = self.nodes[node_id]
        machine = node.machine
        if machine is None or machine.timeout_deadline != deadline:
            return
        # Fired at its deadline, so on_timeout calls a view change.
        new_state, outbound = cons.on_timeout(machine, self.now, self.cfg)
        node.machine = new_state
        self._record("timeout", node=node_id, height=machine.height, view=machine.view)
        self._broadcast(node_id, outbound)
        # A node's own view-change vote can complete a quorum locally.
        for msg in outbound:
            result = cons.handle_message(node.machine, msg, self.vset, self.now, self.cfg)
            self._absorb_result(node_id, result)
        if (
            node.machine is not None
            and node.machine.timeouts_since_commit >= SYNC_AFTER_TIMEOUTS
            and not node.sync_pending
        ):
            node.sync_pending = True
            self._schedule(self.now + SYNC_DELAY_S, Simulation._on_sync, (node_id,))
        self._arm_timeout(node_id)

    # -- main loop ------------------------------------------------------------------

    def run(self) -> RunResult:
        end = self.scenario.duration_s
        while self._heap:
            time, _seq, handler, data = self._heap[0]
            if time > end:
                break
            heapq.heappop(self._heap)
            self.now = time
            handler(self, *data)
        self.now = end
        self._finalize()
        return RunResult(
            trace=self.trace,
            counters=dict(self.counters),
            chains={
                node_id: node.machine.committed_chain
                for node_id, node in sorted(self.nodes.items())
                if node.machine is not None
            },
            queue_stats=self._queue_stats(),
        )

    def _queue_stats(self) -> dict[NodeId, dict[str, float]]:
        stats = {}
        for node_id in sorted(self.nodes):
            q = self.nodes[node_id].queue
            if q.served == 0:
                continue
            stats[node_id] = {
                "served": q.served,
                "mean_wait_s": q.total_wait_s / q.served,
                "max_wait_s": q.max_wait_s,
                "mean_len_over_rate_s": (q.total_len_seen / q.served) / q.service_rate,
            }
        return stats

    def _finalize(self) -> None:
        # Conservation: the messages still pending arrival or waiting in an
        # inbox are every message sent and not yet delivered or dropped.
        in_flight = sum(len(node.inbox) for node in self.nodes.values()) + sum(
            len(data[3]) for _t, _seq, handler, data in self._heap if handler is Simulation._on_arrivals
        )
        c = self.counters
        unaccounted = (
            c["sent"] + c["junk_injected"] - c["delivered"]
            - c["dropped"] - c["dropped_zero_capacity"] - c["dropped_queue_full"]
        )
        if in_flight != unaccounted:
            raise RuntimeError(
                f"message conservation violated: {in_flight} in flight, but the counters leave {unaccounted}"
            )
        self._record(
            "end",
            counters=dict(self.counters),
            in_flight=in_flight,
            duration_s=self.now,
        )


def run(
    scenario: Scenario,
    fault_plan: FaultPlan,
    protocol: ProtocolKind,
    seed: int,
    enforce_tolerance: bool = True,
) -> RunResult:
    """Run one experiment to the end of the scenario's duration."""
    sim = Simulation(scenario, fault_plan, protocol, seed, enforce_tolerance)
    return sim.run()
