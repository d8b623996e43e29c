"""Validator election and the DPoS-PBFT replicated state machine.

Election scores each UAV by a weighted sum of normalized stake, fuel,
capability, and history; the top n form the validator set.  Block proposers
rotate round-robin or are drawn stake-weighted from a seeded stream shared
by every node, so all honest nodes agree on the schedule without extra
messages.

The block agreement machine runs the three-phase flow (pre-prepare /
prepare / commit, each phase advancing on a strict two-thirds quorum of
distinct senders) with view changes on timeout.  Two standard guards make
the three phases safe across view changes:

* a node that has seen a prepare quorum for a block locks on it, and in
  later views of the same height will only prepare-vote that block (the
  lock is released only by a prepare quorum for another block in a newer
  view, which quorum intersection makes impossible once any honest node has
  committed);
* a commit quorum observed for a stored block commits it immediately,
  whatever phase or view the node is in, so nodes left behind by a view
  change still converge on the committed block.

Every transition, whether a message (``handle_message``) or a timeout
(``on_timeout``), is a pure function of its inputs and returns one
``HandleResult``: a new state (or, where nothing moves, its input) and the
messages to broadcast, blocks committed and messages discarded.  No
transition mutates its input state.  Each vote tally is a bitmask over
node ids (bit i set once node i has voted for its key), so a vote costs the
same at any committee size, and since a tally counts distinct senders the
final state is independent of message arrival order.

Two baseline protocols share the machine: pure-DPoS commits on the
proposer's block plus a simple majority of acknowledgments in a single
round (no view change), and pure-PBFT is the same three-phase flow with
every fleet node as a validator and the primary fixed by view number.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Iterable, NamedTuple, Optional, Sequence

from .domain import (
    Block,
    Commit,
    ConsensusMessage,
    NodeId,
    Prepare,
    PrePrepare,
    Transaction,
    ViewChange,
    block_is_valid,
    genesis_block,
    make_block,
    signed_message,
)


class TooFewNodes(ValueError):
    pass


class ZeroTotalStake(ValueError):
    """Total stake of the validator set is zero; no silent uniform fallback."""


class Mission(Enum):
    CONNECTIVITY = "connectivity"
    DELIVERY = "delivery"
    RESCUE = "rescue"
    ASSESSMENT = "assessment"


class ProtocolKind(Enum):
    HYBRID = "hybrid"
    PURE_DPOS = "dpos"
    PURE_PBFT = "pbft"


class ProposerPolicy(Enum):
    ROUND_ROBIN = "round_robin"
    STAKE_WEIGHTED = "stake_weighted"


@dataclass(frozen=True)
class UavProfile:
    node: NodeId
    stake: float
    fuel: float
    capability: float
    history: float
    mission: Mission

    def __post_init__(self) -> None:
        if self.stake < 0:
            raise ValueError("stake must be >= 0")
        for name in ("fuel", "capability", "history"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ScoreWeights:
    """Election weights, normalized to sum to 1 at construction."""

    w1: float = 0.25
    w2: float = 0.25
    w3: float = 0.25
    w4: float = 0.25

    def __post_init__(self) -> None:
        # Normalizing turns a bool into a float before a run's document
        # round trip could see it.
        vals = (self.w1, self.w2, self.w3, self.w4)
        if any(isinstance(w, bool) or not 0 <= w for w in vals):
            raise ValueError("weights must be numbers >= 0, not bools")
        total = sum(vals)
        # A sum that overflows would normalize every weight to zero.
        if not 0 < total < math.inf:
            raise ValueError("weights must have a positive, finite sum")
        if abs(total - 1.0) > 1e-12:
            object.__setattr__(self, "w1", self.w1 / total)
            object.__setattr__(self, "w2", self.w2 / total)
            object.__setattr__(self, "w3", self.w3 / total)
            object.__setattr__(self, "w4", self.w4 / total)


@dataclass(frozen=True)
class ValidatorInfo:
    node: NodeId
    score: float
    stake: float


@dataclass(frozen=True)
class ValidatorSet:
    """Elected members ordered by descending score, ties by ascending id."""

    members: tuple[ValidatorInfo, ...]
    # Stake-weighted proposer draws by (seed, height, view); a set lasts one epoch.
    draws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise ValueError("validator set must be non-empty")
        # A member's id is its bit in every vote tally.
        lowest = min(m.node for m in self.members)
        if lowest < 0:
            raise ValueError(f"member id {lowest} is negative; ids must be >= 0")
        order = [(-m.score, m.node) for m in self.members]
        if order != sorted(order):
            raise ValueError("members must be sorted by score desc, node asc")

    @property
    def n(self) -> int:
        return len(self.members)

    @cached_property
    def ids(self) -> frozenset[NodeId]:
        return frozenset(m.node for m in self.members)

    @cached_property
    def ordered_ids(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self.ids))

    def member_nodes(self) -> tuple[NodeId, ...]:
        return tuple(m.node for m in self.members)


def validator_score(profile: UavProfile, weights: ScoreWeights) -> float:
    """Weighted sum of the four normalized metrics (stake pre-normalized)."""
    return (
        weights.w1 * profile.stake
        + weights.w2 * profile.fuel
        + weights.w3 * profile.capability
        + weights.w4 * profile.history
    )


def elect_validators(
    profiles: Sequence[UavProfile], weights: ScoreWeights, n: int
) -> ValidatorSet:
    """Top-n profiles by score; stakes max-normalized across the fleet first."""
    if n < 4:
        raise TooFewNodes("validator set needs n >= 4 for byzantine tolerance")
    if len(profiles) < n:
        raise TooFewNodes(f"need at least {n} profiles, got {len(profiles)}")
    max_stake = max(p.stake for p in profiles)
    scored = []
    for p in profiles:
        normalized = replace(p, stake=(p.stake / max_stake if max_stake > 0 else 0.0))
        scored.append((validator_score(normalized, weights), p))
    scored.sort(key=lambda item: (-item[0], item[1].node))
    members = tuple(
        ValidatorInfo(node=p.node, score=s, stake=p.stake) for s, p in scored[:n]
    )
    return ValidatorSet(members=members)


def proposer_distribution(vset: ValidatorSet) -> dict[NodeId, float]:
    """Stake share of each member; raises if the set holds no stake at all."""
    total = sum(m.stake for m in vset.members)
    if total <= 0:
        raise ZeroTotalStake("validator set has zero total stake")
    return {m.node: m.stake / total for m in vset.members}


def select_proposer(vset: ValidatorSet, rng: random.Random) -> NodeId:
    """A stake-weighted draw of the proposer from a seeded stream."""
    dist = proposer_distribution(vset)
    u = rng.random()
    acc = 0.0
    for member in vset.members:
        acc += dist[member.node]
        if u < acc:
            return member.node
    return vset.members[-1].node


def quorum_threshold(n: int) -> int:
    """Smallest vote count strictly greater than two thirds of n."""
    return (2 * n) // 3 + 1


def majority_threshold(n: int) -> int:
    return n // 2 + 1


def byzantine_tolerance(n: int) -> int:
    return (n - 1) // 3


def update_history(profile: UavProfile, outcome: float) -> UavProfile:
    """Exponential moving average of per-epoch behavior (1 good, 0 bad)."""
    return replace(profile, history=0.9 * profile.history + 0.1 * outcome)


def derive_seed(master_seed: int, label: str) -> int:
    """Independent, platform-stable substream seed for (master, label)."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def substream(master_seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(master_seed, label))


@dataclass(frozen=True)
class ProtocolConfig:
    """Fixed per-run protocol parameters shared by every node."""

    kind: ProtocolKind = ProtocolKind.HYBRID
    policy: ProposerPolicy = ProposerPolicy.STAKE_WEIGHTED
    timeout_s: float = 0.5
    timeout_backoff: float = 2.0
    max_txs_per_block: int = 16
    seed: int = 0

    def proposer_for(self, vset: ValidatorSet, height: int, view: int) -> NodeId:
        """The shared proposer schedule; a pure function of its arguments, so
        all nodes agree on it without communicating."""
        if self.kind is ProtocolKind.PURE_PBFT:
            return vset.members[view % vset.n].node
        if self.kind is ProtocolKind.PURE_DPOS:
            return vset.members[height % vset.n].node
        if self.policy is ProposerPolicy.ROUND_ROBIN:
            return vset.members[(height + view) % vset.n].node
        key = (self.seed, height, view)
        if key not in vset.draws:
            rng = substream(self.seed, f"proposer:{height}:{view}")
            vset.draws[key] = select_proposer(vset, rng)
        return vset.draws[key]

    def deadline(self, now: float, timeouts: int) -> float:
        """When a node stalled at its height calls a view change, given the
        view changes it has called since its last commit.  Each one that
        fails multiplies the wait by ``timeout_backoff`` (Castro & Liskov's
        doubling); DPoS has no view change, so its deadline never arrives."""
        if self.kind is ProtocolKind.PURE_DPOS:
            return math.inf
        return now + self.timeout_s * self.timeout_backoff ** timeouts

    def commit_quorum(self, n: int) -> int:
        if self.kind is ProtocolKind.PURE_DPOS:
            return majority_threshold(n)
        return quorum_threshold(n)


# Buffered future-height messages beyond this window are discarded.
FUTURE_WINDOW = 16

VoteKey = tuple[bytes, int]  # (block_hash, view)
# A vote tally: bit i is set once node i has voted (``mask >> i & 1``); its
# size is ``mask.bit_count()``.
Tally = int
# A node's pending txs, each tx id mapped to its transaction in arrival order:
# the values are the FIFO queue, the keys the dedupe set.  The pool is
# node-local, not agreed state; the simulator keeps one per validator.
Pool = dict[int, Transaction]


@dataclass
class ConsensusState:
    """One node's replicated-state-machine view.

    Container fields hold immutable values (tuples / frozensets / ints /
    Blocks); each vote tally is an int bitmask over node ids (``Tally``).
    No transition writes into a container: each rebinds the field to a new
    one (``{**table, key: value}``, ``chain + (block,)``).  So states may
    share containers, ``copy()`` is a shallow copy, and past states stay
    valid.  ``{**d, k: v}`` keeps an existing key in place, as ``d[k] = v``
    does, so every table iterates in the same order either way.

    A node records each vote it casts (prepare, commit or view change) in
    its own tally as it casts it, and that entry is the one record that it
    has voted: it casts no second prepare vote in a view, and no second
    commit or view-change vote for a key whose tally holds its bit.  This
    needs no node to be handed its own votes, which the simulator keeps:
    the proposer's PrePrepare is the one message of its own a node is
    handed.

    ``committed_ids`` is always the set of tx ids in ``committed_chain``, so
    a membership test costs the same however long the chain grows.  Build a
    state at a given chain with ``initial_state``, which fills both.

    ``settled`` is the validator set under which ``_advance`` last ran this
    state to its fixpoint, or None; a state runs under one
    ``ProtocolConfig``.  While it ``is`` the caller's set, a Prepare or
    Commit enables a transition only if it brings its tally to exactly
    ``commit_quorum``, the one threshold any prepare or commit transition
    reads.  Below it nothing fires.  Above it, the fixpoint has already
    locked, commit-voted or committed every stored block whose tally
    reached quorum, a vote adds at most one, and a block stored later
    arrives in a PrePrepare, which always runs ``_advance``.  So
    ``handle_message`` records any other vote and skips ``_advance``.
    Invariant: any write to a state outside a transition must clear
    ``settled``, as ``on_timeout`` does; a state fresh from
    ``initial_state`` has none.
    """

    node: NodeId
    height: int
    committed_chain: tuple[Block, ...]
    committed_ids: frozenset[int]
    view: int = 0

    # Current-height stores.
    blocks: dict[bytes, Block] = field(default_factory=dict)
    proposals: dict[NodeId, tuple[bytes, ...]] = field(default_factory=dict)
    prepare_votes: dict[VoteKey, Tally] = field(default_factory=dict)
    commit_votes: dict[VoteKey, Tally] = field(default_factory=dict)
    view_change_votes: dict[int, Tally] = field(default_factory=dict)

    locked_hash: Optional[bytes] = None
    locked_view: int = -1

    # Messages for heights we have not reached yet.
    future: dict[int, tuple[ConsensusMessage, ...]] = field(default_factory=dict)

    timeout_deadline: float = 0.0
    timeouts_since_commit: int = 0

    settled: Optional[ValidatorSet] = field(default=None, compare=False, repr=False)

    def copy(self) -> "ConsensusState":
        c = ConsensusState.__new__(ConsensusState)
        c.__dict__ = self.__dict__.copy()
        return c

    @property
    def tip(self) -> Block:
        return self.committed_chain[-1]

    def locked_block(self) -> Optional[Block]:
        if self.locked_hash is None:
            return None
        return self.blocks.get(self.locked_hash)

    def add_transactions(self, pool: Pool, txs: Iterable[Transaction]) -> None:
        """Admit to ``pool`` each of ``txs`` neither pending nor committed here."""
        committed = self.committed_ids
        for tx in txs:
            if tx.tx_id not in pool and tx.tx_id not in committed:
                pool[tx.tx_id] = tx


def initial_state(
    node: NodeId, now: float, cfg: ProtocolConfig, chain: tuple[Block, ...] = (genesis_block(),)
) -> ConsensusState:
    """A fresh state at the tip of ``chain``, in the tip block's view: genesis
    unless a node joins or catches up on a chain already committed."""
    return ConsensusState(
        node=node,
        height=len(chain),
        committed_chain=chain,
        committed_ids=frozenset(tx.tx_id for b in chain for tx in b.transactions),
        view=chain[-1].view,
        timeout_deadline=cfg.deadline(now, 0),
    )


class HandleResult(NamedTuple):
    """What every transition returns, a delivered message or a timeout."""

    state: ConsensusState
    outbound: list[ConsensusMessage]
    committed: list[Block]
    # One counter name per message the call discarded: "invalid_signature",
    # "unknown_sender" or "invalid_block".  The caller keeps the counts.
    discarded: list[str]


def create_block(state: ConsensusState, pool: Pool, max_txs: int) -> Block:
    """Fresh block at the node's next height: FIFO prefix of ``pool``, hashed,
    signed by this node.  An empty pool yields a valid heartbeat block."""
    txs = islice(pool.values(), max_txs)
    return make_block(state.height, state.tip.block_hash, state.node, state.view, txs)


def proposal_for_turn(state: ConsensusState, pool: Pool, cfg: ProtocolConfig) -> Block:
    """The block this node should broadcast as proposer for (height, view):
    its locked block verbatim if it holds one, else a fresh one from ``pool``."""
    locked = state.locked_block()
    if locked is not None:
        return locked
    return create_block(state, pool, cfg.max_txs_per_block)


def _add_vote(table: dict, key, sender: NodeId) -> dict:
    """``table`` with ``sender``'s bit set in the tally for ``key`` (the table
    itself if it is set already)."""
    existing = table.get(key, 0)
    bit = 1 << sender
    if existing & bit:
        return table
    return {**table, key: existing | bit}


def _ingest_vote(r: ConsensusState, body: Prepare | Commit, sender: NodeId) -> int:
    """Record a current-height Prepare or Commit in its tally; returns the
    tally's size, or 0 for a vote below the node's view, which is dropped."""
    if body.view < r.view:
        return 0
    key = (body.block_hash, body.view)
    if type(body) is Prepare:
        votes = r.prepare_votes = _add_vote(r.prepare_votes, key, sender)
    else:
        votes = r.commit_votes = _add_vote(r.commit_votes, key, sender)
    return votes[key].bit_count()


def handle_message(
    state: ConsensusState,
    msg: ConsensusMessage,
    vset: ValidatorSet,
    now: float,
    cfg: ProtocolConfig,
) -> HandleResult:
    """Apply one message; returns (new state, outbound messages, commits,
    discards).

    ``discarded`` names the counter of each message the call throws away:
    one that fails signature verification or comes from outside the
    validator set (the call then returns the input state itself), and each
    pre-prepare, current or replayed from the future buffer, whose block
    does not extend the node's tip.  Stale (lower height or view) and
    duplicate messages leave the protocol state unchanged; a message below
    the node's height returns the input state itself.
    """
    if not msg.verifies():
        return HandleResult(state, [], [], ["invalid_signature"])
    if msg.sender not in vset.ids:
        return HandleResult(state, [], [], ["unknown_sender"])

    body = msg.body
    kind = type(body)
    h = body.block.height if kind is PrePrepare else body.height
    if h < state.height:
        return HandleResult(state, [], [], [])
    res = HandleResult(state.copy(), [], [], [])
    r = res.state
    if h > r.height:
        if h - r.height <= FUTURE_WINDOW:
            r.future = {**r.future, h: r.future.get(h, ()) + (msg,)}
        return res

    if kind is Prepare or kind is Commit:
        tally = _ingest_vote(r, body, msg.sender)
        # In a settled state only a vote that brings its tally to exactly
        # ``commit_quorum`` can enable a transition (see
        # ``ConsensusState.settled``).
        if r.settled is vset and tally != cfg.commit_quorum(vset.n):
            return res
    else:
        _ingest(res, msg)
    _advance(res, vset, cfg, now)
    r.settled = vset
    return res


def _ingest(res: HandleResult, msg: ConsensusMessage) -> None:
    """Record a current-height message into the state's tallies and stores."""
    r = res.state
    body = msg.body
    if isinstance(body, PrePrepare):
        block = body.block
        if not block_is_valid(block, r.tip.block_hash, r.height):
            res.discarded.append("invalid_block")
            return
        # Proposals are attributed to the broadcasting sender: a new proposer
        # may relay a locked block verbatim, so block.proposer (its original
        # creator, authenticated by the embedded signature) can differ.
        if block.block_hash not in r.blocks:
            r.blocks = {**r.blocks, block.block_hash: block}
        attributed = r.proposals.get(msg.sender, ())
        if block.block_hash not in attributed:
            r.proposals = {**r.proposals, msg.sender: attributed + (block.block_hash,)}
    elif isinstance(body, (Prepare, Commit)):
        _ingest_vote(r, body, msg.sender)
    elif isinstance(body, ViewChange):
        if body.new_view > r.view:
            r.view_change_votes = _add_vote(r.view_change_votes, body.new_view, msg.sender)


def _candidate_hash(r: ConsensusState, vset: ValidatorSet, cfg: ProtocolConfig) -> Optional[bytes]:
    """The proposal hash this node may prepare-vote in its current view."""
    proposer = cfg.proposer_for(vset, r.height, r.view)
    candidates = [
        digest
        for digest in r.proposals.get(proposer, ())
        if r.blocks[digest].view <= r.view
    ]
    if not candidates:
        return None
    if r.locked_hash is not None:
        return r.locked_hash if r.locked_hash in candidates else None
    # An equivocating proposer may have sent several; take the first seen.
    return candidates[0]


def _apply_commit(res: HandleResult, block: Block, now: float, cfg: ProtocolConfig) -> None:
    r = res.state
    res.committed.append(block)
    r.committed_chain = r.committed_chain + (block,)
    r.height += 1
    r.committed_ids = r.committed_ids | {tx.tx_id for tx in block.transactions}
    r.blocks = {}
    r.proposals = {}
    r.prepare_votes = {}
    r.commit_votes = {}
    r.view_change_votes = {}
    r.locked_hash = None
    r.locked_view = -1
    r.timeouts_since_commit = 0
    r.timeout_deadline = cfg.deadline(now, 0)
    # Replay anything buffered for the height we just reached.
    replay = r.future.get(r.height, ())
    r.future = {h: msgs for h, msgs in r.future.items() if h > r.height}
    for buffered in replay:
        _ingest(res, buffered)


def _prepare_vote(res: HandleResult, vset: ValidatorSet, cfg: ProtocolConfig) -> bool:
    """Cast this node's one prepare vote for its current view, if it holds a
    proposal it may vote for."""
    r = res.state
    for (_digest, view), senders in r.prepare_votes.items():
        if view == r.view and senders >> r.node & 1:
            return False
    digest = _candidate_hash(r, vset, cfg)
    if digest is None:
        return False
    r.prepare_votes = _add_vote(r.prepare_votes, (digest, r.view), r.node)
    res.outbound.append(signed_message(r.node, Prepare(digest, r.height, r.view)))
    return True


def _commit_on_quorum(
    res: HandleResult, votes: dict[VoteKey, Tally], quorum: int,
    now: float, cfg: ProtocolConfig,
) -> bool:
    """Commit the first stored block whose tally in ``votes`` reaches quorum."""
    r = res.state
    for (block_hash, _view), senders in votes.items():
        if senders.bit_count() >= quorum and block_hash in r.blocks:
            _apply_commit(res, r.blocks[block_hash], now, cfg)
            return True
    return False


def _advance(res: HandleResult, vset: ValidatorSet, cfg: ProtocolConfig, now: float) -> None:
    """Run every enabled transition to a fixpoint.

    Transitions fire off the tally state alone, so replaying the same
    message multiset in any order reaches the same fixpoint.
    """
    r, outbound = res.state, res.outbound
    n = vset.n
    quorum = cfg.commit_quorum(n)
    changed = True
    while changed:
        changed = False

        if cfg.kind is ProtocolKind.PURE_DPOS:
            # Single acknowledgment round: proposer's block commits on a
            # simple majority of distinct acks.
            voted = _prepare_vote(res, vset, cfg)
            acked = _commit_on_quorum(res, r.prepare_votes, quorum, now, cfg)
            changed = voted or acked
            continue

        # Commit certificate: a commit quorum for a stored block wins
        # outright, whatever view this node is in.
        if _commit_on_quorum(res, r.commit_votes, quorum, now, cfg):
            changed = True
            continue

        if _prepare_vote(res, vset, cfg):
            changed = True

        # Prepare quorum: lock on the block and commit-vote it.
        for (block_hash, view), senders in r.prepare_votes.items():
            if senders.bit_count() < quorum or block_hash not in r.blocks:
                continue
            if view > r.locked_view:
                r.locked_hash = block_hash
                r.locked_view = view
                changed = True
            key = (block_hash, view)
            if not r.commit_votes.get(key, 0) >> r.node & 1:
                r.commit_votes = _add_vote(r.commit_votes, key, r.node)
                outbound.append(
                    signed_message(r.node, Commit(block_hash, r.height, view))
                )
                changed = True

        # Join a view change once enough peers call for it; adopt on quorum.
        join_threshold = byzantine_tolerance(n) + 1
        for new_view, senders in sorted(r.view_change_votes.items()):
            if new_view <= r.view:
                continue
            if senders.bit_count() >= join_threshold and not senders >> r.node & 1:
                r.view_change_votes = _add_vote(r.view_change_votes, new_view, r.node)
                senders = r.view_change_votes[new_view]
                outbound.append(
                    signed_message(r.node, ViewChange(new_view, r.height))
                )
                changed = True
            if senders.bit_count() >= quorum:
                r.view = new_view
                r.timeout_deadline = cfg.deadline(now, r.timeouts_since_commit)
                changed = True
                break


def on_timeout(state: ConsensusState, now: float, cfg: ProtocolConfig) -> HandleResult:
    """Stalled at the current height past the deadline: call a view change.

    Re-fires re-send the same target view (receivers deduplicate); the
    deadline backs off exponentially until a commit resets it.  Before the
    deadline the result holds the input state itself and nothing else.
    """
    if now < state.timeout_deadline:
        return HandleResult(state, [], [], [])
    r = state.copy()
    r.settled = None
    target = r.view + 1
    r.timeouts_since_commit += 1
    r.timeout_deadline = cfg.deadline(now, r.timeouts_since_commit)
    r.view_change_votes = _add_vote(r.view_change_votes, target, r.node)
    return HandleResult(r, [signed_message(r.node, ViewChange(target, r.height))], [], [])
