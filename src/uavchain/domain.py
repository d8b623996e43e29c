"""Core ledger and identity types: blocks, transactions, signatures.

All types are immutable values; operations are pure functions, so they are
safe to copy between threads and to replay deterministically.

Canonical block encoding (used by ``hash_block`` and frozen for golden-trace
stability): fixed-width big-endian integers concatenated in field order,

    height      u64
    parent_hash 32 bytes
    proposer    u64
    view        u64
    tx_id       u64, one per transaction, in block order

hashed with SHA-256.  Digests are rendered as lowercase hex in logs and
traces.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Union

NodeId = int

DIGEST_BYTES = 32
ZERO_DIGEST = bytes(DIGEST_BYTES)

# Default message size when a scenario does not override it (bits).
DEFAULT_PAYLOAD_BITS = 2048


@dataclass(frozen=True)
class Transaction:
    tx_id: int
    origin: NodeId
    payload_bits: int = DEFAULT_PAYLOAD_BITS

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError("payload_bits must be positive")


@dataclass(frozen=True)
class Signature:
    """Simulation-grade signature: a (signer, digest, validity) record.

    Real asymmetric crypto is out of scope; ``verify`` is the single
    boundary where it could be swapped in.
    """

    signer: NodeId
    digest: bytes
    valid: bool = True


@dataclass(frozen=True)
class Block:
    height: int
    parent_hash: bytes
    proposer: NodeId
    view: int
    transactions: tuple[Transaction, ...]
    block_hash: bytes
    proposer_signature: Signature

    def tx_ids(self) -> tuple[int, ...]:
        return tuple(tx.tx_id for tx in self.transactions)


def hash_block(
    height: int,
    parent_hash: bytes,
    proposer: NodeId,
    view: int,
    tx_ids: Iterable[int],
) -> bytes:
    """SHA-256 over the canonical big-endian header encoding."""
    if len(parent_hash) != DIGEST_BYTES:
        raise ValueError("parent_hash must be a 256-bit digest")
    h = hashlib.sha256()
    h.update(struct.pack(">Q", height))
    h.update(parent_hash)
    h.update(struct.pack(">Q", proposer))
    h.update(struct.pack(">Q", view))
    for tx_id in tx_ids:
        h.update(struct.pack(">Q", tx_id))
    return h.digest()


def sign(digest: bytes, signer: NodeId) -> Signature:
    return Signature(signer=signer, digest=digest, valid=True)


def verify(sig: Signature, digest: bytes, signer: NodeId) -> bool:
    return sig.valid and sig.digest == digest and sig.signer == signer


def make_block(
    height: int,
    parent_hash: bytes,
    proposer: NodeId,
    view: int,
    transactions: Iterable[Transaction],
) -> Block:
    """Build a hashed, signed block from header fields and transactions."""
    txs = tuple(transactions)
    seen: set[int] = set()
    for tx in txs:
        if tx.tx_id in seen:
            raise ValueError(f"duplicate tx_id {tx.tx_id} in block")
        seen.add(tx.tx_id)
    digest = hash_block(height, parent_hash, proposer, view, (t.tx_id for t in txs))
    return Block(
        height=height,
        parent_hash=parent_hash,
        proposer=proposer,
        view=view,
        transactions=txs,
        block_hash=digest,
        proposer_signature=sign(digest, proposer),
    )


@cache
def genesis_block() -> Block:
    """Shared height-0 block, built once: all-zero parent, no transactions,
    proposer 0.  Every validator's chain starts with it."""
    return make_block(0, ZERO_DIGEST, 0, 0, ())


def block_is_valid(block: Block, expected_parent: bytes, expected_height: int) -> bool:
    """True iff the block extends the tip, hashes to its digest and carries its
    proposer's signature.  The tip checks come first, so a parent hash of the
    wrong length is rejected before ``hash_block`` could raise on it."""
    return (
        block.parent_hash == expected_parent
        and block.height == expected_height
        and block.block_hash
        == hash_block(block.height, block.parent_hash, block.proposer, block.view, block.tx_ids())
        and verify(block.proposer_signature, block.block_hash, block.proposer)
    )


# --- consensus message wire format ------------------------------------------


@dataclass(frozen=True)
class PrePrepare:
    block: Block


@dataclass(frozen=True)
class Prepare:
    block_hash: bytes
    height: int
    view: int


@dataclass(frozen=True)
class Commit:
    block_hash: bytes
    height: int
    view: int


@dataclass(frozen=True)
class ViewChange:
    new_view: int
    height: int


MessageBody = Union[PrePrepare, Prepare, Commit, ViewChange]

_BODY_TAGS = {PrePrepare: 0, Prepare: 1, Commit: 2, ViewChange: 3}


def message_digest(body: MessageBody) -> bytes:
    """Canonical digest of a message body, the thing a sender signs."""
    h = hashlib.sha256()
    h.update(struct.pack(">B", _BODY_TAGS[type(body)]))
    if isinstance(body, PrePrepare):
        h.update(body.block.block_hash)
        h.update(struct.pack(">QQ", body.block.height, body.block.view))
    elif isinstance(body, (Prepare, Commit)):
        h.update(body.block_hash)
        h.update(struct.pack(">QQ", body.height, body.view))
    else:
        h.update(struct.pack(">QQ", body.new_view, body.height))
    return h.digest()


@dataclass(frozen=True)
class ConsensusMessage:
    sender: NodeId
    body: MessageBody
    signature: Signature

    def kind(self) -> str:
        return type(self.body).__name__

    def verifies(self) -> bool:
        return self._verified

    @cached_property
    def _verified(self) -> bool:
        # Memoized per object: a broadcast hands one message to every
        # recipient, and a rebuilt message (``replace``) is checked afresh.
        return verify(self.signature, message_digest(self.body), self.sender)


def signed_message(sender: NodeId, body: MessageBody) -> ConsensusMessage:
    return ConsensusMessage(sender=sender, body=body, signature=sign(message_digest(body), sender))


def forged_message(claimed_sender: NodeId, body: MessageBody) -> ConsensusMessage:
    """A message whose signature never verifies (byzantine/junk traffic)."""
    return ConsensusMessage(
        sender=claimed_sender,
        body=body,
        signature=Signature(signer=claimed_sender, digest=message_digest(body), valid=False),
    )
