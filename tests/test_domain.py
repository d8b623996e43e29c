from dataclasses import replace

import pytest

from uavchain.domain import (
    Commit,
    Prepare,
    PrePrepare,
    Signature,
    Transaction,
    ViewChange,
    ZERO_DIGEST,
    block_is_valid,
    forged_message,
    genesis_block,
    hash_block,
    make_block,
    message_digest,
    sign,
    signed_message,
    verify,
)

# Recorded once from an independent first-principles encoding of the header
# (u64 BE fields, 32-byte parent, u64 BE tx ids) fed to SHA-256.
GOLDEN_BLOCK_HASH = "c032e7f326db00287d966ad62ad5a4ad5906812916073b1eb133a176202456d7"


def _tx(tx_id, origin=0):
    return Transaction(tx_id=tx_id, origin=origin)


class TestHashBlock:
    def test_deterministic(self):
        a = hash_block(5, ZERO_DIGEST, 1, 0, (1, 2, 3))
        b = hash_block(5, ZERO_DIGEST, 1, 0, (1, 2, 3))
        assert a == b

    def test_distinct_heights_distinct_digests(self):
        assert hash_block(0, ZERO_DIGEST, 1, 0, ()) != hash_block(1, ZERO_DIGEST, 1, 0, ())

    def test_golden_reference_block(self):
        digest = hash_block(3, ZERO_DIGEST, 7, 1, (11, 22, 33))
        assert digest.hex() == GOLDEN_BLOCK_HASH

    def test_tx_order_matters(self):
        assert hash_block(1, ZERO_DIGEST, 0, 0, (1, 2)) != hash_block(1, ZERO_DIGEST, 0, 0, (2, 1))

    def test_rejects_short_parent(self):
        with pytest.raises(ValueError):
            hash_block(0, b"\x00" * 31, 0, 0, ())


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        digest = hash_block(0, ZERO_DIGEST, 0, 0, ())
        sig = sign(digest, 4)
        assert verify(sig, digest, 4)

    def test_wrong_digest_fails(self):
        digest = hash_block(0, ZERO_DIGEST, 0, 0, ())
        other = hash_block(1, ZERO_DIGEST, 0, 0, ())
        assert not verify(sign(digest, 4), other, 4)

    def test_wrong_signer_fails(self):
        digest = hash_block(0, ZERO_DIGEST, 0, 0, ())
        assert not verify(sign(digest, 4), digest, 5)

    def test_forged_flag_fails(self):
        digest = hash_block(0, ZERO_DIGEST, 0, 0, ())
        forged = Signature(signer=4, digest=digest, valid=False)
        assert not verify(forged, digest, 4)


class TestValidateBlock:
    """Each invalid block below carries exactly one defect."""

    def test_well_formed_block_ok(self):
        genesis = genesis_block()
        block = make_block(1, genesis.block_hash, 2, 0, (_tx(9),))
        assert block_is_valid(block, genesis.block_hash, 1)

    def test_wrong_parent(self):
        genesis = genesis_block()
        block = make_block(2, genesis.block_hash, 2, 0, ())
        assert not block_is_valid(block, hash_block(1, genesis.block_hash, 2, 0, ()), 2)

    def test_wrong_height(self):
        genesis = genesis_block()
        block = make_block(2, genesis.block_hash, 2, 0, ())
        assert not block_is_valid(block, genesis.block_hash, 3)

    def test_tampered_hash(self):
        genesis = genesis_block()
        block = make_block(1, genesis.block_hash, 2, 0, ())
        fake = bytes(b ^ 0xFF for b in block.block_hash)
        # Re-signed, so only the hash recomputation can reject it.
        broken = replace(block, block_hash=fake, proposer_signature=sign(fake, 2))
        assert not block_is_valid(broken, genesis.block_hash, 1)

    def test_cleared_signature_flag(self):
        genesis = genesis_block()
        block = make_block(1, genesis.block_hash, 2, 0, ())
        broken = replace(
            block,
            proposer_signature=Signature(signer=2, digest=block.block_hash, valid=False),
        )
        assert not block_is_valid(broken, genesis.block_hash, 1)

    def test_short_parent_is_invalid_not_an_error(self):
        genesis = genesis_block()
        block = make_block(1, genesis.block_hash, 2, 0, ())
        assert not block_is_valid(replace(block, parent_hash=bytes(31)), genesis.block_hash, 1)

    def test_duplicate_tx_rejected_at_build(self):
        genesis = genesis_block()
        with pytest.raises(ValueError):
            make_block(1, genesis.block_hash, 2, 0, (_tx(1), _tx(1)))


class TestChainIntegrity:
    def test_parent_links(self):
        chain = [genesis_block()]
        for h in range(1, 6):
            chain.append(make_block(h, chain[-1].block_hash, h % 3, 0, (_tx(h),)))
        for h in range(1, 6):
            assert chain[h].parent_hash == chain[h - 1].block_hash
            assert block_is_valid(chain[h], chain[h - 1].block_hash, h)

    def test_genesis_shape(self):
        genesis = genesis_block()
        assert genesis.height == 0
        assert genesis.parent_hash == ZERO_DIGEST
        assert genesis.transactions == ()


class TestMessages:
    def test_signed_message_verifies(self):
        msg = signed_message(3, Prepare(ZERO_DIGEST, 1, 0))
        assert msg.verifies()

    def test_forged_message_fails(self):
        msg = forged_message(3, Prepare(ZERO_DIGEST, 1, 0))
        assert not msg.verifies()

    @pytest.mark.parametrize("forged_first", [False, True])
    def test_verification_is_memoized_per_message_object(self, forged_first):
        body = Prepare(ZERO_DIGEST, 1, 0)
        good, bad = signed_message(3, body), forged_message(3, body)
        if forged_first:
            assert not bad.verifies()
        assert good.verifies()
        assert not bad.verifies()
        assert good.verifies()
        assert not replace(good, sender=4).verifies()

    def test_digests_distinguish_bodies(self):
        prepare = message_digest(Prepare(ZERO_DIGEST, 1, 0))
        commit = message_digest(Commit(ZERO_DIGEST, 1, 0))
        vc = message_digest(ViewChange(1, 0))
        pp = message_digest(PrePrepare(genesis_block()))
        assert len({prepare, commit, vc, pp}) == 4

    def test_transaction_validation(self):
        with pytest.raises(ValueError):
            Transaction(tx_id=1, origin=0, payload_bits=0)
