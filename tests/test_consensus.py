import itertools
import math
import random
from dataclasses import replace

import pytest

from uavchain import consensus
from uavchain.consensus import (
    Mission,
    ProposerPolicy,
    ProtocolConfig,
    ProtocolKind,
    ScoreWeights,
    TooFewNodes,
    UavProfile,
    ValidatorInfo,
    ValidatorSet,
    ZeroTotalStake,
    byzantine_tolerance,
    create_block,
    elect_validators,
    handle_message,
    initial_state,
    on_timeout,
    proposal_for_turn,
    proposer_distribution,
    quorum_threshold,
    select_proposer,
    substream,
    update_history,
    validator_score,
)
from uavchain.domain import (
    Commit,
    Prepare,
    PrePrepare,
    Transaction,
    ViewChange,
    forged_message,
    genesis_block,
    make_block,
    signed_message,
)


def profile(node, stake=1.0, fuel=0.8, cap=0.8, hist=0.8, mission=Mission.CONNECTIVITY):
    return UavProfile(node=node, stake=stake, fuel=fuel, capability=cap, history=hist, mission=mission)


def vset_of(n, stakes=None):
    stakes = stakes or [1.0] * n
    members = tuple(ValidatorInfo(node=i, score=1.0 - i * 1e-3, stake=stakes[i]) for i in range(n))
    return ValidatorSet(members=members)


CFG = ProtocolConfig(policy=ProposerPolicy.ROUND_ROBIN, max_txs_per_block=8)


class TestValidatorScore:
    def test_all_ones(self):
        assert validator_score(profile(0, 1.0, 1.0, 1.0, 1.0), ScoreWeights()) == pytest.approx(1.0)

    def test_all_zeros(self):
        assert validator_score(profile(0, 0.0, 0.0, 0.0, 0.0), ScoreWeights()) == 0.0

    def test_hand_computed_weighted_sum(self):
        weights = ScoreWeights(0.4, 0.2, 0.2, 0.2)
        p = profile(0, stake=0.5, fuel=0.8, cap=0.6, hist=0.7)
        assert validator_score(p, weights) == pytest.approx(0.62)

    def test_weights_normalized_at_load(self):
        weights = ScoreWeights(2.0, 2.0, 2.0, 2.0)
        assert weights.w1 == pytest.approx(0.25)
        assert weights.w1 + weights.w2 + weights.w3 + weights.w4 == pytest.approx(1.0)


class TestElection:
    def test_top_n_by_score(self):
        profiles = [profile(i, stake=i / 4.0) for i in range(5)]
        vset = elect_validators(profiles, ScoreWeights(), 4)
        assert vset.member_nodes() == (4, 3, 2, 1)

    def test_tie_breaks_to_lower_node_id(self):
        profiles = [profile(i, stake=1.0) for i in range(6)]
        vset = elect_validators(profiles, ScoreWeights(), 4)
        assert vset.member_nodes() == (0, 1, 2, 3)

    def test_matches_full_sort_oracle(self):
        rng = random.Random(50)
        profiles = [
            profile(i, stake=rng.uniform(0, 10), fuel=rng.random(), cap=rng.random(), hist=rng.random())
            for i in range(50)
        ]
        weights = ScoreWeights(0.3, 0.3, 0.2, 0.2)
        vset = elect_validators(profiles, weights, 10)
        max_stake = max(p.stake for p in profiles)
        oracle = sorted(
            profiles,
            key=lambda p: (-validator_score(replace(p, stake=p.stake / max_stake), weights), p.node),
        )
        assert vset.member_nodes() == tuple(p.node for p in oracle[:10])

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            elect_validators([profile(i) for i in range(3)], ScoreWeights(), 4)
        with pytest.raises(TooFewNodes):
            elect_validators([profile(i) for i in range(5)], ScoreWeights(), 3)

    def test_stake_scaling_invariance(self):
        rng = random.Random(8)
        profiles = [
            profile(i, stake=rng.uniform(1, 5), fuel=rng.random(), cap=rng.random(), hist=rng.random())
            for i in range(12)
        ]
        scaled = [replace(p, stake=p.stake * 37.5) for p in profiles]
        a = elect_validators(profiles, ScoreWeights(), 6)
        b = elect_validators(scaled, ScoreWeights(), 6)
        assert a.member_nodes() == b.member_nodes()


class TestProposerSelection:
    def test_distribution(self):
        vset = vset_of(3, stakes=[1.0, 1.0, 2.0])
        dist = proposer_distribution(vset)
        assert dist == {0: 0.25, 1: 0.25, 2: 0.5}

    def test_single_validator_distribution(self):
        vset = ValidatorSet(members=(ValidatorInfo(3, 0.9, 5.0),))
        assert proposer_distribution(vset) == {3: 1.0}

    def test_zero_total_stake(self):
        with pytest.raises(ZeroTotalStake):
            proposer_distribution(vset_of(4, stakes=[0.0] * 4))

    def test_distribution_invariant_under_stake_scaling(self):
        stakes = [1.5, 0.2, 3.3, 0.9]
        base = proposer_distribution(vset_of(4, stakes))
        scaled = proposer_distribution(vset_of(4, [s * 41.0 for s in stakes]))
        for node in base:
            assert scaled[node] == pytest.approx(base[node], rel=1e-12)

    def test_distribution_sums_to_one(self):
        rng = random.Random(4)
        for _ in range(1_000):
            n = rng.randint(1, 12)
            stakes = [rng.uniform(0, 10) for _ in range(n)]
            if sum(stakes) == 0:
                continue
            dist = proposer_distribution(vset_of(n, stakes))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_round_robin_wraps(self):
        vset = vset_of(3)
        cfg = ProtocolConfig(policy=ProposerPolicy.ROUND_ROBIN)
        # members in score order are nodes (0, 1, 2); height + view 4 -> index 1
        assert [cfg.proposer_for(vset, h, 4 - h) for h in range(5)] == [1] * 5
        assert [cfg.proposer_for(vset, h, 0) for h in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_stake_weighted_single_nonzero(self):
        vset = vset_of(3, stakes=[0.0, 4.0, 0.0])
        rng = random.Random(0)
        for _ in range(100):
            assert select_proposer(vset, rng) == 1

    def test_stake_weighted_frequencies(self):
        vset = vset_of(3, stakes=[1.0, 1.0, 2.0])
        rng = random.Random(123)
        counts = {0: 0, 1: 0, 2: 0}
        draws = 100_000
        for _ in range(draws):
            counts[select_proposer(vset, rng)] += 1
        assert counts[0] / draws == pytest.approx(0.25, abs=0.01)
        assert counts[1] / draws == pytest.approx(0.25, abs=0.01)
        assert counts[2] / draws == pytest.approx(0.50, abs=0.01)

    def test_shared_set_keeps_each_seed_schedule(self):
        # A set memoizes its stake-weighted draws, so the memo key must hold
        # the seed: two configs sharing one set each get their own schedule.
        stakes = [1.0, 2.0, 3.0, 4.0, 5.0]
        shared = vset_of(5, stakes)
        rounds = [(h, v) for h in range(1, 9) for v in range(3)]
        schedules = []
        for seed in (11, 12):
            cfg = ProtocolConfig(seed=seed)
            fresh = vset_of(5, stakes)
            expected = [
                select_proposer(fresh, substream(seed, f"proposer:{h}:{v}"))
                for h, v in rounds
            ]
            assert [cfg.proposer_for(fresh, h, v) for h, v in rounds] == expected
            assert [cfg.proposer_for(shared, h, v) for h, v in rounds] == expected
            schedules.append(expected)
        assert schedules[0] != schedules[1]
        # The memo takes no part in equality or hashing.
        assert shared == vset_of(5, stakes) and hash(shared) == hash(vset_of(5, stakes))


class TestQuorum:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (9, 7), (10, 7), (12, 9)])
    def test_threshold(self, n, expected):
        assert quorum_threshold(n) == expected

    def test_strictly_greater_than_two_thirds(self):
        for n in range(1, 200):
            q = quorum_threshold(n)
            assert q > 2 * n / 3
            assert q - 1 <= 2 * n / 3

    def test_tolerance(self):
        assert byzantine_tolerance(4) == 1
        assert byzantine_tolerance(12) == 3
        assert byzantine_tolerance(10) == 3


class TestCreateBlock:
    def test_fifo_prefix(self):
        state = initial_state(0, 0.0, CFG)
        txs = [Transaction(tx_id=i, origin=1) for i in range(3)]
        state = state.add_transactions(txs)
        block = create_block(state, 10)
        assert block.tx_ids() == (0, 1, 2)
        assert block.height == 1
        assert block.parent_hash == genesis_block().block_hash
        # Arrival order, not id order; a committed block takes its txs out
        # and leaves the others in order.
        vset = vset_of(4)
        tx = {i: Transaction(tx_id=i, origin=1) for i in (1, 3, 5, 7, 9)}
        state = initial_state(0, 0.0, CFG)
        state = state.add_transactions([tx[7], tx[3], tx[9]])
        state = state.add_transactions([tx[3], tx[1]])
        assert create_block(state, 10).tx_ids() == (7, 3, 9, 1)
        assert create_block(state, 2).tx_ids() == (7, 3)
        proposer = CFG.proposer_for(vset, 1, 0)
        block = make_block(1, genesis_block().block_hash, proposer, 0, [tx[1], tx[3]])
        com = Commit(block.block_hash, 1, 0)
        msgs = [signed_message(proposer, PrePrepare(block))]
        msgs += [signed_message(i, com) for i in range(1, 4)]
        state, _, committed = run_messages(state, msgs, vset, CFG)
        assert committed == [block]
        state = state.add_transactions([tx[5], tx[1]])
        assert create_block(state, 10).tx_ids() == (7, 9, 5)

    def test_empty_mempool_heartbeat(self):
        state = initial_state(0, 0.0, CFG)
        block = create_block(state, 10)
        assert block.transactions == ()

    def test_created_block_validates_against_tip(self):
        from uavchain.domain import validate_block

        state = initial_state(2, 0.0, CFG)
        state = state.add_transactions([Transaction(tx_id=5, origin=0)])
        block = create_block(state, 10)
        validate_block(block, state.tip.block_hash, state.height)

    def test_max_txs_cap(self):
        state = initial_state(0, 0.0, CFG)
        state = state.add_transactions(
            [Transaction(tx_id=i, origin=1) for i in range(20)]
        )
        assert len(create_block(state, 8).transactions) == 8

    def test_mempool_dedupe(self):
        state = initial_state(0, 0.0, CFG)
        tx = Transaction(tx_id=1, origin=0)
        state = state.add_transactions([tx])
        state = state.add_transactions([tx])
        assert len(state.mempool) == 1

    def test_state_at_chain_refuses_committed_tx(self):
        old, new = (Transaction(tx_id=i, origin=1) for i in (4, 5))
        chain = (genesis_block(), make_block(1, genesis_block().block_hash, 1, 0, [old]))
        state = initial_state(0, 0.0, CFG, chain)
        assert (state.height, state.tip, state.committed_ids) == (2, chain[-1], {4})
        assert tuple(state.add_transactions([old, new]).mempool.values()) == (new,)


def run_messages(state, msgs, vset, cfg, now=0.0):
    outbound, committed = [], []
    for msg in msgs:
        result = handle_message(state, msg, vset, now, cfg)
        state = result.state
        outbound.extend(result.outbound)
        committed.extend(result.committed)
    return state, outbound, committed


def proposal_from(vset, cfg, proposer_state):
    block = create_block(proposer_state, cfg.max_txs_per_block)
    return block, signed_message(proposer_state.node, PrePrepare(block))


class TestHandleMessage:
    def setup_method(self):
        self.vset = vset_of(4)
        self.cfg = CFG
        # Round-robin proposer for (height 1, view 0) is members[1] = node 1.
        self.proposer = self.cfg.proposer_for(self.vset, 1, 0)

    def make_proposal(self):
        pstate = initial_state(self.proposer, 0.0, self.cfg)
        return proposal_from(self.vset, self.cfg, pstate)

    def test_valid_preprepare_emits_prepare(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        result = handle_message(state, msg, self.vset, 0.1, self.cfg)
        assert result.state.prepare_votes == {(block.block_hash, 0): frozenset({0})}
        kinds = [type(m.body) for m in result.outbound]
        assert kinds == [Prepare]
        assert result.outbound[0].body.block_hash == block.block_hash

    def test_third_prepare_triggers_commit_vote(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        state, out, _ = run_messages(state, [msg], self.vset, self.cfg)
        # Own prepare is vote one; two more distinct prepares reach quorum 3.
        prep = Prepare(block.block_hash, 1, 0)
        state, out, _ = run_messages(state, [signed_message(2, prep)], self.vset, self.cfg)
        assert not any(isinstance(m.body, Commit) for m in out)
        state, out, _ = run_messages(state, [signed_message(3, prep)], self.vset, self.cfg)
        assert any(isinstance(m.body, Commit) for m in out)
        assert (state.locked_hash, state.locked_view) == (block.block_hash, 0)

    def test_commit_quorum_appends_block(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        prep = Prepare(block.block_hash, 1, 0)
        com = Commit(block.block_hash, 1, 0)
        msgs = [msg, signed_message(2, prep), signed_message(3, prep),
                signed_message(2, com), signed_message(3, com)]
        state, _, committed = run_messages(state, msgs, self.vset, self.cfg)
        assert [b.block_hash for b in committed] == [block.block_hash]
        assert state.height == 2
        assert state.committed_chain[-1] == block
        assert state.prepare_votes == {} and state.locked_hash is None

    def test_stale_view_message_ignored(self):
        state = initial_state(0, 0.0, self.cfg)
        state.view = 2
        prep = signed_message(2, Prepare(genesis_block().block_hash, 1, 0))
        result = handle_message(state, prep, self.vset, 0.0, self.cfg)
        assert result.outbound == []
        assert result.state.prepare_votes == {}

    def test_stale_height_message_ignored(self):
        state = initial_state(0, 0.0, self.cfg)
        state.height = 5
        prep = signed_message(2, Prepare(genesis_block().block_hash, 1, 0))
        result = handle_message(state, prep, self.vset, 0.0, self.cfg)
        assert result.state.prepare_votes == {}

    @pytest.mark.parametrize("vote", [Prepare, Commit])
    def test_late_vote_returns_its_input_state(self, vote):
        # Node 0 commits height 1; the last member's vote for it arrives late.
        block, msg = self.make_proposal()
        prep, com = Prepare(block.block_hash, 1, 0), Commit(block.block_hash, 1, 0)
        msgs = [msg, signed_message(2, prep), signed_message(3, prep),
                signed_message(2, com), signed_message(3, com)]
        state = initial_state(0, 0.0, self.cfg)
        state, _, committed = run_messages(state, msgs, self.vset, self.cfg)
        assert committed == [block] and state.height == 2
        before = state.copy()
        result = handle_message(state, signed_message(1, vote(block.block_hash, 1, 0)), self.vset, 0.5, self.cfg)
        assert result.state is state
        assert result.outbound == [] and result.committed == []
        assert state == before and state.settled is before.settled

    def test_duplicate_votes_not_double_counted(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        prep = signed_message(2, Prepare(block.block_hash, 1, 0))
        state, _, _ = run_messages(state, [msg, prep, prep, prep], self.vset, self.cfg)
        key = (block.block_hash, 0)
        assert state.prepare_votes[key] == frozenset({0, 2})

    def test_invalid_signature_discarded_and_counted(self):
        state = initial_state(0, 0.0, self.cfg)
        bad = forged_message(2, Prepare(genesis_block().block_hash, 1, 0))
        result = handle_message(state, bad, self.vset, 0.0, self.cfg)
        assert result.discarded == ["invalid_signature"]
        assert result.state is state
        assert result.state.prepare_votes == {}

    def test_unknown_sender_discarded_and_counted(self):
        state = initial_state(0, 0.0, self.cfg)
        msg = signed_message(99, Prepare(genesis_block().block_hash, 1, 0))
        result = handle_message(state, msg, self.vset, 0.0, self.cfg)
        assert result.discarded == ["unknown_sender"]
        assert result.state is state

    def test_invalid_block_rejected(self):
        state = initial_state(0, 0.0, self.cfg)
        bad_block = make_block(1, bytes(32), self.proposer, 0, ())  # wrong parent
        msg = signed_message(self.proposer, PrePrepare(bad_block))
        result = handle_message(state, msg, self.vset, 0.0, self.cfg)
        assert result.discarded == ["invalid_block"]
        assert result.outbound == []

    def test_purity_input_state_unchanged(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        before_votes = dict(state.prepare_votes)
        before_height = state.height
        handle_message(state, msg, self.vset, 0.0, self.cfg)
        assert state.prepare_votes == before_votes
        assert state.height == before_height

    def test_determinism_identical_inputs_identical_outputs(self):
        block, msg = self.make_proposal()
        state = initial_state(0, 0.0, self.cfg)
        r1 = handle_message(state, msg, self.vset, 0.0, self.cfg)
        r2 = handle_message(state, msg, self.vset, 0.0, self.cfg)
        assert r1.state == r2.state
        assert r1.outbound == r2.outbound

    def test_all_arrival_orders_reach_identical_state(self):
        # Full 4! x vote-multiset sweep lives in the acceptance suite; this
        # pins the core order-independence on one vote multiset.
        block, msg = self.make_proposal()
        prep = Prepare(block.block_hash, 1, 0)
        com = Commit(block.block_hash, 1, 0)
        msgs = [msg, signed_message(2, prep), signed_message(3, prep), signed_message(2, com)]
        finals = []
        for order in itertools.permutations(msgs):
            state = initial_state(0, 0.0, self.cfg)
            state, _, _ = run_messages(state, list(order), self.vset, self.cfg)
            finals.append(state)
        first = finals[0]
        for other in finals[1:]:
            assert other == first

    def test_future_height_messages_buffered_and_replayed(self):
        block, msg = self.make_proposal()
        # Prepare votes for height 2 arrive before height 1 commits.
        future_prep = signed_message(2, Prepare(bytes(32), 2, 0))
        state = initial_state(0, 0.0, self.cfg)
        state, _, _ = run_messages(state, [future_prep], self.vset, self.cfg)
        assert 2 in state.future
        prep = Prepare(block.block_hash, 1, 0)
        com = Commit(block.block_hash, 1, 0)
        msgs = [msg, signed_message(2, prep), signed_message(3, prep),
                signed_message(2, com), signed_message(3, com)]
        state, _, committed = run_messages(state, msgs, self.vset, self.cfg)
        assert committed
        assert state.future == {}
        assert state.prepare_votes.get((bytes(32), 0)) == frozenset({2})


class TestSettledVotes:
    """In a settled state, a vote skips ``_advance`` unless it brings its
    tally to exactly ``commit_quorum``: a tally below quorum enables nothing,
    and one past it was certified when the state settled.  The oracle is the
    same call on the same state with its ``settled`` record cleared, which
    always runs the full fixpoint.  Skipping also at a tally of exactly
    quorum (``<=`` for ``!=``) fails all four cases below; skipping only
    below quorum (``<``) fails the past-quorum count at n >= 4."""

    @staticmethod
    def _reordered(vset):
        # The same ids and stakes with the scores reversed, so every
        # round-robin slot names another proposer.
        members = sorted(
            (ValidatorInfo(node=m.node, score=float(m.node), stake=m.stake) for m in vset.members),
            key=lambda m: (-m.score, m.node),
        )
        return ValidatorSet(members=tuple(members))

    @staticmethod
    def _messages(rng, vsets):
        """Height-1 traffic for node 0 in random order: a proposal from each
        set's proposer of views 0-2, full prepare and commit tallies for a
        few random (hash, view) keys, scattered votes and view changes."""
        n = vsets[0].n
        senders = list(range(1, n)) or [0]  # a lone validator hears itself
        parent = genesis_block().block_hash
        msgs, hashes = [], [bytes(32)]  # a hash no proposal carries
        for view in range(3):
            for vs in vsets:
                proposer = CFG.proposer_for(vs, 1, view)
                tx = Transaction(tx_id=len(hashes), origin=proposer)
                block = make_block(1, parent, proposer, view, [tx])
                hashes.append(block.block_hash)
                msgs.append(signed_message(proposer, PrePrepare(block)))
        for vote in (Prepare, Commit, Prepare, Commit):
            digest, view = rng.choice(hashes), rng.randrange(3)
            msgs += [signed_message(s, vote(digest, 1, view)) for s in senders]
        for _ in range(n):
            vote = rng.choice((Prepare, Commit))
            msgs.append(signed_message(rng.choice(senders), vote(rng.choice(hashes), 1, rng.randrange(3))))
        for new_view in (1, 2):
            callers = rng.sample(senders, rng.randint(0, len(senders)))
            msgs += [signed_message(s, ViewChange(new_view, 1)) for s in callers]
        rng.shuffle(msgs)
        return msgs

    # n = 1 is the one size at which a node's own view-change vote is a
    # quorum, so only there can a timeout enable a transition by itself; few
    # orders show it (a view change, the timeout, then a stale-view vote, all
    # before any proposal), so that size runs many more of its short trials.
    @pytest.mark.parametrize("n, trials", [(1, 1500), (4, 60), (7, 60), (20, 60)])
    def test_results_match_the_full_fixpoint(self, n, trials, monkeypatch):
        advance, runs = consensus._advance, []
        monkeypatch.setattr(consensus, "_advance", lambda *args: runs.append(1) or advance(*args))
        skipped = past_quorum = 0
        for trial in range(trials):
            rng = random.Random(trial)
            vset = vset_of(n)
            other = self._reordered(vset)
            assert other.ids == vset.ids and other is not vset
            msgs = self._messages(rng, (vset, other))
            switch = rng.randrange(len(msgs))
            timeout = rng.randrange(len(msgs))
            state, now = initial_state(0, 0.0, CFG), 0.0
            for i, msg in enumerate(msgs):
                now += 0.01
                if i == switch:
                    vset = other
                if i == timeout:
                    now = max(now, state.timeout_deadline)
                    state, _ = on_timeout(state, now, CFG)
                cleared = state.copy()
                cleared.settled = None
                # The tally a recorded vote lands on (a vote below the
                # node's view is dropped, whatever its tally).
                tally = 0
                body = msg.body
                if isinstance(body, (Prepare, Commit)) and body.view >= state.view:
                    votes = state.prepare_votes if isinstance(body, Prepare) else state.commit_votes
                    tally = len(votes.get((body.block_hash, body.view), ()))
                before = len(runs)
                got = handle_message(state, msg, vset, now, CFG)
                got_runs = len(runs) - before
                want = handle_message(cleared, msg, vset, now, CFG)
                assert got == want
                skip = got_runs == 0 and len(runs) - before == 1
                skipped += skip
                past_quorum += skip and tally >= quorum_threshold(n)
                state = got.state
        assert skipped > 0
        # Votes that land on a tally already at quorum skip the fixpoint too.
        assert n < 4 or past_quorum > 0

    @pytest.mark.parametrize("n", [4, 7, 20])
    def test_own_tally_entries_are_the_votes_cast(self, n):
        """After every call, node 0's id is in its own tallies at exactly the
        (hash, view) keys of the Prepares and Commits, and the views of the
        ViewChanges, that it has emitted at its current height; it emits at
        most one Prepare per view and one Commit per key.  So the tallies are
        the node's record of its own votes.  The invariant needs a node's
        messages never to come back to it, which holds in the simulator (a
        broadcast goes to every other validator); at n = 1 this traffic has
        node 0 hear itself, so that size is left out."""
        for trial in range(60):
            rng = random.Random(trial)
            vset = vset_of(n)
            msgs = self._messages(rng, (vset,))
            timeout = rng.randrange(len(msgs))
            state, now, sent = initial_state(0, 0.0, CFG), 0.0, []
            for i, msg in enumerate(msgs):
                now += 0.01
                if i == timeout:
                    now = max(now, state.timeout_deadline)
                    state, out = on_timeout(state, now, CFG)
                    sent += out
                    self._check_own_votes(state, sent)
                result = handle_message(state, msg, vset, now, CFG)
                state = result.state
                sent += result.outbound
                self._check_own_votes(state, sent)

    @staticmethod
    def _check_own_votes(state, sent):
        bodies = [m.body for m in sent if m.body.height == state.height]
        prepares = [(b.block_hash, b.view) for b in bodies if type(b) is Prepare]
        commits = [(b.block_hash, b.view) for b in bodies if type(b) is Commit]
        view_changes = {b.new_view for b in bodies if type(b) is ViewChange}

        def own(table):
            return {key for key, senders in table.items() if state.node in senders}

        assert own(state.prepare_votes) == set(prepares)
        assert own(state.commit_votes) == set(commits)
        assert own(state.view_change_votes) == view_changes
        assert len({view for _, view in prepares}) == len(prepares)
        assert len(set(commits)) == len(commits)


class TestViewChange:
    def setup_method(self):
        self.vset = vset_of(4)
        self.cfg = CFG

    def test_timeout_emits_view_change(self):
        state = initial_state(0, 0.0, self.cfg)
        state.timeout_deadline = 0.5
        new_state, out = on_timeout(state, 0.6, self.cfg)
        assert len(out) == 1
        assert isinstance(out[0].body, ViewChange)
        assert out[0].body.new_view == 1
        assert new_state.timeouts_since_commit == 1

    def test_timeout_before_deadline_noop(self):
        state = initial_state(0, 0.0, self.cfg)
        state.timeout_deadline = 0.5
        new_state, out = on_timeout(state, 0.4, self.cfg)
        assert out == []
        assert new_state is state

    @pytest.mark.parametrize("kind", [ProtocolKind.HYBRID, ProtocolKind.PURE_PBFT])
    def test_deadline_matches_backoff_formula(self, kind):
        rng = random.Random(10)
        for _ in range(200):
            cfg = ProtocolConfig(
                kind=kind, timeout_s=rng.uniform(0.01, 2.0), timeout_backoff=rng.uniform(1.0, 3.0)
            )
            now = rng.uniform(0.0, 1e4)
            for k in range(7):
                if k == 0:
                    expected = now + cfg.timeout_s
                else:
                    expected = now + cfg.timeout_s * cfg.timeout_backoff ** k
                assert cfg.deadline(now, k) == expected
        dpos = ProtocolConfig(kind=ProtocolKind.PURE_DPOS)
        assert all(dpos.deadline(rng.uniform(0.0, 1e4), k) == math.inf for k in range(7))

    def test_deadline_backs_off_exponentially(self):
        state = initial_state(0, 0.0, self.cfg)
        state.timeout_deadline = 0.5
        s1, _ = on_timeout(state, 0.5, self.cfg)
        first_gap = s1.timeout_deadline - 0.5
        s2, _ = on_timeout(s1, s1.timeout_deadline, self.cfg)
        second_gap = s2.timeout_deadline - s1.timeout_deadline
        assert second_gap == pytest.approx(first_gap * self.cfg.timeout_backoff)

    def test_quorum_of_view_changes_adopts(self):
        state = initial_state(0, 0.0, self.cfg)
        vc = ViewChange(1, 1)
        msgs = [signed_message(1, vc), signed_message(2, vc), signed_message(3, vc)]
        state, _, _ = run_messages(state, msgs, self.vset, self.cfg)
        assert state.view == 1

    def test_join_after_f_plus_one(self):
        state = initial_state(0, 0.0, self.cfg)
        vc = ViewChange(1, 1)
        # f+1 = 2 for n=4: seeing two calls makes this node join.
        state, out, _ = run_messages(
            state, [signed_message(1, vc), signed_message(2, vc)], self.vset, self.cfg
        )
        own = [m for m in out if isinstance(m.body, ViewChange)]
        assert len(own) == 1
        # Own vote completes the quorum of 3.
        assert state.view == 1

    def test_view_increments_never_skip_under_repeat_failures(self):
        state = initial_state(0, 0.0, self.cfg)
        views = [state.view]
        now = 0.5
        for _ in range(4):
            state, out = on_timeout(state, max(now, state.timeout_deadline), self.cfg)
            target = out[0].body.new_view
            for sender in (1, 2, 3):
                state, _, _ = run_messages(
                    state, [signed_message(sender, ViewChange(target, 1))], self.vset, self.cfg
                )
            views.append(state.view)
            now = state.timeout_deadline
        assert views == [0, 1, 2, 3, 4]

    def test_crashed_proposer_recovery_via_new_view(self):
        # Proposer for (1, 0) is node 1; it stays silent.  The other three
        # time out, adopt view 1, and commit under node 2 (proposer of view 1).
        cfg = self.cfg
        states = {i: initial_state(i, 0.0, cfg) for i in (0, 2, 3)}
        inboxes = {i: [] for i in states}

        def broadcast(sender, msgs):
            for m in msgs:
                for other in states:
                    if other != sender:
                        inboxes[other].append(m)

        for node in sorted(states):
            states[node], out = on_timeout(states[node], 0.5, cfg)
            broadcast(node, out)
        for _ in range(4):  # drain until stable
            for node in sorted(states):
                pending, inboxes[node] = inboxes[node], []
                states[node], out, _ = run_messages(states[node], pending, self.vset, cfg, now=0.6)
                broadcast(node, out)
        assert all(s.view == 1 for s in states.values())
        new_proposer = cfg.proposer_for(self.vset, 1, 1)
        assert new_proposer in states
        block = proposal_for_turn(states[new_proposer], cfg)
        pre_prepare = signed_message(new_proposer, PrePrepare(block))
        result = handle_message(states[new_proposer], pre_prepare, self.vset, 0.7, cfg)
        states[new_proposer] = result.state
        broadcast(new_proposer, result.outbound)
        broadcast(new_proposer, [pre_prepare])
        committed_any = []
        for _ in range(6):
            for node in sorted(states):
                pending, inboxes[node] = inboxes[node], []
                states[node], out, committed = run_messages(states[node], pending, self.vset, cfg, now=0.8)
                broadcast(node, out)
                committed_any.extend(committed)
        assert committed_any
        assert all(s.height == 2 for s in states.values())


class TestLocking:
    def test_lock_refuses_conflicting_fresh_proposal(self):
        vset = vset_of(4)
        cfg = CFG
        proposer0 = cfg.proposer_for(vset, 1, 0)
        pstate = initial_state(proposer0, 0.0, cfg)
        pstate = pstate.add_transactions([Transaction(tx_id=1, origin=0)])
        block_a = create_block(pstate, 8)
        msg_a = signed_message(proposer0, PrePrepare(block_a))

        observer = initial_state(0, 0.0, cfg) if proposer0 != 0 else initial_state(3, 0.0, cfg)
        prep_a = Prepare(block_a.block_hash, 1, 0)
        observer, _, _ = run_messages(
            observer,
            [msg_a, signed_message(2, prep_a), signed_message(3 if observer.node != 3 else 1, prep_a)],
            vset, cfg,
        )
        assert observer.locked_hash == block_a.block_hash

        # View changes to 1; the new proposer offers a different block.
        vc = ViewChange(1, 1)
        senders = [i for i in range(4) if i != observer.node][:3]
        observer, _, _ = run_messages(
            observer, [signed_message(s, vc) for s in senders], vset, cfg
        )
        assert observer.view == 1
        proposer1 = cfg.proposer_for(vset, 1, 1)
        fresh = initial_state(proposer1, 0.0, cfg)
        fresh.view = 1
        block_b = create_block(fresh, 8)
        msg_b = signed_message(proposer1, PrePrepare(block_b))
        observer, out, _ = run_messages(observer, [msg_b], vset, cfg)
        prepares_for_b = [
            m for m in out if isinstance(m.body, Prepare) and m.body.block_hash == block_b.block_hash
        ]
        assert prepares_for_b == []

    def test_commit_certificate_overrides_lag(self):
        # A node that never prepared still commits once it holds the block
        # and sees a commit quorum.
        vset = vset_of(4)
        cfg = CFG
        proposer = cfg.proposer_for(vset, 1, 0)
        pstate = initial_state(proposer, 0.0, cfg)
        block = create_block(pstate, 8)
        msg = signed_message(proposer, PrePrepare(block))
        node = initial_state(0 if proposer != 0 else 3, 0.0, cfg)
        com = Commit(block.block_hash, 1, 0)
        commit_senders = [i for i in range(4) if i != node.node][:3]
        msgs = [msg] + [signed_message(s, com) for s in commit_senders]
        node, _, committed = run_messages(node, msgs, vset, cfg)
        assert committed and committed[0].block_hash == block.block_hash


class TestDposBaseline:
    def test_majority_ack_commit(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PURE_DPOS, max_txs_per_block=8)
        vset = vset_of(4)
        proposer = cfg.proposer_for(vset, 1, 0)  # height mod n
        pstate = initial_state(proposer, 0.0, cfg)
        block = create_block(pstate, 8)
        msg = signed_message(proposer, PrePrepare(block))
        node = initial_state((proposer + 1) % 4, 0.0, cfg)
        node, out, committed = run_messages(node, [msg], vset, cfg)
        assert any(isinstance(m.body, Prepare) for m in out)
        assert not committed  # 2 acks (own + implicit) below majority of 3
        ack = Prepare(block.block_hash, 1, 0)
        other = next(i for i in range(4) if i not in (node.node, proposer))
        node, _, committed = run_messages(node, [signed_message(other, ack), signed_message(proposer, ack)], vset, cfg)
        assert committed

    def test_no_view_change_in_dpos(self):
        cfg = ProtocolConfig(kind=ProtocolKind.PURE_DPOS, max_txs_per_block=8)
        vset = vset_of(4)
        proposer = cfg.proposer_for(vset, 1, 0)
        node = initial_state((proposer + 1) % 4, 0.0, cfg)
        assert node.timeout_deadline == math.inf
        block = create_block(initial_state(proposer, 0.0, cfg), 8)
        ack = Prepare(block.block_hash, 1, 0)
        other = next(i for i in range(4) if i not in (node.node, proposer))
        msgs = [signed_message(proposer, PrePrepare(block))]
        msgs += [signed_message(other, ack), signed_message(proposer, ack)]
        node, _, committed = run_messages(node, msgs, vset, cfg, now=2.0)
        assert committed
        assert node.timeout_deadline == math.inf
        new_state, out = on_timeout(node, 1e9, cfg)
        assert new_state is node and out == []


class TestHistoryUpdate:
    def test_ema(self):
        p = profile(0, hist=0.5)
        assert update_history(p, 1.0).history == pytest.approx(0.55)
        assert update_history(p, 0.0).history == pytest.approx(0.45)


class TestDoubleSigningProposer:
    def test_one_block_commits_per_height(self):
        # The height-1 proposer signs two valid blocks, sends each to one
        # part of the honest nodes, and prepares and commits both.  Over
        # seeded delivery orders the honest nodes commit one block at
        # height 1.  The larger part reaches a quorum with the proposer's
        # votes, so a schedule that commits none fails too.
        cfg = CFG
        vset = vset_of(4)
        proposer = cfg.proposer_for(vset, 1, 0)
        honest = [node for node in range(4) if node != proposer]
        pstate = initial_state(proposer, 0.0, cfg)
        blocks = [
            create_block(pstate.add_transactions([Transaction(tx_id=tx, origin=proposer)]), 8)
            for tx in (1, 2)
        ]
        assert blocks[0].block_hash != blocks[1].block_hash
        votes = [
            signed_message(proposer, vote(block.block_hash, 1, 0))
            for block in blocks for vote in (Prepare, Commit)
        ]
        for seed in range(40):
            rng = random.Random(seed)
            order = rng.sample(honest, len(honest))
            cut = rng.randint(1, len(honest) - 1)
            in_flight = [
                (node, signed_message(proposer, PrePrepare(block)))
                for part, block in zip((order[:cut], order[cut:]), blocks) for node in part
            ]
            in_flight += [(node, msg) for node in honest for msg in votes]
            states = {node: initial_state(node, 0.0, cfg) for node in honest}
            committed = set()
            while in_flight:
                node, msg = in_flight.pop(rng.randrange(len(in_flight)))
                result = handle_message(states[node], msg, vset, 0.0, cfg)
                states[node] = result.state
                in_flight += [(other, out) for out in result.outbound for other in honest if other != node]
                committed |= {block.block_hash for block in result.committed if block.height == 1}
            assert len(committed) == 1, f"seed {seed}: {len(committed)} blocks committed at height 1"


class TestSubstreams:
    def test_labels_are_independent(self):
        a = substream(1, "alpha")
        b = substream(1, "beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_same_label_same_stream(self):
        assert substream(9, "x").random() == substream(9, "x").random()
