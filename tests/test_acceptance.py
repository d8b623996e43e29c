"""Acceptance suite: one test per release criterion, each printed as a
PASS line with its measured margin.  Run with `pytest tests/test_acceptance.py -s`
to see the lines; the whole suite stays within a few minutes on a laptop.
"""

import functools
import itertools
import random

import pytest
from scipy import stats as scipy_stats

from uavchain.consensus import (
    ProposerPolicy,
    ProtocolConfig,
    ProtocolKind,
    byzantine_tolerance,
    create_block,
    elect_validators,
    handle_message,
    initial_state,
    quorum_threshold,
)
from uavchain.domain import Commit, Prepare, PrePrepare, signed_message
from uavchain.faults import ByzantineStrategy, FaultPlan
from uavchain.harness import (
    build_desk_scenario,
    build_hurricane_scenario,
    canonical_fault_plan,
    commit_latencies,
    export,
    nearest_rank,
    replay,
    run_experiment,
)
from uavchain.mobility import AreaBounds, KinematicState, MobilityConfig, Vec3, step
from uavchain.radio import (
    PROPAGATION_SPEED_M_S,
    LinkBudgetParams,
    NodeServiceProfile,
    link_capacity,
    snr,
)
from uavchain.scenario import deploy_fleet, scenario_from_dict, scenario_to_dict
from uavchain.simnet import run as run_simulation
from uavchain.stats import anova_oneway, sum_of_squares
from uavchain.consensus import ValidatorInfo, ValidatorSet

from conftest import link_deliveries, mini_scenario
from test_stats import GOLDEN_F, GOLDEN_G1, GOLDEN_G2, GOLDEN_G3, GOLDEN_P


def _honest_commit_conflicts(result, byzantine) -> int:
    """Number of heights where two honest nodes committed different blocks."""
    per_height: dict[int, set] = {}
    for rec in result.trace.by_kind("commit"):
        if rec["node"] in byzantine:
            continue
        per_height.setdefault(rec["height"], set()).add(rec["hash"])
    conflicts = sum(1 for hashes in per_height.values() if len(hashes) > 1)
    # Chains must also agree as prefixes (covers state-transfer commits).
    chains = [c for node, c in result.chains.items() if node not in byzantine]
    for other in chains[1:]:
        shared = min(len(chains[0]), len(other))
        if [b.block_hash for b in chains[0][:shared]] != [b.block_hash for b in other[:shared]]:
            conflicts += 1
    return conflicts


def test_criterion_1_consensus_safety_randomized():
    """1,000 randomized byzantine runs never let two honest nodes commit
    different blocks at the same height (tolerance: zero violations)."""
    strategies = [
        ByzantineStrategy.EQUIVOCATE,
        ByzantineStrategy.INVALID_BLOCK,
        ByzantineStrategy.SILENT,
    ]
    rng = random.Random(20_240_915)
    violations = 0
    runs = 1_000
    for i in range(runs):
        n = rng.randint(4, 10)
        f = byzantine_tolerance(n)
        byz_count = rng.randint(0, f)
        byz = {b: rng.choice(strategies) for b in rng.sample(range(n), byz_count)}
        plan = FaultPlan(byzantine=byz, drop_prob=rng.uniform(0.0, 0.2))
        scn = mini_scenario(n, duration=1.5, jitter=rng.uniform(0.0, 0.05))
        result = run_simulation(scn, plan, ProtocolKind.HYBRID, seed=10_000 + i)
        violations += _honest_commit_conflicts(result, set(byz))
    assert violations == 0
    print(f"\nACCEPTANCE 1 PASS: safety held in {runs} randomized runs (0 conflicts)")


def test_criterion_2_consensus_liveness_under_crashes():
    """With f crashed validators and default timeouts, every honest chain
    grows at least once per (timeout x (f+1)) window over 60 simulated
    seconds, and views change only when a crashed proposer was due."""
    n = 7
    scn = mini_scenario(
        n, duration=60.0, tx_rate=1.0,
        policy=ProposerPolicy.ROUND_ROBIN, timeout_s=0.5,
    )
    f = byzantine_tolerance(n)
    uavs = deploy_fleet(scn, seed=5)
    vset = elect_validators([u.profile for u in uavs], scn.consensus.weights, n)
    members = vset.member_nodes()
    # Crash f validators at non-adjacent rotation slots.
    crashed = {members[0], members[3]}
    assert len(crashed) == f
    plan = FaultPlan(byzantine={c: ByzantineStrategy.SILENT for c in crashed})
    result = run_simulation(scn, plan, ProtocolKind.HYBRID, seed=5)

    window = scn.consensus.timeout_s * (f + 1)
    commits: dict[int, list[float]] = {}
    for rec in result.trace.by_kind("commit"):
        commits.setdefault(rec["node"], []).append(rec["t"])
    empty_windows = 0
    for node in members:
        if node in crashed:
            continue
        times = commits.get(node, [])
        k = 0
        while (k + 1) * window <= scn.duration_s:
            if not any(k * window <= t < (k + 1) * window for t in times):
                empty_windows += 1
            k += 1
    assert empty_windows == 0

    cfg = scn.consensus.protocol_config(ProtocolKind.HYBRID, 5)
    spurious = 0
    for rec in result.trace.by_kind("view_adopted"):
        failed_proposer = cfg.proposer_for(vset, rec["height"], rec["old_view"])
        if failed_proposer not in crashed:
            spurious += 1
    assert spurious == 0
    blocks = len(result.trace.by_kind("block"))
    print(
        f"\nACCEPTANCE 2 PASS: {blocks} blocks over 60 s with {f} crashed "
        f"validators; no empty {window:.1f}-s window, no spurious view change"
    )


def _quorum_oracle(n: int, prepare_senders: frozenset, commit_senders: frozenset) -> bool:
    """Independent commit-decision rule, written directly from the vote
    counting definition rather than the state machine."""
    q = quorum_threshold(n)
    prepares = len(prepare_senders) + 1  # receiving node votes after pre-prepare
    polka = prepares >= q
    commits = len(commit_senders) + (1 if polka else 0)
    return commits >= q


def _run_vote_schedule(n, observer, proposer, block, msgs_order, cfg, vset):
    state = initial_state(observer, 0.0, cfg)
    committed = []
    for msg in msgs_order:
        result = handle_message(state, msg, vset, 0.0, cfg)
        state = result.state
        committed.extend(result.committed)
    return state, committed


def test_criterion_3_quorum_oracle_equivalence():
    """handle_message's commit decision equals brute-force vote counting:
    exhaustive subsets and arrival orders for n=4, sampled orders for
    n in {5, 6, 7}.  Tolerance: exact."""
    checked = 0
    for n in (4, 5, 6, 7):
        cfg = ProtocolConfig(policy=ProposerPolicy.ROUND_ROBIN, max_txs_per_block=4)
        vset = ValidatorSet(
            members=tuple(ValidatorInfo(node=i, score=1.0 - i * 1e-3, stake=1.0) for i in range(n))
        )
        proposer = cfg.proposer_for(vset, 1, 0)
        observer = (proposer + 1) % n
        pstate = initial_state(proposer, 0.0, cfg)
        block = create_block(pstate, {}, 4)
        pre = signed_message(proposer, PrePrepare(block))
        others = [i for i in range(n) if i != observer]

        def schedules(n=n, others=others):
            rng = random.Random(77 + n)
            if n == 4:
                for s_p in itertools.chain.from_iterable(
                    itertools.combinations(others, k) for k in range(len(others) + 1)
                ):
                    for s_c in itertools.chain.from_iterable(
                        itertools.combinations(others, k) for k in range(len(others) + 1)
                    ):
                        msgs = [pre]
                        msgs += [signed_message(s, Prepare(block.block_hash, 1, 0)) for s in s_p]
                        msgs += [signed_message(s, Commit(block.block_hash, 1, 0)) for s in s_c]
                        orders = list(itertools.permutations(msgs))
                        yield frozenset(s_p), frozenset(s_c), orders
            else:
                for _ in range(10_000 // 10):
                    s_p = frozenset(rng.sample(others, rng.randint(0, len(others))))
                    s_c = frozenset(rng.sample(others, rng.randint(0, len(others))))
                    msgs = [pre]
                    msgs += [signed_message(s, Prepare(block.block_hash, 1, 0)) for s in sorted(s_p)]
                    msgs += [signed_message(s, Commit(block.block_hash, 1, 0)) for s in sorted(s_c)]
                    orders = [rng.sample(msgs, len(msgs)) for _ in range(10)]
                    yield s_p, s_c, orders

        for s_p, s_c, orders in schedules():
            expected = _quorum_oracle(n, s_p, s_c)
            final_states = []
            for order in orders:
                state, committed = _run_vote_schedule(n, observer, proposer, block, order, cfg, vset)
                assert bool(committed) == expected, (n, s_p, s_c)
                final_states.append(state)
                checked += 1
            first = final_states[0]
            for other in final_states[1:]:
                assert other == first, f"arrival order changed the outcome for n={n}"
    print(f"\nACCEPTANCE 3 PASS: commit decision matched the oracle on {checked} schedules")


def test_criterion_4_latency_model_fidelity():
    """The simulator's latency model: a delivered message's latency is
    processing + measured queue wait + transmission + propagation (to the
    trace's 1e-9 s rounding), propagation is 10 us at 3 km, the cluster
    component presets round-trip through the scenario config, and halving
    noise doubles SNR."""
    params = LinkBudgetParams()
    rng = random.Random(4)
    runs = 200
    for _ in range(runs):
        # Two messages sent at once: the first finds the receiver's queue
        # idle, so the second's measured wait is all the queue's wait.
        sizes = sorted(rng.randint(1, 10**7) for _ in range(2))
        d = rng.uniform(1, 35_000)
        service = NodeServiceProfile(
            proc_latency_s=rng.uniform(0, 0.05),
            service_rate_msgs_per_s=rng.uniform(10, 10_000),
        )
        latencies, queue = link_deliveries(d, sizes, service, params)
        assert queue.served == len(latencies) == 2
        cap = link_capacity(params, d)
        for latency, bits, wait in zip(latencies, sizes, (0.0, queue.total_wait_s)):
            parts = service.proc_latency_s + wait + bits / cap + d / PROPAGATION_SPEED_M_S
            assert abs(latency - parts) <= 1e-9

    # A zero-size message with no processing is propagation only.
    assert link_deliveries(3_000.0, [0], NodeServiceProfile(0.0, 1000.0), params)[0] == [10e-6]

    # Component presets (10 ms processing, 1 ms queuing, 10 ms transmission)
    # survive the scenario config round trip; the 1 ms is a second message
    # queued behind the first at 1000 msg/s.
    scn = build_hurricane_scenario({
        "proc_latency_s": 0.010,
        "service_rate_msgs_per_s": 1000.0,
    })
    doc = scenario_to_dict(scn)
    again = scenario_from_dict(doc)
    assert again.service.proc_latency_s == 0.010
    assert again.service.service_rate_msgs_per_s == 1000.0
    d = 2_000.0
    bits = round(link_capacity(again.radio, d) * 0.010)
    (first, second), queue = link_deliveries(d, [bits, bits], again.service, again.radio)
    assert first - again.service.proc_latency_s - d / PROPAGATION_SPEED_M_S == pytest.approx(0.010, rel=1e-6)
    assert queue.total_wait_s == pytest.approx(0.001, rel=1e-9)
    assert second - first == pytest.approx(0.001, abs=1e-9)

    for d in (500.0, 5_000.0, 20_000.0):
        quiet = LinkBudgetParams(noise_power_w=params.noise_power_w / 2)
        assert snr(quiet, d) == pytest.approx(2 * snr(params, d), rel=1e-12)
    print(f"\nACCEPTANCE 4 PASS: delivered latency = its four components on {runs} runs; presets round-trip")


def test_criterion_5_protocol_comparison_direction():
    """On the desk-scale comparison scenario (20 validators, 60 s, 5 seeds)
    the hybrid protocol beats the all-node three-phase baseline on median
    commit latency on every seed, and on interquartile range on >= 4 of 5."""
    scn = build_desk_scenario()
    seeds = [1, 2, 3, 4, 5]
    medians = {}
    iqrs = {}
    for kind in (ProtocolKind.HYBRID, ProtocolKind.PURE_PBFT):
        for seed in seeds:
            report, result = run_experiment(scn, kind, FaultPlan(), seed)
            values = sorted(v for g in commit_latencies(result.trace).values() for v in g)
            assert values, f"{kind.value} seed {seed} committed nothing"
            medians[(kind, seed)] = report.latency.median
            iqrs[(kind, seed)] = nearest_rank(values, 75) - nearest_rank(values, 25)
    median_wins = sum(
        medians[(ProtocolKind.HYBRID, s)] < medians[(ProtocolKind.PURE_PBFT, s)] for s in seeds
    )
    iqr_wins = sum(
        iqrs[(ProtocolKind.HYBRID, s)] <= iqrs[(ProtocolKind.PURE_PBFT, s)] for s in seeds
    )
    assert median_wins == len(seeds)
    assert iqr_wins >= 4
    gaps = [
        100 * (medians[(ProtocolKind.PURE_PBFT, s)] / medians[(ProtocolKind.HYBRID, s)] - 1)
        for s in seeds
    ]
    print(
        f"\nACCEPTANCE 5 PASS: hybrid median below baseline on 5/5 seeds "
        f"(gaps {min(gaps):.0f}%..{max(gaps):.0f}%), tighter IQR on {iqr_wins}/5"
    )


@functools.cache
def _fault_free_hurricane_report(seed):
    """The default hurricane scenario, hybrid, with no faults.  Criterion 6's
    baseline is criterion 7's seed 3, so that 30-s run is made once."""
    report, _ = run_experiment(build_hurricane_scenario(), ProtocolKind.HYBRID, FaultPlan(), seed)
    return report


def test_criterion_6_attack_resilience():
    """Under the canonical attack plan (within byzantine tolerance) the
    same-seed throughput degradation stays <= 10% and safety still holds."""
    scn = build_hurricane_scenario()
    seed = 3
    baseline = _fault_free_hurricane_report(seed)
    plan = canonical_fault_plan(scn, seed)
    f = byzantine_tolerance(scn.consensus.n_validators)
    assert len(plan.byzantine) <= f
    attacked, result = run_experiment(
        scn, ProtocolKind.HYBRID, plan, seed, baseline=baseline
    )
    drop = attacked.degradation["throughput_pct"]
    assert drop <= 10.0
    assert _honest_commit_conflicts(result, set(plan.byzantine)) == 0
    print(
        f"\nACCEPTANCE 6 PASS: throughput degradation {drop:.2f}% <= 10% "
        f"({baseline.throughput_tps:.1f} -> {attacked.throughput_tps:.1f} TPS), safety intact"
    )


def test_criterion_7_group_latency_direction():
    """In the default hurricane scenario the rescue cluster's median commit
    latency exceeds the connectivity cluster's by >= 5%, and the three-group
    ANOVA is significant (p < 0.05) on >= 4 of 5 seeds."""
    seeds = [1, 2, 3, 4, 5]
    margins = []
    significant = 0
    for seed in seeds:
        report = _fault_free_hurricane_report(seed)
        conn = report.per_group["connectivity"].median
        rescue = report.per_group["rescue"].median
        margins.append(100 * (rescue - conn) / conn)
        assert rescue >= 1.05 * conn, f"seed {seed}: rescue only {margins[-1]:.1f}% above"
        assert report.anova is not None
        if report.anova.p_value < 0.05:
            significant += 1
    assert significant >= 4
    print(
        f"\nACCEPTANCE 7 PASS: rescue median {min(margins):.1f}%..{max(margins):.1f}% "
        f"above connectivity; ANOVA significant on {significant}/5 seeds"
    )


def test_criterion_8_anova_numeric_correctness():
    """The golden 3x20 dataset reproduces the independent oracle's F and p to
    1e-6 relative; identical groups give F = 0; the sum-of-squares identity
    holds to 1e-9 relative on 1,000 random datasets."""
    result = anova_oneway([GOLDEN_G1, GOLDEN_G2, GOLDEN_G3])
    assert result.f_statistic == pytest.approx(GOLDEN_F, rel=1e-6)
    assert result.p_value == pytest.approx(GOLDEN_P, rel=1e-6)
    live_f, live_p = scipy_stats.f_oneway(GOLDEN_G1, GOLDEN_G2, GOLDEN_G3)
    assert result.f_statistic == pytest.approx(float(live_f), rel=1e-6)
    assert result.p_value == pytest.approx(float(live_p), rel=1e-6)

    same = [1.0, 2.0, 3.0]
    assert anova_oneway([same, list(same), list(same)]).f_statistic == pytest.approx(0.0, abs=1e-12)

    rng = random.Random(88)
    for _ in range(1_000):
        groups = [
            [rng.gauss(rng.uniform(-3, 3), rng.uniform(0.5, 2)) for _ in range(rng.randint(2, 15))]
            for _ in range(rng.randint(2, 6))
        ]
        ss_b, ss_w, ss_t = sum_of_squares(groups)
        assert ss_b + ss_w == pytest.approx(ss_t, rel=1e-9, abs=1e-12)
    print("\nACCEPTANCE 8 PASS: ANOVA matches oracle to 1e-6; SS identity to 1e-9")


def test_criterion_9_determinism_and_replay(tmp_path):
    """Equal seeds reproduce byte-identical event logs, and replay verifies
    the recorded trace hash from summary.json alone."""
    scn = mini_scenario(6, duration=2.0)
    plan = FaultPlan(drop_prob=0.05)
    report1, result1 = run_experiment(scn, ProtocolKind.HYBRID, plan, 99)
    report2, result2 = run_experiment(scn, ProtocolKind.HYBRID, plan, 99)
    paths1 = export(report1, result1, tmp_path / "a", scn, plan)
    paths2 = export(report2, result2, tmp_path / "b", scn, plan)
    assert paths1["events"].read_bytes() == paths2["events"].read_bytes()
    assert report1.trace_hash == report2.trace_hash

    matches, recorded, recomputed = replay(paths1["summary"])
    assert matches and recorded == recomputed
    print(f"\nACCEPTANCE 9 PASS: byte-identical logs; replay verified {recorded[:16]}…")


def test_criterion_10_kinematics():
    """The step function tracks the closed-form constant-acceleration
    trajectory to 1e-9 relative over 1,000 steps (from a start well inside
    the area, where neither a boundary nor the speed clamp acts), and speed
    never exceeds 50 m/s across 100,000 randomized property steps."""
    cfg = MobilityConfig(dt=0.1)
    area = AreaBounds(0.0, 25_000.0, 0.0, 25_000.0, 50.0, 500.0)
    p0, v0, a = Vec3(12_000.0, 12_000.0, 200.0), Vec3(3.0, 1.0, -0.5), Vec3(0.04, -0.03, 0.01)
    state = KinematicState(position=p0, velocity=v0)
    steps = 1_000
    for _ in range(steps):
        state = step(state, a, cfg, area)
    t = steps * cfg.dt
    for axis in ("x", "y", "z"):
        expected = getattr(p0, axis) + getattr(v0, axis) * t + 0.5 * getattr(a, axis) * t * t
        assert getattr(state.position, axis) == pytest.approx(expected, rel=1e-9)

    rng = random.Random(55)
    state = KinematicState(position=Vec3(12_000, 12_000, 200))
    checked = 0
    for _ in range(100_000):
        accel = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-2, 2))
        state = step(state, accel, cfg, area)
        assert state.velocity.norm() <= cfg.v_max + 1e-9
        checked += 1
    print(f"\nACCEPTANCE 10 PASS: closed-form match to 1e-9; speed bound held on {checked} steps")


@pytest.mark.parametrize("n", [12, 20])
def test_service_bound_block_rate(n):
    """Where the validators' inbound queues bind, the block rate is the
    closed-form service bound (mu - lambda) / (2(n - 1) + 1).

    Each validator serves mu = service_rate_msgs_per_s messages a second.
    Every offered tx is forwarded to every validator, lambda a second in all,
    and each block costs a validator one pre-prepare, n - 1 prepares and
    n - 1 commits.  A saturated queue serves lambda + b (2(n - 1) + 1) = mu
    messages a second, so the block rate b is at most the bound.  The formula
    also counts two messages no validator receives: its own txs, and, as
    proposer, its own pre-prepare.  The measured rate may therefore pass the
    bound by a fraction of a percent, which the 1% upper slack allows; the
    5% lower slack allows for service the queues leave idle."""
    for seed in (1, 2):
        scn = build_hurricane_scenario({"duration_s": 5.0, "consensus.n_validators": n})
        report, _ = run_experiment(scn, ProtocolKind.HYBRID, FaultPlan(), seed)
        mu = scn.service.service_rate_msgs_per_s
        lam = report.txs_offered / report.duration_s
        bound = (mu - lam) / (2 * (n - 1) + 1)
        # The pacing cap is loose, so the queues bind.
        assert bound < 1.0 / scn.consensus.min_block_interval_s
        ratio = report.blocks_committed / report.duration_s / bound
        assert 0.95 <= ratio <= 1.01, (seed, ratio)
        print(f"\nSERVICE BOUND PASS: n={n} seed={seed} measured/bound {ratio:.3f}")
