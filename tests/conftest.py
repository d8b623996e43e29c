from dataclasses import replace

import pytest

from uavchain.consensus import Mission, ProposerPolicy, ProtocolKind, elect_validators
from uavchain.domain import Prepare, signed_message
from uavchain.faults import ByzantineStrategy, FaultPlan
from uavchain.mobility import AreaBounds, KinematicState, MobilityConfig, Vec3
from uavchain.radio import LinkBudgetParams, NodeServiceProfile
from uavchain.scenario import ClusterSpec, ConsensusParams, Region, Scenario, WorkloadParams, deploy_fleet
from uavchain.simnet import NodeQueue, Simulation


def mini_scenario(
    n: int,
    duration: float = 2.5,
    jitter: float = 0.0,
    tx_rate: float = 2.0,
    policy: ProposerPolicy = ProposerPolicy.STAKE_WEIGHTED,
    timeout_s: float = 0.25,
    reelect_every: int = 10**9,
    trace_detail: str = "events",
) -> Scenario:
    """Tiny all-validator scenario for fast consensus-level runs."""
    return Scenario(
        area=AreaBounds(0.0, 5_000.0, 0.0, 5_000.0, 50.0, 300.0),
        fleet={Mission.CONNECTIVITY: ClusterSpec(n, Region(500.0, 4_500.0, 500.0, 4_500.0), stake=1.0)},
        radio=LinkBudgetParams(),
        mobility=MobilityConfig(),
        service=NodeServiceProfile(proc_latency_s=0.0005, service_rate_msgs_per_s=2_000.0),
        consensus=ConsensusParams(
            n_validators=n,
            policy=policy,
            timeout_s=timeout_s,
            max_txs_per_block=8,
            min_block_interval_s=0.05,
            reelect_every_blocks=reelect_every,
            vote_bits=512,
            header_bits=1024,
        ),
        workload=WorkloadParams(tx_rate_per_uav=tx_rate, payload_bits=4096),
        duration_s=duration,
        extra_delay_jitter_s=jitter,
        trace_detail=trace_detail,
    )


def swapping_reelection() -> tuple[Scenario, FaultPlan]:
    """Seven of ten UAVs validate and the top-scored one stays silent, so its
    history drops and a re-election, one per three blocks, votes it out for
    a UAV outside the committee (run with seed 2: node 4 in, node 1 out).
    The joiner starts at the committed tip in the tip block's view, takes
    its turns and stays a member."""
    scn = mini_scenario(10, duration=4.0, reelect_every=3)
    scn = replace(scn, consensus=replace(scn.consensus, n_validators=7))
    profiles = [u.profile for u in sorted(deploy_fleet(scn, 2), key=lambda u: u.profile.node)]
    first = elect_validators(profiles, scn.consensus.weights, 7).members[0].node
    return scn, FaultPlan(byzantine={first: ByzantineStrategy.SILENT})


@pytest.fixture
def small_scenario() -> Scenario:
    return mini_scenario(4, duration=2.0)


def link_deliveries(
    distance: float,
    sizes: list[int],
    service: NodeServiceProfile,
    radio: LinkBudgetParams = LinkBudgetParams(),
) -> tuple[list[float], NodeQueue]:
    """Send one message of each size in ``sizes`` (bits), all at t = 0 and in
    that order, between two nodes ``distance`` m apart through the
    simulator's own transport, and run it.  Returns the delivered messages'
    latencies from the trace, in delivery order, and the receiver's queue.
    Nothing else is sent: there is no workload, and the first proposal and
    view change fall after the run."""
    scn = mini_scenario(4, duration=1.0, tx_rate=0.0, timeout_s=10.0, trace_detail="full")
    scn = replace(scn, radio=radio, service=service, consensus=replace(scn.consensus, min_block_interval_s=10.0))
    sim = Simulation(scn, FaultPlan(), ProtocolKind.HYBRID, 1)
    src, dst = sorted(sim.nodes)[:2]
    for node_id, position in ((src, Vec3(0.0, 0.0, 100.0)), (dst, Vec3(distance, 0.0, 100.0))):
        sim.nodes[node_id].kin = KinematicState(position=position)
        sim.nodes[node_id].reported = position
    msg = signed_message(src, Prepare(b"\x00" * 32, 1, 0))
    for bits in sizes:
        sim._send(msg, src, [dst], bits)
    result = sim.run()
    latencies = [r["latency"] for r in result.trace.by_kind("deliver")]
    return latencies, sim.nodes[dst].queue
