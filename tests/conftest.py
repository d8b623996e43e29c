import pytest

from uavchain.consensus import Mission, ProposerPolicy
from uavchain.mobility import AreaBounds, MobilityConfig
from uavchain.radio import LinkBudgetParams, NodeServiceProfile
from uavchain.scenario import ClusterSpec, ConsensusParams, Region, Scenario, WorkloadParams


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
    area = AreaBounds(0.0, 5_000.0, 0.0, 5_000.0, 50.0, 300.0)
    return Scenario(
        area=area,
        fleet={Mission.CONNECTIVITY: ClusterSpec(n, Region(500.0, 4_500.0, 500.0, 4_500.0), stake=1.0)},
        radio=LinkBudgetParams(),
        mobility=MobilityConfig(area=area),
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


@pytest.fixture
def small_scenario() -> Scenario:
    return mini_scenario(4, duration=2.0)
