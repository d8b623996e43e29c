"""Deterministic discrete-event simulator of blockchain-coordinated UAV
fleets: hybrid DPoS-PBFT consensus, a physics-based message latency model,
and an attack-injection harness."""

from .consensus import (
    Mission,
    ProposerPolicy,
    ProtocolConfig,
    ProtocolKind,
    ScoreWeights,
    UavProfile,
    ValidatorSet,
    elect_validators,
    handle_message,
    on_timeout,
    proposer_distribution,
    quorum_threshold,
    select_proposer,
    validator_score,
)
from .domain import (
    Block,
    ConsensusMessage,
    NodeId,
    Signature,
    Transaction,
    hash_block,
    sign,
    verify,
)
from .faults import ByzantineStrategy, DdosWindow, FaultPlan, SpoofWindow
from .harness import (
    MetricsReport,
    anova_oneway,
    build_desk_scenario,
    build_hurricane_scenario,
    canonical_fault_plan,
    compare_protocols,
    compute_metrics,
    export,
    replay,
    run_experiment,
)
from .mobility import KinematicState, MobilityConfig, Vec3, apply_spoofing, sample_waypoint, step
from .radio import LinkBudgetParams, NodeServiceProfile, capacity, snr
from .scenario import Scenario, load_scenario, save_scenario
from .simnet import EventTrace, RunResult, Simulation, run
from .stats import AnovaResult

__version__ = "0.1.0"
