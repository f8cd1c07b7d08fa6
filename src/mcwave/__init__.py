"""Discrete-event simulator and analytical toolkit for emergency-message
dissemination across a synchronized multi-channel vehicular MAC."""

from .analytics import (
    SCHEME_CMD,
    SCHEME_LEGACY,
    SCHEME_WSD,
    SCHEMES,
    DelayBreakdown,
    QueueParams,
    hop_delay,
    optimal_decision_interval,
    total_dissemination_delay,
)
from .config import ConfigError, ExperimentConfig, FullConfig, default_config, load_config
from .coordination import average_distance_to_sch, elect_coordinators
from .dissemination import (
    DisseminationReport,
    EmergencyMessage,
    SchemeConfig,
    legacy_wait,
    run_scheme,
    wsd_schedule,
)
from .engine import Phase, SyncIntervalConfig
from .experiment import (
    MetricsRow,
    MetricsTable,
    RunResult,
    compute_ptr,
    reachability_cdf,
    run_experiment,
    run_sweep,
)
from .mac import MacParams, frame_airtime
from .mobility import MobilityConfig, MobilityModel, RoadNetwork
from .radio import RadioParams, TrafficParams, carrier_sense_range
from .simulation import ContentionArena, Frame, SiSnapshot, World

__version__ = "0.1.0"
