"""Simulator of cascaded nondestructive single-photon detection with atom-cavity nodes."""

from .channel import ChannelParams, detection_path, fiber_channel
from .detectors import DetectorParams, hbt_split_and_count
from .errors import (
    ConfigError,
    QndsimError,
    SubsystemError,
    TruncationError,
    ZeroProbabilityError,
)
from .estimators import (
    CELLS,
    EstimateRow,
    EstimateTable,
    G2Row,
    SnrReport,
    g2_from_numbers,
    g2_table,
    snr,
    sweep_estimates,
)
from .fock import (
    FockSpace,
    JointState,
    ModeState,
    beam_splitter,
    coherent_state,
    fock_state,
    loss_channel,
    moments,
    partial_trace,
)
from .node import (
    AtomReadout,
    CqedParams,
    NodeImperfections,
    ReflectionPair,
    dephase,
    detect_state,
    prepare,
    reflect,
    reflection_coefficients,
    reflection_pair,
    rotate,
)
from .protocol import (
    ExperimentConfig,
    JointDistribution,
    NodeConfig,
    Outcome,
    branch_photon_numbers,
    conditioned_photon_state,
    run_cascade,
    run_single,
)
from .sorter import (
    FeedForwardBasis,
    SorterConfig,
    SorterResult,
    feed_forward_basis,
    herald_confusion_matrix,
    run_sorter,
)

__version__ = "0.1.0"
