"""gridshare: RE-accurate LTE/5G/6G spectrum-sharing coexistence modeling."""

from .budget import (
    BudgetRow,
    DssLayout,
    OverheadReport,
    OverheadRow,
    default_dmrs_symbols,
    downlink_re,
    dss_pool_by_grid,
    dss_pool_per_prb,
    dss_table,
    nr_overhead,
    verify_overhead_by_grid,
)
from .errors import (
    ConfigError,
    ConflictError,
    GridShareError,
    PlacementError,
    ScenarioError,
)
from .grid import (
    CarrierConfig,
    Lattice,
    Numerology,
    ReLabel,
    ResourceGrid,
    SlotKind,
    TddPattern,
    count_labels,
    make_grid,
)
from .lte import LteCellConfig, apply_lte
from .mrss import (
    ControlMode,
    ControlModeKind,
    Mitigation,
    MrssCategoryMap,
    SchedPolicy,
    SimResult,
    TrafficModel,
    classify_mrss,
    neighbor_interference,
    place_6g_ssb,
    reserve_iot,
    simulate,
)
from .nr import (
    BeamSignal,
    Coreset1Spec,
    CsiRsSpec,
    NrOverlaySet,
    TrsSpec,
    apply_nr,
)
from .scenario import Scenario, emit_scenario, parse_scenario

__version__ = "0.1.0"
