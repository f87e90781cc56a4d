"""Long-horizon workload synthesis: calibration constants, the diurnal
usage model, incident schedules, and the statistical trace generator."""

from .calibration import FIGURE2_CATEGORY_MIX, PAPER, PaperConstants
from .diurnal import DiurnalModel, day_of_week, hour_of_day
from .incidents import (
    BINS_PER_DAY,
    Incident,
    IncidentSchedule,
    default_campaign_schedule,
)
from .generator import (
    DayPlan,
    GeneratorTargets,
    PeerInfo,
    PeerPopulation,
    TraceGenerator,
)

__all__ = [
    "FIGURE2_CATEGORY_MIX",
    "PAPER",
    "PaperConstants",
    "DiurnalModel",
    "day_of_week",
    "hour_of_day",
    "BINS_PER_DAY",
    "Incident",
    "IncidentSchedule",
    "default_campaign_schedule",
    "DayPlan",
    "GeneratorTargets",
    "PeerInfo",
    "PeerPopulation",
    "TraceGenerator",
]
