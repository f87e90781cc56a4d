"""Measurement apparatus: update records, MRT-flavoured archives, logs."""

from .record import (
    PrefixAs,
    UpdateKind,
    UpdateRecord,
    flatten_update,
)
from .mrt import MAGIC, MrtError, read_records, write_records
from .log import CountingLog, FileLog, MemoryLog
from .mrt_rfc import (
    SessionEvent,
    read_bgp4mp,
    read_state_changes,
    write_bgp4mp,
    write_state_changes,
)
from .store import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
)

__all__ = [
    "PrefixAs",
    "UpdateKind",
    "UpdateRecord",
    "flatten_update",
    "MAGIC",
    "MrtError",
    "read_records",
    "write_records",
    "CountingLog",
    "FileLog",
    "MemoryLog",
    "SessionEvent",
    "read_bgp4mp",
    "read_state_changes",
    "write_state_changes",
    "write_bgp4mp",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
]
