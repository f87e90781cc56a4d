"""Measurement apparatus: update records, MRT-flavoured archives, logs."""

from .record import (
    PrefixAs,
    UpdateKind,
    UpdateRecord,
    count_by_kind,
    flatten_update,
    iter_sorted,
    unique_prefixes,
)
from .mrt import MAGIC, MrtError, read_records, write_records
from .log import CountingLog, FileLog, MemoryLog
from .mrt_rfc import (
    SessionEvent,
    read_bgp4mp,
    read_state_changes,
    read_table_dump,
    write_bgp4mp,
    write_state_changes,
    write_table_dump,
)
from .snapshot import (
    SnapshotDiff,
    TableSnapshot,
    diff_snapshots,
    dump_table,
    load_table,
    snapshot,
)
from .store import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    day_of,
)

__all__ = [
    "PrefixAs",
    "UpdateKind",
    "UpdateRecord",
    "count_by_kind",
    "flatten_update",
    "iter_sorted",
    "unique_prefixes",
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
    "read_table_dump",
    "write_bgp4mp",
    "write_table_dump",
    "SnapshotDiff",
    "TableSnapshot",
    "diff_snapshots",
    "dump_table",
    "load_table",
    "snapshot",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "day_of",
]
