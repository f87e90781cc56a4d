"""Update-log sinks and sources.

A *sink* is anywhere the simulator's route servers write observed
updates; a *source* replays them into analyses.  The in-process
list, :class:`~repro.collector.record.MemoryLog`, sits beside the
record type so the simulator loads no codec; this module holds the
other two sinks:

- :class:`FileLog` — streaming RFC 6396 MRT archive on disk, for
  long-horizon generated traces.
- :class:`CountingLog` — keeps only aggregate counters (per peer, per
  kind), for simulations where record retention would dominate memory.

All sinks implement ``append(record)`` / ``extend(records)``; sources
are simply iterables of :class:`UpdateRecord`.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, Union

from .mrt import (
    read_column_batches,
    read_records,
    write_columns,
    write_records,
)
from .record import UpdateKind, UpdateRecord

__all__ = ["FileLog", "CountingLog"]


class FileLog:
    """A disk-backed MRT update log (the format of
    :mod:`repro.collector.mrt`, which ``python -m repro classify``
    reads).

    Use as a context manager for writing::

        with FileLog(path).writer() as log:
            log.append(record)

    and iterate the instance to read back.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def writer(self) -> "_FileLogWriter":
        return _FileLogWriter(self.path)

    def __iter__(self) -> Iterator[UpdateRecord]:
        with open(self.path, "rb") as stream:
            yield from read_records(stream)

    def iter_column_batches(self, batch_size: int = 65536, attrs=None):
        """Decode the archive into columnar
        :class:`~repro.core.columns.RecordColumns` batches of up to
        ``batch_size`` rows (no per-record objects)."""
        with open(self.path, "rb") as stream:
            yield from read_column_batches(stream, batch_size, attrs)


class _FileLogWriter:
    """Streaming writer for :class:`FileLog` (context manager)."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._stream = None
        self.count = 0

    def __enter__(self) -> "_FileLogWriter":
        self._stream = open(self._path, "wb")
        return self

    def append(self, record: UpdateRecord) -> None:
        self.extend((record,))

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        self.count += write_records(self._stream, records)

    def extend_columns(self, columns) -> None:
        """Serialize a whole :class:`RecordColumns` batch (the on-disk
        bytes match record-at-a-time appends of the same stream)."""
        self.count += write_columns(self._stream, columns)

    def __exit__(self, *exc_info) -> None:
        self._stream.close()
        self._stream = None


class CountingLog:
    """Aggregate-only sink: per-peer-AS announce/withdraw counters plus
    distinct-prefix tracking.  Enough to produce Table-1-style rows
    without retaining the record stream."""

    def __init__(self) -> None:
        self.announces: Counter = Counter()
        self.withdraws: Counter = Counter()
        self._prefixes: Dict[int, set] = {}
        self.total = 0

    def append(self, record: UpdateRecord) -> None:
        asn = record.peer_asn
        if record.kind is UpdateKind.ANNOUNCE:
            self.announces[asn] += 1
        else:
            self.withdraws[asn] += 1
        self._prefixes.setdefault(asn, set()).add(record.prefix)
        self.total += 1

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        for record in records:
            self.append(record)

    def unique_prefixes(self, asn: int) -> int:
        return len(self._prefixes.get(asn, ()))

    def row(self, asn: int) -> Dict[str, int]:
        """A Table-1 row for one peer AS."""
        return {
            "announce": self.announces.get(asn, 0),
            "withdraw": self.withdraws.get(asn, 0),
            "unique": self.unique_prefixes(asn),
        }
