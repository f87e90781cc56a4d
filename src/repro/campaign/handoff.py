"""Shard handoff: digest-verified descriptors across the pool.

A pool worker does not return its shard's
:class:`~repro.campaign.results.PartialResult` as a pickle of every
aggregate.  It publishes the canonical result payload — the exact
bytes the manifest digests — and returns a small
:class:`ShardHandoff` carrying counts, chunk descriptors, and a
sha256; the parent collects the payload, verifies the digest, and
folds it incrementally.

Transports, picked by whether the campaign has an output directory:

- ``file``: it does — the worker writes the shard's result file
  itself (the same bytes the manifest will digest), so the payload
  crosses processes via the filesystem.
- ``inline``: in-memory campaigns — the canonical bytes (tens of
  kilobytes per shard) ride inside the descriptor.

Digest verification happens in the parent for both transports, so a
torn file or a corrupted descriptor surfaces as :class:`HandoffError`
instead of a silently wrong merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from .config import ShardSpec, canonical_json, sha256_text
from .manifest import CampaignLayout

__all__ = [
    "HandoffError",
    "ShardHandoff",
    "TRANSFERABLE_TYPES",
    "publish_partial",
    "collect_partial",
]


class HandoffError(RuntimeError):
    """A worker's published payload failed retrieval or digest check."""


@dataclass(slots=True)
class ShardHandoff:
    """What a pool worker returns: a lightweight shard descriptor.

    ``nbytes`` is the payload's UTF-8 length.  ``chunks`` carries the
    per-day spill-chunk descriptors destined for the manifest.
    """

    index: int
    records: int
    result_sha256: str
    nbytes: int
    transport: str  # "file" | "inline"
    chunks: List[dict] = field(default_factory=list)
    inline: Optional[bytes] = None


#: Process-boundary contract (CON001): the descriptor is the only
#: project type this module lets cross a worker seam — payload bytes
#: travel as a file or inside it and are digest-verified on arrival.
TRANSFERABLE_TYPES = (ShardHandoff,)


def publish_partial(
    spec: ShardSpec,
    payload: dict,
    records: int,
    chunks: List[dict],
    layout: Optional[CampaignLayout],
) -> ShardHandoff:
    """Worker side: persist/stash the payload, return its descriptor."""
    text = canonical_json(payload)
    blob = text.encode("utf-8")
    if layout is not None:
        layout.write_result(spec, text)
    return ShardHandoff(
        index=spec.index,
        records=records,
        result_sha256=sha256_text(text),
        nbytes=len(blob),
        transport="file" if layout is not None else "inline",
        chunks=chunks,
        inline=None if layout is not None else blob,
    )


def collect_partial(
    handoff: ShardHandoff,
    layout: Optional[CampaignLayout],
    spec: ShardSpec,
) -> dict:
    """Parent side: retrieve the payload, verify its digest, parse."""
    if handoff.transport == "file":
        if layout is None:
            raise HandoffError(
                f"shard {handoff.index}: file transport without a layout"
            )
        try:
            text = layout.read_result(spec)
        except OSError as exc:
            raise HandoffError(
                f"shard {handoff.index}: result file unreadable: {exc}"
            ) from exc
    elif handoff.transport == "inline":
        text = (handoff.inline or b"").decode("utf-8")
    else:
        raise HandoffError(
            f"shard {handoff.index}: unknown transport "
            f"{handoff.transport!r}"
        )
    if sha256_text(text) != handoff.result_sha256:
        raise HandoffError(
            f"shard {handoff.index}: payload digest mismatch over "
            f"{handoff.transport} transport"
        )
    return json.loads(text)
