"""Shard manifests: the campaign's resume ledger.

A campaign output directory is laid out as::

    <out>/
      campaign.json                   # config fingerprint + payload
      shards/shard-0003/day-0012.rcol # one spill chunk per day
      results/shard-0003.json         # the shard's PartialResult payload
      manifest/shard-0003.json        # written LAST, marks the shard done

Each manifest entry (schema 2) records the shard spec (exchange, day
range, seeds), the record count, a descriptor per day chunk (file,
rows, sha256), and the result payload's digest.  Because the manifest
file is written only after the chunks and result are safely on disk, a
killed run leaves at worst unmanifested state — which a resumed run
recomputes, reusing any day chunks whose digests still verify.  On
``--resume`` the runner loads every manifested shard whose digests
verify and re-runs only the rest, so finished days are never
regenerated.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

from ..core.spill import ChunkCorrupt, verify_chunk
from .config import CampaignConfig, ShardSpec, canonical_json, sha256_text
from .results import PartialResult

__all__ = [
    "CampaignLayout",
    "ConfigMismatch",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 2


class ConfigMismatch(RuntimeError):
    """Raised when resuming into an output directory whose recorded
    config fingerprint differs from the requested config."""


class CampaignLayout:
    """Path scheme + manifest IO for one campaign output directory."""

    def __init__(self, out: Union[str, Path]) -> None:
        self.root = Path(out)
        self.shards_dir = self.root / "shards"
        self.results_dir = self.root / "results"
        self.manifest_dir = self.root / "manifest"
        self.campaign_file = self.root / "campaign.json"

    def prepare(self) -> None:
        for directory in (
            self.root, self.shards_dir, self.results_dir, self.manifest_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -- per-shard paths ----------------------------------------------------

    def chunk_dir(self, spec: ShardSpec) -> Path:
        return self.shards_dir / spec.name

    def chunk_path(self, spec: ShardSpec, day: int) -> Path:
        return self.chunk_dir(spec) / f"day-{day:04d}.rcol"

    def chunk_relpath(self, spec: ShardSpec, day: int) -> str:
        """The manifest's root-relative chunk reference."""
        return os.path.join("shards", spec.name, f"day-{day:04d}.rcol")

    def result_path(self, spec: ShardSpec) -> Path:
        return self.results_dir / f"{spec.name}.json"

    def manifest_path(self, spec: ShardSpec) -> Path:
        return self.manifest_dir / f"{spec.name}.json"

    # -- campaign fingerprint -----------------------------------------------

    def write_campaign(self, config: CampaignConfig) -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "fingerprint": config.fingerprint(),
            "config": config.to_payload(),
        }
        self.campaign_file.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def check_campaign(self, config: CampaignConfig) -> None:
        """Verify a pre-existing directory matches ``config`` (no file
        yet is fine — a fresh run writes one)."""
        if not self.campaign_file.exists():
            return
        recorded = json.loads(self.campaign_file.read_text())
        if recorded.get("fingerprint") != config.fingerprint():
            raise ConfigMismatch(
                f"{self.campaign_file} was written by a different "
                "CampaignConfig; refusing to mix shards (use a fresh "
                "--out, or rerun with the original parameters)"
            )

    # -- shard completion ---------------------------------------------------

    def write_result(self, spec: ShardSpec, result_text: str) -> None:
        """Persist the shard's canonical result payload (worker-side
        in the pool path; the manifest still comes from the parent)."""
        self.result_path(spec).write_text(result_text + "\n")

    def read_result(self, spec: ShardSpec) -> str:
        """The persisted canonical result text (raises OSError when
        missing — callers decide what absence means)."""
        return self.result_path(spec).read_text().rstrip("\n")

    def write_manifest(
        self,
        spec: ShardSpec,
        records: int,
        chunks: List[dict],
        result_sha256: str,
        before_manifest: Optional[Callable[[], None]] = None,
    ) -> None:
        """Mark a shard done; the manifest entry goes last so its
        presence implies the chunks and result are durable.

        ``before_manifest`` (the chaos layer's fault point) runs after
        the result is on disk but before the manifest exists — a kill
        there must leave a shard that resume treats as incomplete.
        """
        if before_manifest is not None:
            before_manifest()
        manifest = {
            "schema": SCHEMA_VERSION,
            **spec.to_payload(),
            "records": records,
            "chunks": chunks,
            "result": os.path.join("results", f"{spec.name}.json"),
            "result_sha256": result_sha256,
        }
        self.manifest_path(spec).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

    def write_shard(
        self,
        spec: ShardSpec,
        partial_payload: dict,
        records: int,
        chunks: List[dict],
        before_manifest: Optional[Callable[[], None]] = None,
    ) -> None:
        """Persist one finished shard (result, then manifest)."""
        result_text = canonical_json(partial_payload)
        self.write_result(spec, result_text)
        self.write_manifest(
            spec,
            records,
            chunks,
            sha256_text(result_text),
            before_manifest=before_manifest,
        )

    def _verify_chunks(self, chunks: object) -> bool:
        """True when every manifested chunk descriptor checks out
        against the file on disk (existence, row count, digest)."""
        if not isinstance(chunks, list):
            return False
        for entry in chunks:
            if not isinstance(entry, dict):
                return False
            relpath = entry.get("file")
            if not isinstance(relpath, str):
                return False
            try:
                info = verify_chunk(self.root / relpath)
            except ChunkCorrupt:
                return False
            if info.rows != entry.get("rows"):
                return False
            if info.sha256 != entry.get("sha256"):
                return False
        return True

    def load_shard(self, spec: ShardSpec) -> Optional[PartialResult]:
        """The shard's persisted partial, or None when it is missing,
        stale (spec mismatch), or fails digest verification — of the
        result payload and of every recorded day chunk (a truncated or
        corrupted chunk invalidates the shard, so resume recomputes it
        instead of trusting a damaged file)."""
        manifest_path = self.manifest_path(spec)
        result_path = self.result_path(spec)
        if not (manifest_path.exists() and result_path.exists()):
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            # Unreadable or mangled manifest (e.g. a crash or disk
            # corruption mid-write): the shard is simply not done.
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("schema") != SCHEMA_VERSION:
            return None
        if {k: manifest.get(k) for k in spec.to_payload()} != spec.to_payload():
            return None
        try:
            result_text = result_path.read_text().rstrip("\n")
        except (OSError, UnicodeDecodeError):
            return None
        if sha256_text(result_text) != manifest.get("result_sha256"):
            return None
        if not self._verify_chunks(manifest.get("chunks")):
            return None
        return PartialResult.from_payload(json.loads(result_text))

    def iter_completed(
        self, plan
    ) -> Iterator[Tuple[ShardSpec, PartialResult]]:
        """Verifiably finished shards of ``plan``, streamed in plan
        order so the runner folds them one at a time instead of
        holding every loaded partial at once."""
        for spec in plan:
            partial = self.load_shard(spec)
            if partial is not None:
                yield spec, partial
