"""The execution tier: vectorized record batches and the classifier.

One Python object per update is CPU-bound on object churn at the
paper's scale (3–6 million updates/day for nine months), so records
are processed in columnar form: a :class:`RecordColumns` batch holds
an entire day (or month) of updates as NumPy structured arrays

    ``time:f8, peer_id:u4, peer_asn:u4, net:u4, plen:u1, kind:u1,
    attr_id:u4``

plus an :class:`AttributeTable` interning the distinct
:class:`~repro.bgp.attributes.PathAttributes` bundles (real update
streams repeat a tiny attribute vocabulary millions of times — the
paper's logs carry ~1,500 unique ASPATHs against millions of updates).

On top of the layout, :func:`classify_columns` applies the paper's
§4.1 taxonomy with array operations.  It tracks, for every
``(peer_id, prefix)`` route, whether the route is currently
*reachable* via that peer and the last announced attributes (kept
across withdrawals, so a re-announcement can be told WADup from
WADiff): records are grouped per route by a stable sort, per-group
predecessor state is derived with cumulative array ops, and the
taxonomy transition table is applied to whole masks at once.  A
duplicate is "the receipt of two or more updates with identical
(Prefix, NextHop, ASPATH) tuple information"; announcements that
repeat the forwarding tuple but alter other attributes are flagged
``policy`` — the paper's *policy fluctuation*.
:class:`ColumnClassifier` carries the per-route state across batches,
so a month classified day by day labels exactly as one continuous
stream.

This is the only production classifier; the dependency-free oracle in
:mod:`repro.verify.reference` is the one second implementation it is
held to.  Conversions to and from
:class:`~repro.collector.record.UpdateRecord` streams are lossless.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..bgp.attributes import PathAttributes, attribute_tuple, bundle_attributes
from ..collector.record import UpdateKind, UpdateRecord
from ..net.prefix import Prefix
from .routestate import route_state_digest
from .taxonomy import UpdateCategory

__all__ = [
    "RECORD_DTYPE",
    "NO_ATTR",
    "CATEGORY_OF_CODE",
    "AttributeTable",
    "RecordColumns",
    "ColumnClassifier",
    "classify_columns",
    "decode_categories",
    "first_of_run",
    "group_order",
    "prefix_key",
    "route_groups",
    "stable_argsort",
]

#: The columnar record layout.  ``net``/``plen`` unpack a prefix;
#: ``attr_id`` indexes the batch's :class:`AttributeTable` (``NO_ATTR``
#: for withdrawals, which carry no attributes).
RECORD_DTYPE = np.dtype(
    [
        ("time", "f8"),
        ("peer_id", "u4"),
        ("peer_asn", "u4"),
        ("net", "u4"),
        ("plen", "u1"),
        ("kind", "u1"),
        ("attr_id", "u4"),
    ]
)

#: Sentinel attr_id for withdrawals.
NO_ATTR = np.uint32(0xFFFFFFFF)

#: :func:`stable_argsort` repairs ties while fewer than one row in
#: this many is tied; past that the stable sort is the cheaper way to
#: finish (on 120 k float64 rows the repair costs the stable sort's
#: 12 ms once about half the rows are tied).
_TIE_REPAIR_SHARE = 2

_ANNOUNCE = int(UpdateKind.ANNOUNCE)
_WITHDRAW = int(UpdateKind.WITHDRAW)

#: Category lookup by numeric code (``UpdateCategory.value``); index 0
#: is unused so codes match the enum values exactly.
CATEGORY_OF_CODE: Tuple[Optional[UpdateCategory], ...] = (None,) + tuple(
    sorted(UpdateCategory, key=lambda c: c.value)
)


def decode_categories(codes: np.ndarray) -> List[UpdateCategory]:
    """Numeric category codes → :class:`UpdateCategory` objects."""
    return [CATEGORY_OF_CODE[int(code)] for code in codes]


class AttributeTable:
    """Interning table: ``attr_id`` → attribute bundle.

    A bundle's one key is its :func:`attribute_tuple`: equal bundles
    intern to the same id, so full-equality tests reduce to integer
    comparison.  The table additionally interns each bundle's
    *forwarding key* ``(next_hop, as_path)`` — the tuple whose change
    constitutes forwarding instability — so a forwarding comparison
    reduces to comparing :attr:`fwd_ids` entries.  Every bundle's tuple
    is held; its :class:`PathAttributes` object is held once interned
    as one (:meth:`intern`) or built on first ``table[i]``.
    """

    __slots__ = ("_attrs", "_tuples", "_ids", "_fwd", "_fwd_ids", "_fwd_array")

    def __init__(self) -> None:
        self._attrs: List[Optional[PathAttributes]] = []
        self._tuples: List[tuple] = []
        self._ids: Dict[tuple, int] = {}
        self._fwd: Dict[tuple, int] = {}
        self._fwd_ids: List[int] = []
        self._fwd_array: Optional[np.ndarray] = None

    @classmethod
    def from_tuples(cls, tuples: List[tuple]) -> "AttributeTable":
        """The table whose bundle ``i`` has :func:`attribute_tuple`
        ``tuples[i]``; ``ValueError`` if one repeats (ids would merge)."""
        table = cls()
        table._ids = dict(zip(tuples, range(len(tuples))))
        if len(table._ids) != len(tuples):
            raise ValueError("repeated attribute bundle; ids would remap")
        table._tuples = list(tuples)
        table._attrs = [None] * len(tuples)
        fwd = table._fwd
        table._fwd_ids = [fwd.setdefault(t[:2], len(fwd)) for t in tuples]
        return table

    def intern_tuple(self, bundle: tuple) -> int:
        """The id of the bundle whose :func:`attribute_tuple` is
        ``bundle``, adding it to the table if new."""
        # setdefault: a miss hashes the bundle once, not twice.
        attr_id = self._ids.setdefault(bundle, len(self._tuples))
        if attr_id == len(self._tuples):
            self._tuples.append(bundle)
            self._attrs.append(None)
            fwd = self._fwd
            self._fwd_ids.append(fwd.setdefault(bundle[:2], len(fwd)))
            self._fwd_array = None
        return attr_id

    def intern(self, attrs: PathAttributes) -> int:
        """The id of ``attrs``, adding it to the table if new."""
        attr_id = self.intern_tuple(attribute_tuple(attrs))
        if self._attrs[attr_id] is None:
            self._attrs[attr_id] = attrs
        return attr_id

    def __getitem__(self, attr_id: int) -> PathAttributes:
        attrs = self._attrs[attr_id]
        if attrs is None:
            attrs = self._attrs[attr_id] = bundle_attributes(
                self._tuples[attr_id]
            )
        return attrs

    def tuple_of(self, attr_id: int) -> tuple:
        """The :func:`attribute_tuple` of bundle ``attr_id``."""
        return self._tuples[attr_id]

    def __len__(self) -> int:
        return len(self._attrs)

    @property
    def fwd_ids(self) -> np.ndarray:
        """``fwd_ids[attr_id]`` — the interned forwarding-key id."""
        if self._fwd_array is None or len(self._fwd_array) != len(self._fwd_ids):
            self._fwd_array = np.asarray(self._fwd_ids, dtype=np.uint32)
        return self._fwd_array


class RecordColumns:
    """A batch of update records in columnar form.

    ``data`` is a :data:`RECORD_DTYPE` structured array; ``attrs`` the
    attribute intern table its ``attr_id`` column indexes.  Batches
    built against the same table can be concatenated without remapping.
    """

    __slots__ = ("data", "attrs")

    def __init__(
        self, data: np.ndarray, attrs: Optional[AttributeTable] = None
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=RECORD_DTYPE)
        self.attrs = attrs if attrs is not None else AttributeTable()

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, attrs: Optional[AttributeTable] = None) -> "RecordColumns":
        return cls(np.empty(0, dtype=RECORD_DTYPE), attrs)

    @classmethod
    def from_records(
        cls,
        records: Iterable[UpdateRecord],
        attrs: Optional[AttributeTable] = None,
    ) -> "RecordColumns":
        """Columnarize a record stream (order preserved, lossless)."""
        table = attrs if attrs is not None else AttributeTable()
        rows = []
        intern = table.intern
        no_attr = int(NO_ATTR)
        for r in records:
            attr_id = no_attr if r.attributes is None else intern(r.attributes)
            rows.append(
                (
                    r.time,
                    r.peer_id,
                    r.peer_asn,
                    r.prefix.network,
                    r.prefix.length,
                    int(r.kind),
                    attr_id,
                )
            )
        data = np.array(rows, dtype=RECORD_DTYPE)
        return cls(data, table)

    @staticmethod
    def concat(batches: Sequence["RecordColumns"]) -> "RecordColumns":
        """Concatenate batches into one (attr ids remapped as needed)."""
        if not batches:
            return RecordColumns.empty()
        table = batches[0].attrs
        parts = []
        for batch in batches:
            data = batch.data
            if batch.attrs is not table and len(batch.attrs):
                # Remap this batch's attr ids into the shared table.
                mapping = np.fromiter(
                    (table.intern(batch.attrs[i]) for i in range(len(batch.attrs))),
                    dtype=np.uint32,
                    count=len(batch.attrs),
                )
                data = data.copy()
                announced = data["attr_id"] != NO_ATTR
                data["attr_id"][announced] = mapping[data["attr_id"][announced]]
            parts.append(data)
        return RecordColumns(np.concatenate(parts), table)

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def time(self) -> np.ndarray:
        return self.data["time"]

    @property
    def peer_asn(self) -> np.ndarray:
        return self.data["peer_asn"]

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.to_records())

    def to_records(self) -> List[UpdateRecord]:
        """Materialize the whole batch as record objects (lossless)."""
        data = self.data
        table = self.attrs
        prefixes: Dict[Tuple[int, int], Prefix] = {}
        records: List[UpdateRecord] = []
        for time, peer_id, peer_asn, net, plen, kind, attr_id in zip(
            data["time"].tolist(),
            data["peer_id"].tolist(),
            data["peer_asn"].tolist(),
            data["net"].tolist(),
            data["plen"].tolist(),
            data["kind"].tolist(),
            data["attr_id"].tolist(),
        ):
            key = (net, plen)
            prefix = prefixes.get(key)
            if prefix is None:
                prefix = prefixes[key] = Prefix(net, plen)
            if kind == _ANNOUNCE:
                records.append(
                    UpdateRecord(
                        time, peer_id, peer_asn, prefix,
                        UpdateKind.ANNOUNCE, table[attr_id],
                    )
                )
            else:
                records.append(
                    UpdateRecord(
                        time, peer_id, peer_asn, prefix, UpdateKind.WITHDRAW
                    )
                )
        return records

    def select(self, mask_or_indices: np.ndarray) -> "RecordColumns":
        """A sub-batch sharing this batch's attribute table."""
        return RecordColumns(self.data[mask_or_indices], self.attrs)


def route_groups(
    data: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort permutation grouping rows per (peer_id, prefix):
    the module's one packed-sort kernel.

    Returns ``(order, starts, keys, plens)``: the permutation, the
    sorted position of each group's first row, and per group its
    packed ``(peer_id << 32) | net`` and its prefix length — what
    :meth:`ColumnClassifier.classify` labels a batch from, and what a
    caller that needs the same grouping (the campaign fold) computes
    once and hands to it.  Stability matters: within a group, rows
    stay in batch (i.e. stream) order, which is what makes the
    vectorized classification label each record as a record-at-a-time
    replay would.  Sorting on the packed key plus ``plen`` costs two
    sort passes instead of three and lets the boundary test compare
    two arrays instead of three.
    """
    plen = data["plen"]
    n = len(data)
    if n and (plen == plen[0]).all():
        # Uniform prefix length (the common case for generated and
        # real-table workloads).  When the peer ids' spread and the
        # row indices leave room next to the 32 net bits, pack
        # (peer - lowest peer, net, index) into one u64 and value-sort
        # it: np.sort radix-sorts integers without the permutation
        # indirection that makes argsort an order of magnitude slower,
        # and the appended index both preserves stability and carries
        # the permutation out.  (Collector data uses the peer's IP as
        # its id, 32 bits wide; the peers of one exchange share a LAN,
        # so what separates them is a few low bits.)
        idx_bits = max(1, int(n - 1).bit_length())
        shift = np.uint64(idx_bits)
        mask = np.uint64((1 << idx_bits) - 1)
        peer = data["peer_id"]
        base = peer.min()
        if int(peer.max() - base).bit_length() + 32 + idx_bits <= 64:
            # Peer ids close together: one value sort covers both keys.
            # The key is packed in place, its groups read off the sorted
            # buffer, and the buffer, masked to the index bits, is the
            # permutation: one u64 a row besides the batch.
            packed = (peer - base).astype(np.uint64)
            packed <<= np.uint64(32)
            packed |= data["net"]
            packed <<= shift
            packed |= np.arange(n, dtype=np.uint64)
            packed.sort()
            key_sorted = packed >> shift
            starts = np.flatnonzero(first_of_run(key_sorted))
            keys = key_sorted[starts]
            del key_sorted
            keys += np.uint64(base) << np.uint64(32)
            packed &= mask
            plens = np.full(len(starts), plen[0], dtype=plen.dtype)
            return packed.view(np.int64), starts, keys, plens
        # Peer ids spread over the full width: LSD radix over two
        # value sorts — stable-sort by net first, then by peer.
        # Still far cheaper than one argsort.
        arange = np.arange(n, dtype=np.uint64)
        packed = (data["net"].astype(np.uint64) << shift) | arange
        packed.sort()
        pos1 = packed & mask
        net_by_net = packed >> shift
        packed = (
            np.take(peer, pos1.astype(np.int64)).astype(np.uint64)
            << shift
        ) | arange
        packed.sort()
        pos2 = (packed & mask).astype(np.int64)
        order = np.take(pos1, pos2).astype(np.int64)
        key_sorted = ((packed >> shift) << np.uint64(32)) | np.take(
            net_by_net, pos2
        )
        starts = np.flatnonzero(first_of_run(key_sorted))
        plens = np.full(len(starts), plen[0], dtype=plen.dtype)
        return order, starts, key_sorted[starts], plens
    key = (data["peer_id"].astype(np.uint64) << np.uint64(32)) | data["net"]
    order = np.lexsort((plen, key))
    key_sorted = key[order]
    plen_sorted = plen[order]
    starts = np.flatnonzero(
        first_of_run(key_sorted) | first_of_run(plen_sorted)
    )
    return order, starts, key_sorted[starts], plen_sorted[starts]


def stable_argsort(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.argsort(values, kind="stable")`` for a 1-d array whose
    values rarely repeat, and ``values`` gathered in that order.

    An unstable sort already puts distinct values where the stable one
    does, and for float64 it runs several times faster; what is left
    to decide is the order inside each run of equal values, which a
    ``(value, index)`` sort of just those rows restores.  When enough
    rows are tied that the repair would cost what it saves — or a NaN
    (unequal to itself, so never seen as a tie) is present — the
    stable sort itself runs.
    """
    order = np.argsort(values)
    ranked = values[order]
    if len(ranked) < 2:
        return order, ranked
    tied = np.zeros(len(ranked), dtype=bool)
    np.equal(ranked[1:], ranked[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    rows = np.flatnonzero(tied)
    if len(rows) * _TIE_REPAIR_SHARE > len(ranked) or ranked[-1] != ranked[-1]:
        order = np.argsort(values, kind="stable")
        return order, values[order]
    if len(rows):
        index = order[rows]
        order[rows] = index = index[np.lexsort((index, ranked[rows]))]
        # Equal, but not always the same bits: 0.0 == -0.0.
        ranked[rows] = values[index]
    return order, ranked


def prefix_key(net: np.ndarray, plen: np.ndarray) -> np.ndarray:
    """``(net << 8) | plen`` as ``uint64``: one 40-bit sort key whose
    numeric order is the lexicographic ``(net, plen)`` order."""
    key = net.astype(np.uint64)
    key <<= np.uint64(8)
    key |= plen
    return key


def first_of_run(values: np.ndarray) -> np.ndarray:
    """Mask over ``values`` marking every element that differs from
    its predecessor (the first always does): the run starts of an
    already grouped array."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def group_order(
    keys: Sequence[np.ndarray], time: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """One stable sort grouping rows by ``keys`` (most significant
    first), each group in ``time`` order when ``time`` is given and in
    batch order otherwise.

    Returns ``(order, new_group)``: the permutation, and a mask over
    the *sorted* rows marking the first row of each distinct key
    tuple.  This is the shared grouping step of every per-pair and
    per-prefix aggregate (inter-arrival gaps, persistence, the
    Figure 6/7 tables, the campaign fold's general path); the
    classifier's ``(peer_id, prefix)`` sort is a different key with
    its own fast paths (:func:`route_groups`).
    """
    columns = tuple(reversed(keys))
    order = np.lexsort(columns if time is None else (time,) + columns)
    new_group = np.zeros(len(order), dtype=bool)
    for key in keys:
        new_group |= first_of_run(np.take(key, order))
    return order, new_group


def _build_code_lut() -> np.ndarray:
    """The taxonomy transition table as a 16-entry lookup.

    Index bits: ``ann<<3 | ever<<2 | reach<<1 | same_fwd``.  One fancy
    index through this table replaces eight boolean-mask assignments
    over the full batch.
    """
    lut = np.zeros(16, dtype=np.uint8)
    for ever in (0, 1):
        for reach in (0, 1):
            for fwd in (0, 1):
                # Withdrawals: reachable → plain withdraw, else WWDup.
                lut[ever << 2 | reach << 1 | fwd] = (
                    UpdateCategory.PLAIN_WITHDRAW.value
                    if reach
                    else UpdateCategory.WWDUP.value
                )
                # Announcements.
                if not ever:
                    code = UpdateCategory.NEW_ANNOUNCE.value
                elif reach:
                    code = (
                        UpdateCategory.AADUP.value
                        if fwd
                        else UpdateCategory.AADIFF.value
                    )
                else:
                    code = (
                        UpdateCategory.WADUP.value
                        if fwd
                        else UpdateCategory.WADIFF.value
                    )
                lut[8 | ever << 2 | reach << 1 | fwd] = code
    return lut


_CODE_LUT = _build_code_lut()
_AADUP_CODE = np.uint8(UpdateCategory.AADUP.value)


class _CarryState:
    """Cross-batch classifier memory for one (peer, prefix) pair."""

    __slots__ = ("reachable", "ever_announced", "last_attributes")

    def __init__(self) -> None:
        self.reachable = False
        self.ever_announced = False
        self.last_attributes: Optional[tuple] = None


class ColumnClassifier:
    """The stateful taxonomy classifier.

    :meth:`classify` labels every row of a batch with a taxonomy code
    (``UpdateCategory.value``) and a policy-fluctuation flag, updating
    per-route state so successive batches (e.g. a campaign fed day by
    day) classify exactly as one continuous stream.
    """

    __slots__ = ("_states",)

    def __init__(self) -> None:
        self._states: Dict[Tuple[int, int, int], _CarryState] = {}

    def classify(
        self,
        columns: RecordColumns,
        groups: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Category codes and policy flags for ``columns``, row-aligned.

        The rows are interpreted in batch order (the stream order); the
        returned arrays are in the same order.  ``groups`` is
        ``route_groups(columns.data)`` from a caller that already
        holds it; it is computed here otherwise.
        """
        data = columns.data
        n = len(data)
        if n == 0:
            return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool)

        if groups is None:
            groups = route_groups(data)
        order, group_start, g_key, g_plen = groups
        # Beside the batch and the permutation, the full-length columns
        # below set a fold's peak, so each is dropped after its last
        # reader.  np.take is markedly faster than fancy indexing for
        # these gathers (contiguous output, no index checks).
        is_ann = np.take(data["kind"], order) == _ANNOUNCE
        attr_id = np.take(data["attr_id"], order)

        pos_dtype = np.int32 if n < 2**31 else np.int64
        group_start = group_start.astype(pos_dtype)
        n_groups = len(group_start)
        group_counts = np.diff(np.append(group_start, n))
        group_end = np.empty(n_groups, dtype=np.int64)
        group_end[:-1] = group_start[1:] - 1
        group_end[-1] = n - 1

        # Carry-in state per group, from prior batches.
        carry_reach = np.zeros(n_groups, dtype=bool)
        carry_ever = np.zeros(n_groups, dtype=bool)
        carry_attrs: List[Optional[tuple]] = [None] * n_groups
        keys: List[Tuple[int, int, int]] = []
        states = self._states
        g_key = g_key.tolist()
        g_plen = g_plen.tolist()
        for gi in range(n_groups):
            key = (g_key[gi] >> 32, g_key[gi] & 0xFFFFFFFF, g_plen[gi])
            keys.append(key)
            state = states.get(key)
            if state is not None:
                carry_reach[gi] = state.reachable
                carry_ever[gi] = state.ever_announced
                carry_attrs[gi] = state.last_attributes

        # Predecessor state per row, within the sorted layout:
        # reachable ⇔ the group's previous row is an announcement;
        # group-first rows take the carried state instead.
        reach_before = np.empty(n, dtype=bool)
        reach_before[0] = False
        reach_before[1:] = is_ann[:-1]
        reach_before[group_start] = carry_reach

        # Position of the last announcement at or before each row
        # (global maximum-accumulate; leakage across group boundaries
        # is filtered by comparing against the group start).  Each
        # group's last value is all the post-batch state needs of it.
        last_ann = np.where(is_ann, np.arange(n, dtype=pos_dtype), -1)
        np.maximum.accumulate(last_ann, out=last_ann)
        end_last_ann = last_ann[group_end]
        end_ever = (carry_ever | (end_last_ann >= group_start)).tolist()
        end_last_ann = end_last_ann.tolist()
        end_is_ann = is_ann[group_end].tolist()
        prev_ann = np.empty(n, dtype=pos_dtype)
        prev_ann[0] = -1
        prev_ann[1:] = last_ann[:-1]
        del last_ann
        in_group_prev_ann = prev_ann >= np.repeat(group_start, group_counts)
        ever_before = in_group_prev_ann | np.repeat(carry_ever, group_counts)

        # Forwarding-tuple and full-attribute comparisons against the
        # previous announcement.  In-batch predecessors compare interned
        # ids; the (at most one per group) first announcement after a
        # carry compares against the carried tuple (forwarding key first).
        fwd_ids = columns.attrs.fwd_ids
        same_fwd = np.zeros(n, dtype=bool)
        equal_prev = np.zeros(n, dtype=bool)
        in_batch = is_ann & in_group_prev_ann
        if in_batch.any():
            cur = attr_id[in_batch]
            prev = attr_id[prev_ann[in_batch]]
            same_fwd[in_batch] = fwd_ids[cur] == fwd_ids[prev]
            equal_prev[in_batch] = cur == prev
            del cur, prev
        del prev_ann, in_batch
        from_carry = np.flatnonzero(is_ann & ever_before & ~in_group_prev_ann)
        del in_group_prev_ann
        if len(from_carry):
            tuple_of = columns.attrs.tuple_of
            rows = from_carry.tolist()
            groups = (
                np.searchsorted(group_start, from_carry, side="right") - 1
            ).tolist()
            for i, gi in zip(rows, groups):
                previous = carry_attrs[gi]
                current = tuple_of(attr_id[i])
                same_fwd[i] = current[:2] == previous[:2]
                equal_prev[i] = current == previous

        # The taxonomy transition table: one lookup through the
        # 16-entry code table (index bits ann/ever/reach/same_fwd).
        state_index = is_ann.view(np.uint8) << 3
        state_index |= ever_before.view(np.uint8) << 2
        state_index |= reach_before.view(np.uint8) << 1
        state_index |= same_fwd.view(np.uint8)
        del is_ann, ever_before, reach_before, same_fwd
        sorted_codes = _CODE_LUT[state_index]
        del state_index
        # Policy fluctuation: an AADup whose non-forwarding attributes
        # changed (same forwarding tuple, different full bundle).
        sorted_policy = (sorted_codes == _AADUP_CODE) & ~equal_prev
        del equal_prev

        # Post-batch state per group (for the next batch).
        tuple_of = columns.attrs.tuple_of
        for gi in range(n_groups):
            key = keys[gi]
            state = states.get(key)
            if state is None:
                state = states[key] = _CarryState()
            state.reachable = bool(end_is_ann[gi])
            state.ever_announced = bool(end_ever[gi])
            if end_last_ann[gi] >= group_start[gi]:
                state.last_attributes = tuple_of(attr_id[end_last_ann[gi]])
            # else: no announcement in this batch — the carried
            # attributes (possibly None) stay in place.

        # Scatter back to batch (stream) order.
        codes = np.empty(n, dtype=np.uint8)
        codes[order] = sorted_codes
        policy = np.empty(n, dtype=bool)
        policy[order] = sorted_policy
        return codes, policy

    # -- introspection ------------------------------------------------------

    def state_digest(self) -> str:
        """Digest of all per-route state (see
        :func:`~repro.core.routestate.route_state_digest`) — equal
        classifier states give equal digests regardless of how the
        stream was batched."""
        return route_state_digest(
            (
                key,
                state.reachable,
                state.ever_announced,
                state.last_attributes,
            )
            for key, state in self._states.items()
        )


def classify_columns(
    columns: RecordColumns,
    classifier: Optional[ColumnClassifier] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Classify a whole batch; see :meth:`ColumnClassifier.classify`.

    Pass an existing ``classifier`` to continue from prior state (e.g.
    a campaign fed day by day, so cross-midnight sequences classify
    correctly).
    """
    classifier = classifier or ColumnClassifier()
    return classifier.classify(columns)
