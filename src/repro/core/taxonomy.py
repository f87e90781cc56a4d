"""The paper's BGP update taxonomy.

Section 4 of the paper defines five sequence categories over the stream
of updates for one (prefix, peer) pair, keyed on the *forwarding tuple*
``(Prefix, NextHop, ASPATH)``:

==========  ============================================================
Category    Definition
==========  ============================================================
``WADIFF``  A route is explicitly withdrawn and later replaced by a
            *different* route — forwarding instability.
``AADIFF``  A route is implicitly withdrawn (replaced in place) by a
            *different* route — forwarding instability.
``WADUP``   A route is explicitly withdrawn and then re-announced
            *unchanged* — transient failure or pathological oscillation.
``AADUP``   A route is implicitly replaced by a *duplicate* of itself —
            pathological (or policy fluctuation when non-forwarding
            attributes changed).
``WWDUP``   Repeated withdrawal of an already-unreachable prefix —
            pathological.
==========  ============================================================

Two further labels cover sequence starts, which the paper leaves out of
its named categories (the "Uncategorized" slice of Figure 2):
``NEW_ANNOUNCE`` (first announcement ever seen for the pair) and
``PLAIN_WITHDRAW`` (the legitimate withdrawal of a currently-reachable
route — it only *becomes* part of a WADiff/WADup once the follow-up
announcement arrives, so the withdrawal itself stays uncategorized).

The module also defines the paper's two super-classes:
*instability* = {WADIFF, AADIFF, WADUP} and *pathological* =
{AADUP, WWDUP}.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import FrozenSet

__all__ = [
    "UpdateCategory",
    "INSTABILITY_CATEGORIES",
    "PATHOLOGICAL_CATEGORIES",
    "FIGURE2_CATEGORIES",
    "FINE_GRAINED_CATEGORIES",
]


class UpdateCategory(Enum):
    """Classification of one update within its (prefix, peer) stream."""

    AADIFF = auto()
    WADIFF = auto()
    WADUP = auto()
    AADUP = auto()
    WWDUP = auto()
    NEW_ANNOUNCE = auto()
    PLAIN_WITHDRAW = auto()

    @property
    def label(self) -> str:
        """The paper's display label (e.g. ``"AA Duplicate"``)."""
        return _LABELS[self]


_LABELS = {
    UpdateCategory.AADIFF: "AA Different",
    UpdateCategory.WADIFF: "WA Different",
    UpdateCategory.WADUP: "WA Duplicate",
    UpdateCategory.AADUP: "AA Duplicate",
    UpdateCategory.WWDUP: "WW Duplicate",
    UpdateCategory.NEW_ANNOUNCE: "Uncategorized",
    UpdateCategory.PLAIN_WITHDRAW: "Uncategorized",
}

#: The paper: "we will refer to AADiff, WADiff and WADup as instability."
INSTABILITY_CATEGORIES: FrozenSet[UpdateCategory] = frozenset(
    {
        UpdateCategory.AADIFF,
        UpdateCategory.WADIFF,
        UpdateCategory.WADUP,
    }
)

#: "We will refer to AADup and WWDup as pathological instability."
PATHOLOGICAL_CATEGORIES: FrozenSet[UpdateCategory] = frozenset(
    {
        UpdateCategory.AADUP,
        UpdateCategory.WWDUP,
    }
)

#: The categories plotted in Figure 2 (WWDup is excluded "so as not to
#: obscure the salient features of the other data").
FIGURE2_CATEGORIES = (
    UpdateCategory.AADIFF,
    UpdateCategory.WADIFF,
    UpdateCategory.WADUP,
    UpdateCategory.AADUP,
)

#: The four categories of Figures 6, 7 and 8.
FINE_GRAINED_CATEGORIES = (
    UpdateCategory.AADIFF,
    UpdateCategory.WADIFF,
    UpdateCategory.AADUP,
    UpdateCategory.WADUP,
)
