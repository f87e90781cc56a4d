"""The rule pack: one module per rule family, assembled in id order.

Adding a rule is three steps (see ``docs/LINTING.md``):

1. create ``rules/<id>_<slug>.py`` with a :class:`~repro.lint.engine.Rule`
   subclass,
2. list its class here,
3. add fixture tests (positive / negative / pragma) to
   ``tests/test_lint.py``.
"""

from __future__ import annotations

from typing import List

from ..engine import Rule
from .con001_transferable import TransferableRule
from .det003_unsorted_iter import UnsortedIterationRule
from .det1xx_taint import TAINT_RULE_CLASSES
from .det_origins import BuiltinHashRule, GlobalRandomRule, WallClockRule
from .hot001_slots import SlotsRule
from .lint000_pragma import PragmaRule
from .mrg001_merge_registry import MergeRegistryRule
from .pro001_protocol import ProtocolConformanceRule

__all__ = ["all_rules"]

_RULE_CLASSES = (
    PragmaRule,
    GlobalRandomRule,
    WallClockRule,
    UnsortedIterationRule,
    BuiltinHashRule,
    *TAINT_RULE_CLASSES,
    SlotsRule,
    MergeRegistryRule,
    TransferableRule,
    ProtocolConformanceRule,
)


def all_rules() -> List[Rule]:
    """A fresh instance of every registered rule, in id order."""
    return sorted(
        (cls() for cls in _RULE_CLASSES), key=lambda rule: rule.id
    )
