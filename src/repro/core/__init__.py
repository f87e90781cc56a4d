"""The paper's primary contribution: the update taxonomy, the columnar
classifier, instability metrics, and result reporting."""

from .taxonomy import (
    FIGURE2_CATEGORIES,
    FINE_GRAINED_CATEGORIES,
    INSTABILITY_CATEGORIES,
    PATHOLOGICAL_CATEGORIES,
    UpdateCategory,
)
from .columns import (
    AttributeTable,
    ColumnClassifier,
    RecordColumns,
    classify_columns,
    decode_categories,
)
from .instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_as_columns,
    persistence,
)
from .report import ExperimentResult, Series, Table, format_number

__all__ = [
    "FIGURE2_CATEGORIES",
    "FINE_GRAINED_CATEGORIES",
    "INSTABILITY_CATEGORIES",
    "PATHOLOGICAL_CATEGORIES",
    "UpdateCategory",
    "AttributeTable",
    "ColumnClassifier",
    "RecordColumns",
    "classify_columns",
    "decode_categories",
    "CategoryCounts",
    "counts_by_peer_columns",
    "counts_by_prefix_as_columns",
    "persistence",
    "ExperimentResult",
    "Series",
    "Table",
    "format_number",
]
