"""Shared test helpers: records in, production-tier verdicts out."""

from repro.core.columns import (
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from repro.core.instability import CategoryCounts
from repro.verify.reference import reference_classify


def labels(records, classifier=None):
    """``(category, policy_change)`` per record from the production
    classifier.  With a fresh classifier the same stream must also
    match the reference oracle (a carried-in ``classifier`` has state
    the oracle cannot see, so only the fresh case is cross-checked)."""
    _, codes, policy = classified(records, classifier)
    result = [
        (CATEGORY_OF_CODE[code], flag)
        for code, flag in zip(codes.tolist(), policy.tolist())
    ]
    if classifier is None:
        assert [(c.name, p) for c, p in result] == reference_classify(records)
    return result


def classified(records, classifier=None):
    """``(columns, codes, policy)`` for a record list."""
    if classifier is None:
        classifier = ColumnClassifier()
    columns = RecordColumns.from_records(records)
    codes, policy = classifier.classify(columns)
    return columns, codes, policy


def classified_counts(records, classifier=None):
    """The taxonomy tally of a record list."""
    _, codes, policy = classified(records, classifier)
    return CategoryCounts.from_codes(codes, policy)
