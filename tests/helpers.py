"""Helpers shared by the test modules."""

import numpy as np

from sacs.harness import CSV_COLUMNS, CoverageReport


def make_report(rows, metadata=None):
    """A CoverageReport holding the given ReportRows, in order, as columns."""
    columns = {c: np.array([getattr(row, c) for row in rows]) for c in CSV_COLUMNS}
    return CoverageReport(**columns, metadata={} if metadata is None else metadata)
