"""Statistics and rendering helpers shared by the experiment harness.

The Weibull fit lives in :mod:`repro.analysis.weibull` and is imported
from there: it is the only scipy user, and re-exporting it here would
load scipy into every importer of the table helpers.
"""

from repro.analysis.stats import cdf_points, pearson, summarize
from repro.analysis.tables import ascii_chart, format_table

__all__ = ["cdf_points", "pearson", "summarize", "format_table",
           "ascii_chart"]
