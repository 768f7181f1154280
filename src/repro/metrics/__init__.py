"""Measurement post-processing: histograms (Fig. 6), running averages
and summaries (Fig. 7), and text report rendering.

The names resolve on first use (see :mod:`repro._lazy`): ``stats``,
``report`` and ``export`` import nothing of the simulator, and
``timeline`` only its clock and CPU model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "write_histogram_csv",
    "write_series_csv",
    "HistogramBin",
    "LatencyHistogram",
    "fig6_histogram",
    "render_mode_breakdown",
    "render_series",
    "render_table",
    "LatencySummary",
    "percentile",
    "running_average",
    "summarize",
    "TimelineMark",
    "lane_of",
    "render_gantt",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("write_histogram_csv", "write_series_csv"),
    "histogram": ("HistogramBin", "LatencyHistogram", "fig6_histogram"),
    "report": ("render_mode_breakdown", "render_series", "render_table"),
    "stats": ("LatencySummary", "percentile", "running_average",
              "summarize"),
    "timeline": ("TimelineMark", "lane_of", "render_gantt"),
})
