"""Measurement post-processing: histograms (Fig. 6), running averages
and summaries (Fig. 7), and text report rendering.

The names resolve on first use (see :mod:`repro._lazy`): ``stats`` and
``report`` import nothing of the simulator, ``export`` only its clock
and ``timeline`` its CPU model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "read_records_json",
    "write_histogram_csv",
    "write_latency_csv",
    "write_records_json",
    "write_series_csv",
    "HistogramBin",
    "LatencyHistogram",
    "fig6_histogram",
    "render_mode_breakdown",
    "render_series",
    "render_table",
    "LatencySummary",
    "improvement_factor",
    "percentile",
    "running_average",
    "summarize",
    "TimelineMark",
    "lane_of",
    "occupancy_by_lane",
    "render_gantt",
    "segments_between",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("read_records_json", "write_histogram_csv",
               "write_latency_csv", "write_records_json", "write_series_csv"),
    "histogram": ("HistogramBin", "LatencyHistogram", "fig6_histogram"),
    "report": ("render_mode_breakdown", "render_series", "render_table"),
    "stats": ("LatencySummary", "improvement_factor", "percentile",
              "running_average", "summarize"),
    "timeline": ("TimelineMark", "lane_of", "occupancy_by_lane",
                 "render_gantt", "segments_between"),
})
