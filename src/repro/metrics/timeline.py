"""ASCII Gantt timelines from recorded CPU segments.

Renders the execution timelines the paper uses to explain the
mechanism — Fig. 3 (interrupt latency under delayed handling) and
Fig. 5 (interrupt latency for an interposed IRQ) — directly from a
simulation run with ``HypervisorConfig(record_cpu_segments=True)``.

Lanes are derived from segment categories:

* ``task:<P>`` / ``idle:<P>``  -> lane "<P>"
* ``bh:<P>``                   -> lane "<P> BH"
* ``hypervisor``               -> lane "HV"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.sim.clock import Clock
from repro.sim.cpu import CpuSegment


def lane_of(category: str) -> str:
    """Map an accounting category to a timeline lane."""
    if category.startswith("task:") or category.startswith("idle:"):
        return category.split(":", 1)[1]
    if category.startswith("bh:"):
        return f"{category.split(':', 1)[1]} BH"
    if category == "hypervisor":
        return "HV"
    return category


@dataclass(frozen=True)
class TimelineMark:
    """A point annotation on the time axis (e.g. an IRQ arrival)."""

    time: int
    symbol: str
    label: str = ""


def render_gantt(segments: Iterable[CpuSegment],
                 start: int, end: int,
                 clock: Optional[Clock] = None,
                 width: int = 100,
                 marks: Sequence[TimelineMark] = (),
                 lane_order: Optional[Sequence[str]] = None) -> str:
    """Render CPU segments in ``[start, end)`` as an ASCII Gantt chart.

    Each lane shows ``#`` where its category occupies the CPU.  Marks
    add a header row of point annotations (IRQ arrivals, completions).
    """
    if end <= start:
        raise ValueError(f"need end > start, got [{start}, {end})")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    span = end - start

    def column(time: int) -> int:
        return min(width - 1, max(0, (time - start) * width // span))

    lanes: dict[str, list[str]] = {}
    for segment in segments:
        if segment.end <= start or segment.start >= end:
            continue
        lane = lane_of(segment.category)
        row = lanes.setdefault(lane, [" "] * width)
        first = column(max(segment.start, start))
        last = column(min(segment.end, end) - 1)
        for position in range(first, last + 1):
            row[position] = "#"

    if lane_order is not None:
        ordered = [lane for lane in lane_order if lane in lanes]
        ordered += [lane for lane in sorted(lanes) if lane not in ordered]
    else:
        ordered = sorted(lanes)

    label_width = max((len(lane) for lane in ordered), default=4) + 1
    lines = []

    if marks:
        mark_row = [" "] * width
        for mark in marks:
            if start <= mark.time < end:
                mark_row[column(mark.time)] = mark.symbol
        lines.append(" " * label_width + "|" + "".join(mark_row))
        legend = ", ".join(f"{m.symbol}={m.label}" for m in marks if m.label)
        if legend:
            lines.append(" " * (label_width + 1) + legend)

    for lane in ordered:
        lines.append(f"{lane:<{label_width}}|" + "".join(lanes[lane]))

    if clock is not None:
        left = f"{clock.cycles_to_us(start):.0f}us"
        right = f"{clock.cycles_to_us(end):.0f}us"
    else:
        left, right = str(start), str(end)
    axis = left + "-" * max(1, width - len(left) - len(right)) + right
    lines.append(" " * label_width + "+" + axis)
    return "\n".join(lines)
