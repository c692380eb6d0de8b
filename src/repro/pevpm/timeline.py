"""Text timeline rendering of PEVPM traces.

Turns a traced virtual-machine run into a Gantt-style character plot, one
row per process, so the *time structure* PEVPM simulates (Section 5: it
"simulate[s] the time-structure of the program") can actually be looked
at: where computation happens, where sends sit, and where processes stall
waiting for messages -- the visual form of the loss attribution.

Legend: ``#`` computing, ``s`` in a send call, ``.`` waiting at a
receive, `` `` (space) idle / finished.
"""

from __future__ import annotations

from .trace import TraceRecorder

__all__ = ["render_timeline", "iteration_profile", "render_run_spread"]

_GLYPH = {"serial": "#", "send": "s", "recv": "."}


def render_timeline(
    trace: TraceRecorder,
    nprocs: int,
    width: int = 80,
    t_start: float = 0.0,
    t_end: float | None = None,
) -> str:
    """Render the trace as one character row per process.

    Each column covers ``(t_end - t_start) / width`` of virtual time; the
    glyph shown is the activity covering the column's midpoint (later
    events win ties).  Restrict ``t_start``/``t_end`` to zoom into a few
    iterations -- whole-run renders of long programs just look striped.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    if not trace.events:
        raise ValueError("trace is empty (was the run traced?)")
    if t_end is None:
        t_end = max(e.end for e in trace.events)
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    span = t_end - t_start
    dt = span / width

    rows = []
    for p in range(nprocs):
        cells = [" "] * width
        for e in trace.for_proc(p):
            if e.end <= t_start or e.start >= t_end:
                continue
            first = max(0, int((e.start - t_start) / dt))
            last = min(width - 1, int((e.end - t_start) / dt))
            glyph = _GLYPH.get(e.category, "?")
            for c in range(first, last + 1):
                mid = t_start + (c + 0.5) * dt
                if e.start <= mid < e.end:
                    cells[c] = glyph
        rows.append(f"p{p:<3d}|" + "".join(cells) + "|")

    from .._tables import format_time

    header = (
        f"timeline {format_time(t_start)} .. {format_time(t_end)} "
        f"({format_time(dt)}/column)   # compute  s send  . recv-wait"
    )
    return "\n".join([header, *rows])


def render_run_spread(times, width: int = 50, bins: int = 12) -> str:
    """Render the spread of per-run predicted times as a text histogram.

    The batched engine makes dozens or hundreds of Monte Carlo runs
    cheap, at which point the *distribution* of completion times becomes
    worth looking at, not just the mean -- this gives it the same ASCII
    treatment :func:`repro.mpibench.report.pdf_plots` gives benchmark
    distributions.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = sorted(float(t) for t in times)
    if not values:
        raise ValueError("times is empty")

    from .._tables import format_time

    lo, hi = values[0], values[-1]
    if hi <= lo:
        return (
            f"run spread ({len(values)} runs): all at {format_time(lo)}"
        )
    step = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        counts[min(bins - 1, int((v - lo) / step))] += 1
    peak = max(counts)
    rows = [
        f"{format_time(lo + i * step):>10} |{'#' * round(c / peak * width):<{width}}| {c}"
        for i, c in enumerate(counts)
    ]
    header = (
        f"run spread: {len(values)} runs, "
        f"min {format_time(lo)}  max {format_time(hi)}"
    )
    return "\n".join([header, *rows])


def iteration_profile(
    trace: TraceRecorder, proc: int, marker_label: str
) -> list[float]:
    """Durations between successive occurrences of one annotation on one
    process -- e.g. per-iteration times, using the Serial directive's
    label as the iteration marker."""
    starts = [
        e.start for e in trace.for_proc(proc) if e.label == marker_label
    ]
    if len(starts) < 2:
        raise ValueError(
            f"label {marker_label!r} occurs {len(starts)} time(s) on "
            f"process {proc}; need at least 2"
        )
    return [b - a for a, b in zip(starts, starts[1:])]
