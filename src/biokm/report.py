"""End-to-end analysis pipeline and the utilization comparison report.

Captures reduce to per-run rates, the rates average across runs, and
the averaged figures feed both utilization models: aggregate response
(throughput over capacity) and the M/M/1 busy fraction (arrival over
service rate).  The two agree exactly on any single run, because both
collapse to summed-session-time over window-time; differences appear
only when rates are rounded before averaging.

Two modes control that rounding.  EXACT keeps full precision end to
end.  TABLE_PRECISION reproduces spreadsheet arithmetic that carries
one decimal place: each per-run rate is reduced to one decimal (arrival
rate, throughput and capacity round half-up; the service rate is
truncated, matching the tabulations this mode exists to recreate), the
reduced rates are averaged, and the averages are again rounded to one
decimal before the utilization quotients are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .queueing import QueueStats, mm1_stats, UnstableQueue
from .telemetry import (
    AggregateResponse,
    CaptureSummary,
    RunMetrics,
    aggregate_response,
    analyze_capture,
    average_runs,
)


class ParseError(ValueError):
    """A capture file was missing, empty, or unreadable."""


class Mode(str, Enum):
    EXACT = "exact"
    TABLE_PRECISION = "table"


def round_to_decimal(x: float) -> float:
    """Round half away from zero to one decimal place."""
    return math.floor(x * 10.0 + 0.5) / 10.0


def truncate_to_decimal(x: float) -> float:
    """Drop everything past the first decimal place."""
    return math.floor(x * 10.0) / 10.0


def table_rates(run: RunMetrics) -> RunMetrics:
    """Reduce a run's four rates to one-decimal table cells."""
    return replace(
        run,
        arrival_rate=round_to_decimal(run.arrival_rate),
        service_rate=truncate_to_decimal(run.service_rate),
        throughput=round_to_decimal(run.throughput),
        capacity=round_to_decimal(run.capacity),
    )


def averaged_rates(runs: list[RunMetrics], mode: Mode) -> RunMetrics:
    """Cross-run mean of the four rates under the given precision mode."""
    if mode is Mode.EXACT:
        return average_runs(runs)
    mean = average_runs([table_rates(run) for run in runs])
    return replace(
        mean,
        arrival_rate=round_to_decimal(mean.arrival_rate),
        service_rate=round_to_decimal(mean.service_rate),
        throughput=round_to_decimal(mean.throughput),
        capacity=round_to_decimal(mean.capacity),
    )


@dataclass(frozen=True)
class ComparisonReport:
    bio_utilization: float
    bio_idle: float
    little_utilization: float
    little_idle: float
    util_diff_pct: float
    idle_diff_pct: float
    mode: Mode


def _diff_pct(a: float, b: float) -> float:
    top = abs(a - b)
    bottom = max(a, b)
    return 0.0 if bottom == 0 else top / bottom * 100.0


def compare(bio: AggregateResponse, little: QueueStats, mode: Mode) -> ComparisonReport:
    """Difference percentages between the two utilization figures.

    The denominator is the larger of the two values, so the comparison
    is symmetric in its inputs.
    """
    return ComparisonReport(
        bio_utilization=bio.utilization,
        bio_idle=bio.idle,
        little_utilization=little.rho,
        little_idle=little.idle,
        util_diff_pct=_diff_pct(bio.utilization, little.rho),
        idle_diff_pct=_diff_pct(bio.idle, little.idle),
        mode=mode,
    )


@dataclass(frozen=True)
class RunReport:
    summary: CaptureSummary
    rates: RunMetrics          # per-mode cells (exact, or one-decimal table)
    bio: AggregateResponse
    little: QueueStats
    comparison: ComparisonReport


@dataclass(frozen=True)
class PipelineResult:
    mode: Mode
    runs: list[RunReport]
    averaged: RunMetrics
    bio: AggregateResponse
    little: QueueStats
    comparison: ComparisonReport


def _run_report(summary: CaptureSummary, mode: Mode) -> RunReport:
    cells = summary.metrics if mode is Mode.EXACT else table_rates(summary.metrics)
    bio = aggregate_response(cells.throughput, cells.capacity)
    try:
        little = mm1_stats(cells.arrival_rate, cells.service_rate)
    except UnstableQueue as exc:
        raise UnstableQueue(f"run {summary.label!r}: {exc}") from None
    return RunReport(
        summary=summary,
        rates=cells,
        bio=bio,
        little=little,
        comparison=compare(bio, little, mode),
    )


def full_pipeline(
    capture_paths: list,
    mode: Mode = Mode.EXACT,
    out_md=None,
    out_csv=None,
) -> PipelineResult:
    """Captures -> per-run rates -> averaged rates -> both models -> report."""
    if not capture_paths:
        raise ParseError("no capture files given")
    summaries = []
    for path in capture_paths:
        try:
            summaries.append(analyze_capture(path))
        except (OSError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None

    runs = [_run_report(s, mode) for s in summaries]
    averaged = averaged_rates([s.metrics for s in summaries], mode)
    bio = aggregate_response(averaged.throughput, averaged.capacity)
    try:
        little = mm1_stats(averaged.arrival_rate, averaged.service_rate)
    except UnstableQueue as exc:
        raise UnstableQueue(f"averaged rates: {exc}") from None
    result = PipelineResult(
        mode=mode,
        runs=runs,
        averaged=averaged,
        bio=bio,
        little=little,
        comparison=compare(bio, little, mode),
    )
    if out_md is not None:
        write_markdown(out_md, result)
    if out_csv is not None:
        write_csv(out_csv, result)
    return result


_RATE_HEADERS = (
    ("Arrival Rate (Packet/Second)", lambda r: r.arrival_rate),
    ("Service Rate (Packet/Second)", lambda r: r.service_rate),
    ("Byte Size (Bit/Second)", lambda r: r.throughput),
    ("Capacity (Bit/Second)", lambda r: r.capacity),
)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def write_markdown(path, result: PipelineResult) -> Path:
    lines = [
        "# TCP performance report",
        "",
        f"Precision mode: `{result.mode.value}`",
        "",
        "## Per-run rates",
        "",
        "| Run | " + " | ".join(name for name, _ in _RATE_HEADERS) + " |",
        "|---|" + "---|" * len(_RATE_HEADERS),
    ]
    for run in result.runs:
        cells = " | ".join(_fmt(pick(run.rates)) for _, pick in _RATE_HEADERS)
        lines.append(f"| {run.summary.label} | {cells} |")
    avg_cells = " | ".join(_fmt(pick(result.averaged)) for _, pick in _RATE_HEADERS)
    lines += [
        f"| average | {avg_cells} |",
        "",
        "## Utilization comparison (averaged rates)",
        "",
        "| Technique | Utilization | Expected idle time |",
        "|---|---|---|",
        f"| Aggregate response | {result.comparison.bio_utilization!r} | {result.comparison.bio_idle!r} |",
        f"| Little's law | {result.comparison.little_utilization!r} | {result.comparison.little_idle!r} |",
        f"| Difference percentage | {result.comparison.util_diff_pct!r}% | {result.comparison.idle_diff_pct!r}% |",
        "",
        "## Per-run utilization",
        "",
        "| Run | Aggregate response | Little's rho | Difference % |",
        "|---|---|---|---|",
    ]
    for run in result.runs:
        lines.append(
            f"| {run.summary.label} | {run.bio.utilization!r} | "
            f"{run.little.rho!r} | {run.comparison.util_diff_pct!r} |"
        )
    lines.append("")
    path = Path(path)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _csv_row(label: str, rates: RunMetrics, c: ComparisonReport) -> list[str]:
    return [label, *(repr(pick(rates)) for _, pick in _RATE_HEADERS),
            *map(repr, (c.bio_utilization, c.bio_idle, c.little_utilization, c.little_idle,
                        c.util_diff_pct, c.idle_diff_pct))]


def write_csv(path, result: PipelineResult) -> Path:
    import csv

    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "run",
                "arrival_rate",
                "service_rate",
                "throughput_bps",
                "capacity_bps",
                "aggregate_response",
                "aggregate_idle",
                "little_utilization",
                "little_idle",
                "util_diff_pct",
                "idle_diff_pct",
            ]
        )
        for run in result.runs:
            writer.writerow(_csv_row(run.summary.label, run.rates, run.comparison))
        writer.writerow(_csv_row("average", result.averaged, result.comparison))
    return path
