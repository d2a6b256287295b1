"""Run-directory artifacts shared by every command.

One run = one directory holding a manifest (command, config, seed, timing),
a metrics stream (JSON lines), and a ``solutions.csv`` whose schema is
identical across producers (trained policies, baselines, GA, NSGA-II, the
exhaustive oracle) so runs can be compared and plotted together. Placement
trajectories are replayed through the environment to get the same step
accounting the learner sees, including the reporting-only pseudo step that
charges the initial all-in-cloud state.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence
from xml.sax.saxutils import escape

from .env import Action, PlacementEnv
from .model import (
    ConfigurationError,
    ObjectivePoint,
    Placement,
    WeightVector,
    dominates,
    from_json,
    hypervolume_2d,
    pareto_front,
    read_file,
    read_json,
    write_file,
)
from .scenarios import Scenario

SOLUTIONS_COLUMNS = ("w_time", "w_cost", "time", "cost", "dominated_flag")
MANIFEST_NAME = "manifest.json"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


@dataclass
class SolutionRow:
    """One objective point; weights are empty for unweighted producers."""

    time: float
    cost: float
    w_time: float | None = None
    w_cost: float | None = None
    dominated: bool = False

    @property
    def point(self) -> ObjectivePoint:
        return ObjectivePoint(self.time, self.cost)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV table, one line per row after the header; every CSV file goes through here."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, buffer.getvalue())


def write_json(path: str | Path, document) -> None:
    """An indented JSON document with sorted keys: config, report and manifest files."""
    write_file(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_solutions(path: str | Path, rows: Sequence[SolutionRow]) -> None:
    write_table(path, SOLUTIONS_COLUMNS, (
        (_fmt(row.w_time), _fmt(row.w_cost), _fmt(row.time), _fmt(row.cost), int(row.dominated))
        for row in rows
    ))


def read_solutions(path: str | Path) -> list[SolutionRow]:
    reader = csv.reader(io.StringIO(read_file(path, "solutions file"), newline=""))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ConfigurationError(f"{path}: empty solutions file") from None
    if header != SOLUTIONS_COLUMNS:
        raise ConfigurationError(f"{path}: unexpected columns {header}, want {SOLUTIONS_COLUMNS}")
    rows = []
    for record in reader:
        if len(record) != len(SOLUTIONS_COLUMNS) or record[4] not in ("0", "1"):
            raise ConfigurationError(f"{path}: malformed row {record!r}")
        try:
            row = SolutionRow(
                w_time=float(record[0]) if record[0] else None,
                w_cost=float(record[1]) if record[1] else None,
                time=float(record[2]),
                cost=float(record[3]),
                dominated=record[4] == "1",
            )
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed row {record!r} ({exc})") from exc
        if not (math.isfinite(row.time) and math.isfinite(row.cost)):
            raise ConfigurationError(f"{path}: malformed row {record!r} (non-finite objective)")
        rows.append(row)
    return rows


def write_metrics(path: str | Path, rows: Sequence[dict]) -> None:
    write_file(path, "".join(json.dumps(row) + "\n" for row in rows))


def write_front_csv(
    path: str | Path, points: Sequence[ObjectivePoint], placements: Sequence[Placement]
) -> None:
    """Front export with the winning assignment vector alongside each point."""
    rows = []
    for point, placement in zip(points, placements):
        genes = " ".join(str(device) for _, device in sorted(placement.assignment.items()))
        rows.append((_fmt(point.time), _fmt(point.cost), genes))
    write_table(path, ("time", "cost", "chromosome"), rows)


# --- trajectories -------------------------------------------------------------

def trajectory_rows(scenario: Scenario, placement: Placement, weights: WeightVector) -> list[dict]:
    """Replay a total placement step by step and record the reward ledger.

    Services are re-placed in row-major order among the currently eligible
    ones, so any strategy's placement yields the same trajectory format a
    policy rollout would. Step 0 is the reporting-only pseudo step charging
    the initial all-in-cloud objectives.
    """
    env = PlacementEnv(scenario.applications[0], scenario.devices, weights)
    state = env.reset()
    rows = [
        {
            "step": 0,
            "service": None,
            "device": None,
            "r_time": -state.t_app,
            "r_cost": -state.cost,
            "r_total": -state.weighted,
            "t_app": state.t_app,
            "cost": state.cost,
        }
    ]
    app = env.app
    step = 0
    done = not env.services
    while not done:
        eligible = [s for s, ok in zip(env.services, state.eligible_mask) if ok]
        service = eligible[0]
        device = placement.assignment[service]
        state, reward, done = env.step(Action(service, device))
        step += 1
        rows.append(
            {
                "step": step,
                "service": app.service_index(service),
                "device": int(device),
                "r_time": reward.r_time,
                "r_cost": reward.r_cost,
                "r_total": reward.r_total,
                "t_app": state.t_app,
                "cost": state.cost,
            }
        )
    return rows


# --- manifest -----------------------------------------------------------------

@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    version: str
    started_at: str
    finished_at: str
    duration_s: float
    outputs: list[str] = field(default_factory=list)


def utc_stamp(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def write_manifest(run_dir: str | Path, manifest: RunManifest) -> Path:
    path = Path(run_dir) / MANIFEST_NAME
    write_json(path, asdict(manifest))
    return path


def read_manifest(run_dir: str | Path) -> RunManifest:
    """Unknown keys are ignored, such as ``threads``, which older versions wrote."""
    path = Path(run_dir) / MANIFEST_NAME
    raw = read_json(path, "manifest")
    return from_json(RunManifest, raw, f"{path}: manifest", ignore_unknown=True)


# --- comparison ---------------------------------------------------------------

@dataclass
class MethodSummary:
    label: str
    points: list[ObjectivePoint]
    front: list[ObjectivePoint]
    hypervolume: float


@dataclass
class ComparisonReport:
    methods: list[MethodSummary]
    joint_front: list[ObjectivePoint]
    reference: ObjectivePoint
    # dominance[a][b]: how many of b's front points some a front point beats
    dominance: dict[str, dict[str, int]]


def compare_solutions(labeled: dict[str, list[SolutionRow]]) -> ComparisonReport:
    """Joint Pareto view over several solution sets.

    The hypervolume reference point is the componentwise max over every point
    (so all points count), and dominance is measured front against front,
    which makes a run compared with itself score zero everywhere.
    """
    if len(labeled) < 2:
        raise ConfigurationError("comparison needs at least two solution sets")
    for label, rows in labeled.items():
        if not rows:
            raise ConfigurationError(f"solution set {label!r} is empty")
    all_points = [row.point for rows in labeled.values() for row in rows]
    reference = ObjectivePoint(
        max(p.time for p in all_points) + 1.0, max(p.cost for p in all_points) + 1.0
    )
    methods = []
    for label, rows in labeled.items():
        points = [row.point for row in rows]
        front = pareto_front(points)
        methods.append(
            MethodSummary(
                label=label,
                points=points,
                front=front,
                hypervolume=hypervolume_2d(front, reference),
            )
        )
    joint = pareto_front(all_points)
    dominance: dict[str, dict[str, int]] = {}
    for a in methods:
        dominance[a.label] = {}
        for b in methods:
            beaten = 0
            for p in b.front:
                if any(dominates(q, p) for q in a.front):
                    beaten += 1
            dominance[a.label][b.label] = beaten
    return ComparisonReport(
        methods=methods, joint_front=joint, reference=reference, dominance=dominance
    )


def write_comparison_csv(path: str | Path, labeled: dict[str, list[SolutionRow]]) -> None:
    joint = pareto_front([row.point for rows in labeled.values() for row in rows])
    write_table(path, ("label", "time", "cost", "joint_front_flag"), (
        (label, _fmt(row.time), _fmt(row.cost), int(row.point in joint))
        for label, rows in labeled.items() for row in rows
    ))


# --- native SVG scatter -------------------------------------------------------

_PALETTE = ("#1b6ca8", "#d1495b", "#3e8e5a", "#8a5ab8", "#c9822a", "#5a5a5a")
_TICKS = 5  # per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def svg_scatter(series: dict[str, list[ObjectivePoint]], title: str) -> str:
    """Self-contained 640 x 480 SVG scatter of time against cost, one labeled
    series per method."""
    if not series or all(not pts for pts in series.values()):
        raise ConfigurationError("nothing to plot")
    width, height, margin = 640, 480, 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    xs = [p.time for pts in series.values() for p in pts]
    ys = [p.cost for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v: float) -> float:
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
        f'font-size="15">{escape(title)}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{height - margin}" x2="{x:.1f}" '
            f'y2="{height - margin + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin + 18}" text-anchor="middle">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{margin - 5}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{margin - 8}" y="{y + 4:.1f}" text-anchor="end">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">response time</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.1f})">cost</text>'
    )
    for i, (label, points) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        for p in points:
            parts.append(
                f'<circle cx="{sx(p.time):.2f}" cy="{sy(p.cost):.2f}" r="4" '
                f'fill="{color}" fill-opacity="0.75" stroke="{color}"/>'
            )
        legend_y = margin + 16 + 18 * i
        parts.append(
            f'<circle cx="{width - margin - 130}" cy="{legend_y - 4}" r="4" fill="{color}"/>'
        )
        parts.append(f'<text x="{width - margin - 120}" y="{legend_y}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
