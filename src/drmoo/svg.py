"""Pure-text SVG emission for trace curves and frontier scatters.

No rendering dependency: the functions assemble SVG strings directly.
Curves are drawn with a log-scale y axis (the balanced gradient spans
orders of magnitude); nonpositive values are clamped to half the smallest
positive value and non-finite ones (a diverged run's inf or nan) are drawn
at the top of the axis, so every coordinate is a finite point on the canvas.
"""

import math
from pathlib import Path

import numpy as np

from .trace import atomic_open, read_trace

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 20, 44

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _frame(title_y, title_x):
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle">{title_x}</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{title_y}</text>',
    ]
    return parts, (x0, x1, y0, y1)


def _ticks_linear(lo, hi):
    step = (hi - lo) / 4
    return [lo + k * step for k in range(5)]


def emit_svg_plot(trace_paths, metric: str, out_path) -> Path:
    """Log-y line plot of one trace column versus iteration.

    One polyline per trace file, legend labelled by file stem. An unknown
    column or a non-finite iter raises ValueError naming the file.
    """
    trace_paths = [Path(p) for p in trace_paths]
    if not trace_paths:
        raise ValueError("no traces")
    series = []
    for p in trace_paths:
        cols = read_trace(p)
        if metric not in cols:
            raise ValueError(f"unknown column: {metric!r} (file {p} has {list(cols)})")
        if not np.isfinite(cols["iter"]).all():
            raise ValueError(f"non-finite iter (file {p})")
        series.append((p.stem, cols["iter"], cols[metric]))

    pos = [v for _, _, ys in series for v in ys if v > 0 and math.isfinite(v)]
    floor = (min(pos) * 0.5 or min(pos)) if pos else 1e-12  # half of 5e-324 rounds to 0
    # ymin < ymax: floor < max(pos), or both are 5e-324, whose log is no integer
    ymin = math.floor(math.log10(floor))
    ymax = math.ceil(math.log10(max(pos))) if pos else 0
    xmax = max((xs[-1] if len(xs) else 1.0) for _, xs, _ in series) or 1.0

    parts, (x0, x1, y0, y1) = _frame(metric, "iteration")

    def sx(x):
        return x0 + (x / xmax) * (x1 - x0)

    def sy(v):
        if not math.isfinite(v):
            return y1
        v = max(v, floor)
        return y0 + (math.log10(v) - ymin) / (ymax - ymin) * (y1 - y0)

    for e in range(ymin, ymax + 1):
        yy = sy(10.0 ** e)
        parts.append(f'<line x1="{x0 - 4}" y1="{yy:.2f}" x2="{x0}" y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end">1e{e}</text>')
    for xv in _ticks_linear(0.0, xmax):
        xx = sx(xv)
        parts.append(f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{xx:.2f}" y="{y0 + 18}" text-anchor="middle">{xv:.0f}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = y1 + 14 + 16 * k
        parts.append(f'<line x1="{x1 - 150}" y1="{ly}" x2="{x1 - 126}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x1 - 120}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>")
    out_path = Path(out_path)
    with atomic_open(out_path) as fh:
        fh.write("\n".join(parts) + "\n")
    return out_path


def emit_svg_scatter(point_sets, labels, out_path) -> Path:
    """Linear-axes scatter of labelled (f1, f2) point sets (frontier views).

    A point set is a (k, 2) array or a sequence of (f1, f2) pairs; the
    circles' coordinates are computed and formatted for a whole set at once,
    with the arithmetic of the axis ticks."""
    if not point_sets or len(point_sets) != len(labels):
        raise ValueError("need matching nonempty point sets and labels")
    point_sets = [np.asarray(pts, dtype=float).reshape(len(pts), 2) for pts in point_sets]
    allp = np.concatenate(point_sets)
    if not len(allp):
        raise ValueError("no points")
    (xlo, ylo), (xhi, yhi) = allp.min(axis=0).tolist(), allp.max(axis=0).tolist()
    xpad = (xhi - xlo or 1.0) * 0.05
    ypad = (yhi - ylo or 1.0) * 0.05
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    parts, (x0, x1, y0, y1) = _frame("f2", "f1")

    def sx(x):
        return x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)

    def sy(y):
        return y0 + (y - ylo) / (yhi - ylo) * (y1 - y0)

    for xv in _ticks_linear(xlo, xhi):
        xx = sx(xv)
        parts.append(f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{xx:.2f}" y="{y0 + 18}" text-anchor="middle">{xv:.2g}</text>')
    for yv in _ticks_linear(ylo, yhi):
        yy = sy(yv)
        parts.append(f'<line x1="{x0 - 4}" y1="{yy:.2f}" x2="{x0}" y2="{yy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end">{yv:.2g}</text>')

    for k, (pts, label) in enumerate(zip(point_sets, labels)):
        color = PALETTE[k % len(PALETTE)]
        circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>'
        if len(pts):  # one % over the set's interleaved coordinates
            xy = np.column_stack((sx(pts[:, 0]), sy(pts[:, 1]))).ravel().tolist()
            parts.append("\n".join([circle] * len(pts)) % tuple(xy))
        ly = y1 + 14 + 16 * k
        parts.append(f'<circle cx="{x1 - 144}" cy="{ly}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{x1 - 134}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>")
    out_path = Path(out_path)
    with atomic_open(out_path) as fh:
        fh.write("\n".join(parts) + "\n")
    return out_path
