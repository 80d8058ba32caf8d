"""Deterministic SVG renderings of trajectories and condition-number curves.

Hand-rolled SVG keeps the outputs textual, diffable, and free of plotting
dependencies; identical inputs produce byte-identical files.
"""

import math

__all__ = ["NoFiniteValues", "trajectory_svg", "condition_svg"]


class NoFiniteValues(ValueError):
    """A condition chart has no finite, positive value to draw."""


PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

PANEL = 220
MARGIN = 34


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _polyline(pts, color, width=1.0, opacity=1.0) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}"/>')


def _circle(x, y, r, color, opacity=1.0) -> str:
    return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="{color}" fill-opacity="{_fmt(opacity)}"/>')


def _line(x1, y1, x2, y2, color, width=1.0) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>')


def _rect(x, y, w, h, stroke="#333333", fill="none") -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>')


def _text(x, y, s, size=11, anchor="start", color="#222222") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}">{s}</text>')


def _document(width, height, body) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, _rect(0, 0, width, height, stroke="none", fill="#ffffff"),
                      *body, "</svg>"]) + "\n"


def trajectory_svg(groups: list) -> str:
    """One panel per (label, PathSet) group, paths drawn in the unit square.

    Single-point paths render as dots; multi-point paths as polylines with a
    dot on their first point. Directed-walk intermediates may poke outside
    the square border.
    """
    if not groups:
        raise ValueError("no path groups to draw")
    ncols = min(4, len(groups))
    nrows = math.ceil(len(groups) / ncols)
    width = ncols * (PANEL + MARGIN) + MARGIN
    height = nrows * (PANEL + MARGIN) + MARGIN
    body = []
    for idx, (label, paths) in enumerate(groups):
        ox = MARGIN + (idx % ncols) * (PANEL + MARGIN)
        oy = MARGIN + (idx // ncols) * (PANEL + MARGIN)

        def to_px(pt, ox=ox, oy=oy):
            # flip y so the square reads with the origin at its lower left
            return ox + pt[0] * PANEL, oy + (1.0 - pt[1]) * PANEL

        body.append(_text(ox + PANEL / 2, oy - 8, str(label), size=12, anchor="middle"))
        body.append(_rect(ox, oy, PANEL, PANEL))
        for i, (start, stop) in enumerate(zip(paths.offsets[:-1], paths.offsets[1:])):
            color = PALETTE[i % len(PALETTE)]
            pixels = [to_px(pt) for pt in paths.points[start:stop]]
            if len(pixels) == 1:
                body.append(_circle(*pixels[0], 2.0, color))
            else:
                body.append(_polyline(pixels, color, width=1.0, opacity=0.85))
                body.append(_circle(*pixels[0], 2.0, color, opacity=0.9))
    return _document(width, height, body)


def condition_svg(title: str, curves: list) -> str:
    """Line chart of mean condition number (log scale) against m/n.

    ``curves`` is a list of (label, xs, ys); non-finite ys are dropped.
    """
    cleaned = []
    for label, xs, ys in curves:
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y) and y > 0]
        if pts:
            cleaned.append((label, sorted(pts)))
    if not cleaned:
        raise NoFiniteValues(f"no finite condition numbers to plot for {title!r}")

    width, height = 520, 380
    left, right, top, bottom = 64, 24, 36, 46
    plot_w = width - left - right
    plot_h = height - top - bottom
    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = math.floor(math.log10(min(all_y)))
    y_hi = math.ceil(math.log10(max(all_y)))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + (y_hi - math.log10(y)) / (y_hi - y_lo) * plot_h

    body = [_text(width / 2, 18, title, size=13, anchor="middle")]
    # decade gridlines and y labels
    for exp in range(y_lo, y_hi + 1):
        y = top + (y_hi - exp) / (y_hi - y_lo) * plot_h
        body.append(_line(left, y, left + plot_w, y, "#dddddd"))
        body.append(_text(left - 6, y + 4, f"1e{exp}", anchor="end"))
    # x ticks at observed multiples (thin out if crowded)
    ticks = sorted(set(all_x))
    if len(ticks) > 8:
        ticks = ticks[:: len(ticks) // 8 + 1]
    for x in ticks:
        body.append(_line(px(x), top + plot_h, px(x), top + plot_h + 4, "#333333"))
        body.append(_text(px(x), top + plot_h + 16, _fmt(x), anchor="middle"))
    body.append(_rect(left, top, plot_w, plot_h))
    body.append(_text(left + plot_w / 2, height - 12, "m / n", anchor="middle"))
    y_mid = top + plot_h / 2
    body.append(f'<text x="16" y="{_fmt(y_mid)}" font-size="11" font-family="sans-serif" '
                f'text-anchor="middle" fill="#222222" '
                f'transform="rotate(-90 16 {_fmt(y_mid)})">mean condition number</text>')

    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pixels = [(px(x), py(y)) for x, y in pts]
        if len(pixels) > 1:
            body.append(_polyline(pixels, color, width=1.5))
        for x, y in pixels:
            body.append(_circle(x, y, 2.5, color))
        body.append(_line(left + plot_w - 120, top + 14 + 16 * i,
                          left + plot_w - 102, top + 14 + 16 * i, color, width=2.0))
        body.append(_text(left + plot_w - 97, top + 18 + 16 * i, label, size=10))
    return _document(width, height, body)
