"""Hand-rolled SVG output for trajectories and sweep charts.

Everything here is a pure function from arrays to an SVG string with fixed
number formatting, so identical inputs give byte-identical files.  Only 2-D
data is drawn; callers project higher-dimensional states down first.
"""

import numpy as np

_W, _H, _MARGIN = 640, 480, 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x):
    return f"{float(x):.6g}"


def _bounds(arrays):
    if not arrays:
        return 0.0, 1.0, 0.0, 1.0
    stacked = np.concatenate([np.asarray(a, dtype=float).reshape(-1, 2) for a in arrays])
    x_lo, y_lo = stacked.min(axis=0)
    x_hi, y_hi = stacked.max(axis=0)
    # Degenerate spans still need a drawable box.
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x, pad_y = 0.05 * (x_hi - x_lo), 0.05 * (y_hi - y_lo)
    return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y


class _Frame:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    def px(self, x):
        return _MARGIN + (x - self.x_lo) / (self.x_hi - self.x_lo) * (_W - 2 * _MARGIN)

    def py(self, y):
        return _H - _MARGIN - (y - self.y_lo) / (self.y_hi - self.y_lo) * (_H - 2 * _MARGIN)


def _axes(frame, x_label, y_label):
    parts = [
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
    ]
    for i in range(5):
        fx = frame.x_lo + i * (frame.x_hi - frame.x_lo) / 4
        fy = frame.y_lo + i * (frame.y_hi - frame.y_lo) / 4
        px, py = frame.px(fx), frame.py(fy)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_H - _MARGIN}" x2="{_fmt(px)}" y2="{_H - _MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MARGIN + 18}" font-size="11" text-anchor="middle">{_fmt(fx)}</text>')
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{_fmt(py)}" x2="{_MARGIN}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{_fmt(fy)}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 12}" font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{_H // 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H // 2})">{y_label}</text>')
    return parts


def _document(parts):
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n{body}\n</svg>\n')


def render_trajectories(paths, x_label="z_0", y_label="z_1"):
    """Draw 2-D trajectories as polylines, circle at start, square at end.

    paths is a sequence of (n, 2) arrays; an empty sequence still yields a
    valid axes-only document.
    """
    paths = [np.asarray(p, dtype=float) for p in paths]
    for p in paths:
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"trajectories must be (n, 2) arrays, got shape {p.shape}")
    frame = _Frame(*_bounds(paths))
    parts = _axes(frame, x_label, y_label)
    for i, p in enumerate(paths):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in p)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        sx, sy = frame.px(p[0, 0]), frame.py(p[0, 1])
        ex, ey = frame.px(p[-1, 0]), frame.py(p[-1, 1])
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" fill="{color}"/>')
        parts.append(f'<rect x="{_fmt(ex - 3.5)}" y="{_fmt(ey - 3.5)}" width="7" height="7" fill="{color}"/>')
    return _document(parts)


def render_metric_chart(points, x_label, y_label):
    """Line chart of (x, y) pairs, drawn in ascending-x order with markers."""
    pts = sorted((float(x), float(y)) for x, y in points)
    if pts:
        arr = np.array(pts)
        frame = _Frame(*_bounds([np.stack([arr[:, 0], arr[:, 1]], axis=1)]))
    else:
        frame = _Frame(*_bounds([]))
    parts = _axes(frame, x_label, y_label)
    if pts:
        pixels = [(_fmt(frame.px(x)), _fmt(frame.py(y))) for x, y in pts]
        poly = " ".join(f"{px},{py}" for px, py in pixels)
        parts.append(f'<polyline points="{poly}" fill="none" stroke="{_PALETTE[0]}" stroke-width="1.5"/>')
        for px, py in pixels:
            parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{_PALETTE[0]}"/>')
    return _document(parts)


def render_point_cloud(clouds, x_label="z_0", y_label="z_1"):
    """Scatter one or more 2-D point clouds with the shared palette."""
    clouds = [np.asarray(c, dtype=float) for c in clouds]
    frame = _Frame(*_bounds(clouds))
    parts = _axes(frame, x_label, y_label)
    for i, cloud in enumerate(clouds):
        color = _PALETTE[i % len(_PALETTE)]
        for x, y in cloud:
            parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" '
                         f'r="2.5" fill="{color}" fill-opacity="0.6"/>')
    return _document(parts)
