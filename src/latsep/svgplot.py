"""SVG rendering of two-dimensional instances.

The one corner of the library where floating point is allowed: output
coordinates are scaled floats.  Filled circles are side A, open circles
side B; flag functionals are drawn as lines clipped to the viewport.
"""

from __future__ import annotations

from .errors import UnsupportedDimensionError

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    '<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>\n'
)

_SCALE, _PAD = 40, 1.2  # pixels per unit; margin around the points, in units


def _line_box_clip(nx, ny, c, x0, y0, x1, y1):
    """Intersections of nx*x + ny*y = c with the box border, as 0-2 points."""
    pts = []
    if abs(ny) > 1e-12:
        for x in (x0, x1):
            y = (c - nx * x) / ny
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(nx) > 1e-12:
        for y in (y0, y1):
            x = (c - ny * y) / nx
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    dedup = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-6 for q in dedup):
            dedup.append(p)
    return dedup[:2]


def render_svg(a_points, b_points, functionals=()) -> str:
    """SVG text for a planar instance; raises above dimension 2."""
    pts = list(a_points) + list(b_points)
    if not pts:
        raise UnsupportedDimensionError("nothing to plot")
    if any(len(p) != 2 for p in pts):
        raise UnsupportedDimensionError("plotting supports dimension 2 only")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs) - _PAD, max(xs) + _PAD
    y0, y1 = min(ys) - _PAD, max(ys) + _PAD
    w = (x1 - x0) * _SCALE
    h = (y1 - y0) * _SCALE

    def to_px(x, y):
        return ((x - x0) * _SCALE, (y1 - y) * _SCALE)

    parts = [_HEADER.format(w=f"{w:.0f}", h=f"{h:.0f}")]
    for g in functionals:
        nx, ny = float(g.normal[0]), float(g.normal[1])
        c = float(g.offset)
        ends = _line_box_clip(nx, ny, c, x0, y0, x1, y1)
        if len(ends) == 2:
            (ax, ay), (bx, by) = (to_px(*ends[0]), to_px(*ends[1]))
            parts.append(
                f'<line x1="{ax:.1f}" y1="{ay:.1f}" x2="{bx:.1f}" y2="{by:.1f}" '
                'stroke="#3366cc" stroke-width="2"/>\n'
            )
    for p in sorted(b_points):
        px, py = to_px(*p)
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="7" fill="#ffffff" '
            'stroke="#000000" stroke-width="2"/>\n'
        )
    for p in sorted(a_points):
        px, py = to_px(*p)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="7" fill="#000000"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
