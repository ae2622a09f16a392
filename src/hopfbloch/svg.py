"""Minimal SVG rendering of the three coordinate spheres.

Each sphere is drawn in orthographic projection (fixed viewpoint) as an
outline circle with great-circle wireframes, the sampled path as a
polyline, and start/end markers.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import functools
import math

_SIZE = 240
_RADIUS = 88.0
_AZ = math.radians(-50.0)
_EL = math.radians(18.0)
_COS_AZ, _SIN_AZ = math.cos(_AZ), math.sin(_AZ)
_COS_EL, _SIN_EL = math.cos(_EL), math.sin(_EL)

_PANELS = (
    ("qubit-a", "qubit A"),
    ("entanglement", "entanglement"),
    ("qubit-b", "qubit B"),
)


def _project(v, cx: float, cy: float) -> tuple[float, float]:
    x, y, z = v
    u = -x * _SIN_AZ + y * _COS_AZ
    depth = x * _COS_AZ + y * _SIN_AZ
    w = z * _COS_EL - depth * _SIN_EL
    return cx + _RADIUS * u, cy - _RADIUS * w


def _polyline(points, cx: float, cy: float, style: str) -> str:
    coords = " ".join("%.2f,%.2f" % _project(p, cx, cy) for p in points)
    return f'<polyline fill="none" {style} points="{coords}"/>'


@functools.cache  # built on first use, so importing stays cheap
def _wireframe(cx: float, cy: float) -> tuple[str, ...]:
    steps = 72
    ring = [i * 2.0 * math.pi / steps for i in range(steps + 1)]
    equator = [(math.cos(a), math.sin(a), 0.0) for a in ring]
    meridian_a = [(math.cos(a), 0.0, math.sin(a)) for a in ring]
    meridian_b = [(0.0, math.cos(a), math.sin(a)) for a in ring]
    grid = 'stroke="#c8c8c8" stroke-width="0.6"'
    parts = [f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{_RADIUS:.2f}" '
             'fill="none" stroke="#404040" stroke-width="1.2"/>']
    parts += [_polyline(pts, cx, cy, grid)
              for pts in (equator, meridian_a, meridian_b)]
    return tuple(parts)


def _marker(v, cx: float, cy: float, color: str) -> str:
    px, py = _project(v, cx, cy)
    return (f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.2" '
            f'fill="{color}"/>')


def render_spheres(paths) -> str:
    """SVG document with one group per sphere.

    ``paths`` holds three flat sequences of unit 3-vector coordinates
    (x0, y0, z0, x1, ...), ordered qubit-A sphere, entanglement sphere,
    qubit-B sphere.
    """
    width = _SIZE * len(_PANELS)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_SIZE}" viewBox="0 0 {width} {_SIZE}">',
    ]
    for idx, ((name, label), points) in enumerate(zip(_PANELS, paths)):
        cx = _SIZE * (idx + 0.5)
        cy = _SIZE * 0.52
        parts.append(f'<g class="sphere" id="{name}">')
        parts.extend(_wireframe(cx, cy))
        if points:
            xyz = iter(points)
            parts.append(_polyline(zip(xyz, xyz, xyz), cx, cy,
                                   'stroke="#c03028" stroke-width="1.6"'))
            parts.append(_marker(points[:3], cx, cy, "#2060c0"))
            parts.append(_marker(points[-3:], cx, cy, "#c03028"))
        parts.append(f'<text x="{cx:.2f}" y="18" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
