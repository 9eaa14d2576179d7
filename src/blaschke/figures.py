"""SVG rendering of zero sets, orbits, chord families and Poncelet ellipses.

The closed disk maps onto a centered square canvas with a 5% margin; the
unit circle is always drawn.  Output is plain SVG 1.1 with no external
references, so rendered files are deterministic and diffable.
"""

from __future__ import annotations

import math

from .errors import Record
from .poncelet import CHORD_TOL, PonceletEllipse, _concurrent_pairing
from .products import ORIGIN_ZERO_TOL, BlaschkeProduct, blaschke_preimages

DISK_FRACTION = 0.45  # radius in canvas units: 5% margin on each side


class FigureSpec(Record):
    """What to draw: the product's zeros plus optional overlays."""

    _fields = ("product", "canvas", "ellipse", "chord_lambdas", "orbit")
    product: BlaschkeProduct
    canvas: int
    ellipse: PonceletEllipse | None
    chord_lambdas: tuple[complex, ...]
    orbit: tuple[complex, ...]

    def __init__(
        self,
        product: BlaschkeProduct,
        canvas: int = 640,
        ellipse: PonceletEllipse | None = None,
        chord_lambdas: tuple[complex, ...] = (),
        orbit: tuple[complex, ...] = (),
    ) -> None:
        self._set(product=product, canvas=canvas, ellipse=ellipse, chord_lambdas=chord_lambdas, orbit=orbit)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Canvas:
    def __init__(self, size: int) -> None:
        self.size = size
        self.scale = DISK_FRACTION * size
        self.parts: list[str] = []

    def map(self, z: complex) -> tuple[float, float]:
        return self.size / 2 + self.scale * z.real, self.size / 2 - self.scale * z.imag

    def circle(self, center: complex, radius: float, cls: str, fill: str = "none") -> None:
        cx, cy = self.map(center)
        self.parts.append(
            f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(radius * self.scale)}" fill="{fill}" stroke="#333333"/>'
        )

    def dot(self, z: complex, cls: str, color: str) -> None:
        cx, cy = self.map(z)
        self.parts.append(
            f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.0" fill="{color}"/>'
        )

    def line(self, a: complex, b: complex, cls: str, color: str, dash: str = "") -> None:
        x1, y1 = self.map(a)
        x2, y2 = self.map(b)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" fill="none"{extra}/>'
        )

    def polyline(self, points: tuple[complex, ...], cls: str, color: str) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map, points))
        self.parts.append(
            f'<polyline class="{cls}" points="{coords}" stroke="{color}" fill="none"/>'
        )

    def ellipse(self, e: PonceletEllipse) -> None:
        center = (e.focus1 + e.focus2) / 2
        half_focal = abs(e.focus1 - e.focus2) / 2
        rx = e.focal_sum / 2
        ry = math.sqrt(max(rx * rx - half_focal * half_focal, 0.0))
        angle = math.degrees(math.atan2((e.focus2 - e.focus1).imag, (e.focus2 - e.focus1).real))
        cx, cy = self.map(center)
        self.parts.append(
            f'<ellipse class="poncelet-ellipse" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'rx="{_fmt(rx * self.scale)}" ry="{_fmt(ry * self.scale)}" '
            f'transform="rotate({_fmt(-angle)} {_fmt(cx)} {_fmt(cy)})" '
            f'fill="none" stroke="#0066cc"/>'
        )


def render_svg(spec: FigureSpec) -> str:
    """Render the figure to an SVG 1.1 document string."""
    canvas = _Canvas(spec.canvas)
    size = spec.canvas
    canvas.parts.append(f'<rect width="{size}" height="{size}" fill="#ffffff"/>')
    canvas.circle(0j, 1.0, "unit-circle")

    if spec.ellipse is not None:
        canvas.ellipse(spec.ellipse)

    for lam in spec.chord_lambdas:
        pts = blaschke_preimages(spec.product, lam)
        canvas.polyline(pts + pts[:1], "preimage-polygon", "#888888")
        if spec.product.degree == 4:
            # Degree 4: draw the diagonals through the distinguished zero when
            # some zero admits a concurrent pairing.
            for a1 in spec.product.zeros:
                if abs(a1) <= ORIGIN_ZERO_TOL:
                    continue
                report = _concurrent_pairing(pts, a1, CHORD_TOL)
                if report is None:
                    continue
                for i, j in report.pairing:
                    canvas.line(pts[i], pts[j], "chord", "#cc3333", "4 3")
                break
        for p in pts:
            canvas.dot(p, "preimage", "#888888")

    if spec.orbit:
        canvas.polyline(spec.orbit, "orbit-path", "#22aa55")
        for p in spec.orbit:
            canvas.dot(p, "orbit-point", "#22aa55")

    for z in spec.product.zeros:
        canvas.dot(z, "zero", "#000000")

    body = "\n  ".join(canvas.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        f"  {body}\n"
        "</svg>\n"
    )
