"""Single-file SVG rendering of sweep tables: one log-log error curve.

No plotting stack; the chart is a polyline with decade gridlines, point
markers, and confidence whiskers where standard errors exist. Input rows are
(kappa, estimate, std_error or None) tuples, already filtered to successful
sweep points: kappa positive and finite, estimate finite. Positions are worked
out in log10 space, so no finite value overflows the chart.
"""

from __future__ import annotations

import math
import sys

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 55
TOP_PAD = math.log10(1.0001)  # a top value on a decade still gets a decade above it


def _escape(text: str) -> str:
    """text as XML character data; xml.sax.saxutils would import urllib.request and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo: float, hi: float) -> tuple[int, int]:
    """The first and last decade of an axis spanning log10 values lo..hi."""
    return math.floor(lo), math.ceil(hi + TOP_PAD)


def render_sweep_svg(
    rows: list[tuple[float, float, float | None]],
    title: str = "stationary error sweep",
    flag: str = "",
) -> str:
    """Render (kappa, estimate, std_error) rows to an SVG document string."""
    if not rows:
        raise ValueError("no successful sweep rows to plot")
    rows = sorted(rows, key=lambda r: r[0])
    positive = [e for _, e, _ in rows if e > 0]
    floor = math.log10(min(positive)) - 1.0 if positive else -16.0

    def lg(e: float) -> float:
        """log10 of e, held at the floor below and at the largest float above."""
        return max(math.log10(min(e, sys.float_info.max)), floor) if e > 0 else floor

    xs = [math.log10(k) for k, _, _ in rows]
    ys = [lg(e) for _, e, _ in rows]
    # (x, low, high) of each whisker; 1.96 * se may overflow to inf, which lg clamps.
    bars = [(x, lg(e - 1.96 * se), lg(e + 1.96 * se))
            for x, (_, e, se) in zip(xs, rows) if se and math.isfinite(se)]
    x_min, x_max = _decades(min(xs), max(xs))
    y_min, y_max = _decades(min(ys + [lo for _, lo, _ in bars]),
                            max(ys + [hi for _, _, hi in bars]))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-size="15">{_escape(title)}</text>',
    ]
    if flag:
        parts.append(
            f'<text x="{WIDTH - MARGIN_R}" y="24" text-anchor="end" font-size="13">'
            f"{_escape(flag)}</text>"
        )
    for d in range(x_min, x_max + 1):
        x = px(d)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">'
            f"1e{d}</text>"
        )
    for d in range(y_min, y_max + 1):
        y = py(d)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">1e{d}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>'
    )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">noise strength kappa</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">stationary error</text>'
    )

    for x, lo, hi in bars:
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{py(hi):.1f}" x2="{px(x):.1f}" y2="{py(lo):.1f}" '
            f'stroke="#c33" stroke-width="1.5"/>'
        )
    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#225" stroke-width="2"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4" fill="#225"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
