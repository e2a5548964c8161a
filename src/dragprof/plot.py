"""Plot emitters: self-contained SVG or gnuplot scripts from the CSVs.

The curve plot draws reachable objects as a solid line and live objects
as a dashed line.  The histogram plot uses a log-scale count axis with a
floor of 0.5 so empty bins stay representable.  Output is byte-for-byte
deterministic: no timestamps, no generator metadata.
"""

import csv

from .errors import CsvFormatError

_W, _H = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 610.0, 25.0, 385.0


def read_int_rows(path, header):
    """The rows after the header line of the CSV file at path, each a
    tuple of ints, one per header field."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CsvFormatError(f"{path}: expected a {','.join(header)} header")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            values = tuple(map(int, row))
        except ValueError:
            values = ()
        if len(values) != len(header):
            raise CsvFormatError(f"{path}: bad row at line {i}")
        out.append(values)
    return out


def read_curves_csv(path):
    return read_int_rows(path, ["tick", "reachable", "live"])


def read_histogram_csv(path):
    return read_int_rows(path, ["bin_lo", "bin_hi", "count"])


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="16" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{title}</text>',
    ]


def _axes(x_label, y_label):
    return [
        f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" '
        f'stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" '
        f'stroke="black"/>',
        f'<text x="{(_LEFT + _RIGHT) / 2:.0f}" y="{_H - 12}" '
        f'font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{(_TOP + _BOTTOM) / 2:.0f}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_TOP + _BOTTOM) / 2:.0f})">'
        f'{y_label}</text>',
    ]


def curves_svg(points) -> str:
    """Reachable (solid) and live (dashed) object counts over ticks."""
    max_t = max((p[0] for p in points), default=0) or 1
    max_v = max((max(p[1], p[2]) for p in points), default=0) or 1

    def px(t):
        return _LEFT + (t / max_t) * (_RIGHT - _LEFT)

    def py(v):
        return _BOTTOM - (v / max_v) * (_BOTTOM - _TOP)

    reach_pts = " ".join(f"{px(t):.2f},{py(r):.2f}" for t, r, _ in points)
    live_pts = " ".join(f"{px(t):.2f},{py(l):.2f}" for t, _, l in points)
    parts = _svg_header("reachable vs live objects")
    parts += _axes("tick", "objects")
    parts += [
        f'<text x="{_LEFT - 6}" y="{_BOTTOM + 4:.0f}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">0</text>',
        f'<text x="{_LEFT - 6}" y="{_TOP + 4:.0f}" '
        f'font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{max_v}</text>',
        f'<text x="{_RIGHT:.0f}" y="{_BOTTOM + 16:.0f}" '
        f'font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{max_t}</text>',
        f'<polyline fill="none" stroke="black" stroke-width="1.5" '
        f'points="{reach_pts}"/>',
        f'<polyline fill="none" stroke="black" stroke-width="1.5" '
        f'stroke-dasharray="6 4" points="{live_pts}"/>',
        # legend
        f'<line x1="{_RIGHT - 150}" y1="{_TOP + 10}" x2="{_RIGHT - 110}" '
        f'y2="{_TOP + 10}" stroke="black" stroke-width="1.5"/>',
        f'<text x="{_RIGHT - 104}" y="{_TOP + 14}" '
        f'font-family="sans-serif" font-size="12">reachable</text>',
        f'<line x1="{_RIGHT - 150}" y1="{_TOP + 28}" x2="{_RIGHT - 110}" '
        f'y2="{_TOP + 28}" stroke="black" stroke-width="1.5" '
        f'stroke-dasharray="6 4"/>',
        f'<text x="{_RIGHT - 104}" y="{_TOP + 32}" '
        f'font-family="sans-serif" font-size="12">live</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def histogram_svg(bins) -> str:
    """Dead-object counts per drag bin, log-scale with a 0.5 floor."""
    import math

    floor = 0.5
    max_c = max((count for _, _, count in bins), default=0)
    span = math.log10(max_c / floor) if max_c > floor else 1.0

    def height(count):
        v = max(count, floor)
        return (math.log10(v / floor) / span) * (_BOTTOM - _TOP)

    n = len(bins) or 1
    slot = (_RIGHT - _LEFT) / n
    parts = _svg_header("drag distribution (dead objects)")
    parts += _axes("drag (% of runtime)", "dead objects (log scale)")
    for i, (lo, hi, count) in enumerate(bins):
        h = height(count)
        x = _LEFT + i * slot + 1
        parts.append(
            f'<rect x="{x:.2f}" y="{_BOTTOM - h:.2f}" '
            f'width="{slot - 2:.2f}" height="{h:.2f}" fill="black"/>')
    parts += [
        f'<text x="{_LEFT:.0f}" y="{_BOTTOM + 16:.0f}" '
        f'font-family="sans-serif" font-size="11" text-anchor="start">'
        f'0</text>',
        f'<text x="{_RIGHT:.0f}" y="{_BOTTOM + 16:.0f}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">'
        f'100</text>',
        f'<text x="{_LEFT - 6}" y="{_BOTTOM + 4:.0f}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">'
        f'0.5</text>',
        f'<text x="{_LEFT - 6}" y="{_TOP + 4:.0f}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">'
        f'{max(max_c, 1)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def curves_gnuplot(csv_path) -> str:
    return "\n".join([
        'set datafile separator ","',
        "set key top right",
        'set xlabel "tick"',
        'set ylabel "objects"',
        f'plot "{csv_path}" using 1:2 skip 1 with lines dashtype 1 '
        f'title "reachable", \\',
        f'     "{csv_path}" using 1:3 skip 1 with lines dashtype 2 '
        f'title "live"',
    ]) + "\n"


def histogram_gnuplot(csv_path) -> str:
    return "\n".join([
        'set datafile separator ","',
        "set logscale y",
        "set yrange [0.5:*]",
        "set boxwidth 4.5",
        "set style fill solid",
        'set xlabel "drag (% of runtime)"',
        'set ylabel "dead objects (log scale)"',
        f'plot "{csv_path}" using (($1+$2)/2):($3 < 0.5 ? 0.5 : $3) '
        f'skip 1 with boxes notitle',
    ]) + "\n"
