"""Metrics rows, deterministic CSV output, and minimal SVG line plots.

CSV files are byte-reproducible for a fixed seed: '.' decimal, comma
delimiter, '\n' line endings, fixed float formatting, and the full run
configuration embedded as a commented header block so any run can be
reconstructed from its artifact alone. Wall time is written as 0.0 unless
STKN_TIMING=1, because measured time would break byte determinism.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

CSV_COLUMNS = ("keep_fraction", "strategy", "tau", "lambda", "seed", "epoch",
               "train_loss", "eval_accuracy", "mean_keep_ratio",
               "selection_recall", "wall_seconds")


def _escape(text: str) -> str:
    """&, < and > as XML entities, as xml.sax.saxutils.escape writes them; that
    module's import pulls in urllib, http.client, email and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def timing_enabled() -> bool:
    return os.environ.get("STKN_TIMING", "") == "1"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


@dataclass
class MetricsRow:
    keep_fraction: float
    strategy: str
    tau: float
    lam: float
    seed: int
    epoch: int
    train_loss: float
    eval_accuracy: float
    mean_keep_ratio: float
    selection_recall: float
    wall_seconds: float = 0.0

    def to_csv(self) -> str:
        return ",".join([
            _fmt(self.keep_fraction), self.strategy, _fmt(self.tau), _fmt(self.lam),
            str(self.seed), str(self.epoch), _fmt(self.train_loss),
            _fmt(self.eval_accuracy), _fmt(self.mean_keep_ratio),
            _fmt(self.selection_recall), _fmt(self.wall_seconds),
        ])


def write_metrics_csv(path: str, rows: list[MetricsRow], config: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(config):
            fh.write(f"# {key} = {config[key]}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")


def read_metrics_csv(path: str) -> tuple[list[dict], dict]:
    """Parse a metrics CSV back into row dicts plus the embedded config."""
    config: dict = {}
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                config[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows, config


# ---------------------------------------------------------------------------
# SVG: one polyline per series, drawn into a fixed 640x440 frame

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 60
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def write_line_plot(path: str, series: dict[str, list[tuple[float, float]]],
                    x_label: str, y_label: str, title: str) -> None:
    """series maps a name to sorted (x, y) points; one polyline per name."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    pad = 0.05 * max(y_hi - y_lo, 1e-9)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _scale(x, x_lo, x_hi, _ML, _W - _MR)

    def py(y):
        return _scale(y, y_lo, y_hi, _H - _MB, _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="12">{_escape(x_label)}</text>',
        f'<text x="14" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {(_MT + _H - _MB) // 2})">{_escape(y_label)}</text>',
    ]
    for tick in range(5):
        xv = x_lo + tick * (x_hi - x_lo) / 4 if x_hi > x_lo else x_lo
        yv = y_lo + tick * (y_hi - y_lo) / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
                     f'font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{_ML - 6}" y="{py(yv):.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.3g}</text>')
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{coords}"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 126}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly}" font-size="11">{_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
