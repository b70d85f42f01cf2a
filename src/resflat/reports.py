"""The documents and the drawing that the everyday round trip never makes:
the excluded-ray table, the sweep of the closed form against the
brute-force oracle, and the SVG sketch of a witness's pieces.

Only ``resflat table``, ``resflat oracle-check`` and ``resflat witness
--svg`` import this module, so a ``decide``, ``witness`` or ``verify``
process never compiles it.  Each entry point takes values the command line
has already validated and returns a document or a drawing; the caller
writes it.  The module never imports :mod:`resflat.cli`: under ``python -m
resflat.cli`` that module runs as ``__main__``, and importing it by name
would compile and run it a second time.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import TYPE_CHECKING

from . import decide as _decide
from .core import FORMAT_VERSION, StratumSignature, residue_tuple

if TYPE_CHECKING:
    from . import verify as _verify


def table_document(s_min: int, s_max: int, max_zero: int | None) -> dict:
    """The excluded primitive rays for s_min..s_max simple poles, each s
    with zero orders up to ``max_zero`` (default s - 2)."""
    rows = []
    for s in range(s_min, s_max + 1):
        bound = max_zero if max_zero is not None else s - 2
        rays = _decide.enumerate_excluded_rays(s, bound)
        rows.append(
            {
                "s": s,
                "max_zero": bound,
                "count": len(rays),
                "rays": [list(ray.integers) for ray in rays],
            }
        )
    return {"format_version": FORMAT_VERSION, "kind": "excluded-ray-table", "rows": rows}


def oracle_cases(s_max: int, entry_bound: int):
    """Every primitive integer tuple of length 2..s_max, entries nonzero and
    at most ``entry_bound`` in size, summing to zero."""
    # Nonzero entries summing to zero take both signs.
    values = [v for v in range(-entry_bound, entry_bound + 1) if v]
    for s in range(2, s_max + 1):
        for combo in itertools.combinations_with_replacement(values, s):
            if sum(combo) == 0 and gcd(*combo) == 1:
                yield combo


def oracle_document(s_max: int, entry_bound: int) -> dict:
    """The closed form against the brute-force oracle on every tuple of
    :func:`oracle_cases`, with the tuples where they disagree."""
    from . import graphs as _graphs

    cases = 0
    disagreements = []
    for combo in oracle_cases(s_max, entry_bound):
        cases += 1
        sig = StratumSignature(0, (len(combo) - 2,), (), len(combo))
        closed = _decide.decide_realizable(sig, residue_tuple(combo)).realizable
        # A "yes" counts only with a schedule the replay accepts; a rejected one disagrees.
        steps = _graphs.find_connection_graph(combo)
        brute = steps is not None and _graphs.is_connection_graph(combo, steps)
        if closed != brute or brute != (steps is not None):
            disagreements.append(
                {"tuple": list(combo), "closed_form": closed, "brute_force": brute}
            )
    agreement = "100%" if not disagreements else (
        f"{100.0 * (cases - len(disagreements)) / cases:.4f}%"
    )
    return {
        "format_version": FORMAT_VERSION,
        "kind": "oracle-check",
        "cases": cases,
        "disagreements": disagreements,
        "agreement": agreement,
    }


# ---------------------------------------------------------------------------
# SVG drawing (informational only, never parsed back)


def _walks(piece: _verify.Piece) -> tuple:
    """Each boundary chain of a piece and the height its drawing starts at."""
    from . import verify as _verify

    chains = _verify._CHAINS[type(piece)]
    return tuple([(getattr(piece, name), float(-k)) for k, name in enumerate(chains)])


def _piece_drawing(
    piece: _verify.Piece, top: int
) -> tuple[list, tuple[float, float, float, float]]:
    """Line segments [(x1, y1, x2, y2, slot_id)] and a bounding box, with
    the integer pairs counted in quarters of ``top``."""
    segs = []
    for chain, y in _walks(piece):
        x = 0.0
        for vx, vy in chain:
            # int / int rounds the exact quotient once, as float(Fraction) does.
            nx, ny = x + 4 * vx / top, y + 4 * vy / top
            segs.append((x, y, nx, ny, len(segs)))
            x, y = nx, ny
    xs = [c for s in segs for c in (s[0], s[2])] or [0.0]
    ys = [c for s in segs for c in (s[1], s[3])] or [0.0]
    return segs, (min(xs), min(ys), max(xs), max(ys))


def svg_drawing(cert: _verify.ConstructionCertificate) -> str:
    """The pieces of the surface side by side, with shared labels on
    matched edges, as an SVG document."""
    scale = 40.0
    pad = 30.0
    elements = []
    cursor_x = 0.0
    max_y = 0.0
    surface = cert.surface
    # Pairs are divided exactly by a quarter of the largest coordinate before
    # rounding, so a drawing neither overflows nor vanishes at any magnitude.
    top = max(abs(c) for piece in surface.pieces for vs, _ in _walks(piece) for v in vs for c in v)
    labels = {slot: num for num, pair in enumerate(surface.pairings) for slot in pair}
    for idx, piece in enumerate(surface.pieces):
        segs, (x0, y0, x1, y1) = _piece_drawing(piece, top)
        w = max(x1 - x0, 1.0)
        h = (y1 - y0) * scale
        for sx, sy, ex, ey, slot in segs:
            a = (cursor_x + (sx - x0) * scale, 20.0 + (y1 - sy) * scale)
            b = (cursor_x + (ex - x0) * scale, 20.0 + (y1 - ey) * scale)
            elements.append(
                f'<line x1="{a[0]:.1f}" y1="{a[1]:.1f}" x2="{b[0]:.1f}" '
                f'y2="{b[1]:.1f}" stroke="black" stroke-width="1.5"/>'
            )
            tag = labels.get((idx, slot))
            if tag is not None:
                mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2 - 4
                elements.append(
                    f'<text x="{mx:.1f}" y="{my:.1f}" font-size="11" '
                    f'text-anchor="middle" fill="crimson">{tag}</text>'
                )
        name = type(piece).__name__
        elements.append(
            f'<text x="{cursor_x:.1f}" y="{h + 40.0:.1f}" '
            f'font-size="10" fill="gray">{name} #{idx}</text>'
        )
        max_y = max(max_y, h + 60.0)
        cursor_x += w * scale + pad
    cursor_x += 2 * pad
    width = max(cursor_x, 100.0)
    height = max(max_y, 100.0)
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} '
        f'{height:.0f}" width="{width:.0f}" height="{height:.0f}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
    )
