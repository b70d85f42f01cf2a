"""Command-line front end: JSON in, JSON out, deterministic output.

Subcommands: decide, witness, verify, table, oracle-check, cylinders.
Exit status 0 means realizable / verified / full agreement, 1 means not
realizable / violation / disagreement, 2 means a malformed document, a
validation error, an exhausted search budget or any other error.

Only subcommands and the request and report documents live here:
``witness`` decides and builds through :mod:`resflat.surfaces`, ``verify``
calls :func:`resflat.verify.verify_certificate`, and the kernel reads and
writes its own certificate format.  The module imports only
:mod:`resflat.core` at the top; each subcommand imports the modules it
runs, so a process loads only what its subcommand needs.  ``verify`` loads
core and verify, ``decide`` and ``table`` load core and decide, and
``witness`` loads graphs only on the stable-assembly routes.

Documents are JSON on :mod:`resflat.core`'s scalars.  Strata are {"genus",
"zeros", "poles", "simple_poles"} with positive pole orders; a request adds
"residues".
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from math import gcd
from typing import TYPE_CHECKING, Any

from .core import (
    FORMAT_VERSION,
    DocumentError,
    QQi,
    SearchBudgetExceeded,
    StratumSignature,
    _int_list,
    _is_int,
    _residues_from_json,
    residue_tuple,
)

if TYPE_CHECKING:
    from . import decide as _decide
    from . import verify as _verify


# ---------------------------------------------------------------------------
# JSON codecs


def _stratum_to_json(sig: StratumSignature) -> dict:
    return {
        "genus": sig.genus,
        "zeros": list(sig.zeros),
        "poles": list(sig.higher_poles),
        "simple_poles": sig.simple_poles,
    }


def _stratum_from_json(doc: Any, path: str) -> StratumSignature:
    if not isinstance(doc, dict):
        raise DocumentError(path, "expected a stratum object")
    if not _is_int(doc.get("genus")):
        raise DocumentError(path + ".genus", "expected an integer")
    zeros = _int_list(doc.get("zeros", []), path + ".zeros")
    poles = _int_list(doc.get("poles", []), path + ".poles")
    simple = doc.get("simple_poles", 0)
    if not _is_int(simple):
        raise DocumentError(path + ".simple_poles", "expected an integer")
    return StratumSignature(doc["genus"], zeros, poles, simple)


def _verdict_document(sig: StratumSignature, verdict: _decide.Verdict, **extra) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "verdict",
        "stratum": _stratum_to_json(sig),
        "verdict": {
            "realizable": verdict.realizable,
            "reason": verdict.reason,
            "certificate_hint": verdict.certificate_hint,
            "every_component": verdict.every_component,
        },
        **extra,
    }


# ---------------------------------------------------------------------------
# I/O helpers


def _read_document(source: str) -> Any:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None


def _write_document(doc: Any, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _request_pair(doc: Any) -> tuple[StratumSignature, tuple[QQi, ...]]:
    if not isinstance(doc, dict):
        raise DocumentError("$", "expected an object with 'stratum' and 'residues'")
    sig = _stratum_from_json(doc.get("stratum"), "$.stratum")
    residues = _residues_from_json(doc.get("residues", []), "$.residues")
    return sig, residues


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_decide(args: argparse.Namespace) -> int:
    from . import decide as _decide

    sig, residues = _request_pair(_read_document(args.input))
    verdict = _decide.decide_realizable(sig, residues)
    _write_document(_verdict_document(sig, verdict), args.output)
    return 0 if verdict.realizable else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    from . import decide as _decide
    from . import surfaces as _surfaces
    from . import verify as _verify

    doc_in = _read_document(args.input)
    sig, residues = _request_pair(doc_in)
    rotation = doc_in.get("rotation")  # _request_pair takes only an object
    if rotation is not None and not _is_int(rotation):
        raise DocumentError("$.rotation", "expected an integer or null")
    verdict = _decide.decide_realizable(sig, residues)
    if not verdict.realizable:
        _write_document(_verdict_document(sig, verdict), args.output)
        return 1
    cert = _surfaces._build_on_route(sig, residues, verdict, rotation)
    _write_document(_verify._certificate_to_json(cert), args.output)
    if args.svg:
        _emit_svg(cert, args.svg)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify as _verify

    cert = _verify._certificate_from_json(_read_document(args.input))
    try:
        profile = _verify.verify_certificate(cert)
    except _verify.VerificationError as exc:
        doc, code = {"kind": "violation", "violations": list(exc.violations)}, 1
    else:
        doc, code = {"kind": "profile", "profile": _verify._profile_to_json(profile)}, 0
    _write_document({"format_version": FORMAT_VERSION, **doc}, args.output)
    return code


def _cmd_table(args: argparse.Namespace) -> int:
    from . import decide as _decide

    if args.input:
        doc = _read_document(args.input)
        if not isinstance(doc, dict):
            raise DocumentError("$", "expected an object")
        s_min = doc.get("s_min", 2)
        s_max = doc.get("s_max")
        max_zero = doc.get("max_zero")
    else:
        s_min, s_max, max_zero = args.s_min, args.s_max, args.max_zero
    if not (_is_int(s_min) and _is_int(s_max)) or s_max < s_min:
        raise DocumentError("$.s_min/s_max", "expected integers with s_min <= s_max")
    if max_zero is not None and not _is_int(max_zero):
        raise DocumentError("$.max_zero", "expected an integer or null")
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
    _write_document(
        {"format_version": FORMAT_VERSION, "kind": "excluded-ray-table", "rows": rows},
        args.output,
    )
    return 0


def _oracle_cases(s_max: int, entry_bound: int):
    # Nonzero entries summing to zero take both signs.
    values = [v for v in range(-entry_bound, entry_bound + 1) if v]
    for s in range(2, s_max + 1):
        for combo in itertools.combinations_with_replacement(values, s):
            if sum(combo) == 0 and gcd(*combo) == 1:
                yield combo


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from . import decide as _decide
    from . import graphs as _graphs

    if args.input:
        doc = _read_document(args.input)
        if not isinstance(doc, dict):
            raise DocumentError("$", "expected an object")
        s_max = doc.get("s_max", args.s_max)
        entry_bound = doc.get("entry_bound", args.entry_bound)
    else:
        s_max, entry_bound = args.s_max, args.entry_bound
    if not _is_int(s_max) or s_max < 2:
        raise DocumentError("$.s_max", "expected an integer of at least 2")
    if not _is_int(entry_bound) or entry_bound < 1:
        raise DocumentError("$.entry_bound", "expected a positive integer")
    cases = 0
    disagreements = []
    for combo in _oracle_cases(s_max, entry_bound):
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
    _write_document(
        {
            "format_version": FORMAT_VERSION,
            "kind": "oracle-check",
            "cases": cases,
            "disagreements": disagreements,
            "agreement": agreement,
        },
        args.output,
    )
    return 0 if not disagreements else 1


def _cmd_cylinders(args: argparse.Namespace) -> int:
    from . import decide as _decide

    doc = _read_document(args.input)
    if not isinstance(doc, dict):
        raise DocumentError("$", "expected an object")
    sig = _stratum_from_json(doc.get("stratum"), "$.stratum")
    lam = _residues_from_json(doc.get("circumferences"), "$.circumferences")
    verdict = _decide.search_cylinder_tuple(sig, lam, budget=args.budget)
    searched = verdict.reason in (_decide.REASON_SEARCH_REALIZABLE, _decide.REASON_SEARCH_NONE)
    via = "search" if searched else "closed-form"
    _write_document(_verdict_document(sig, verdict, via=via), args.output)
    return 0 if verdict.realizable else 1


# ---------------------------------------------------------------------------
# SVG emission (informational only, never parsed back)


def _walks(piece: _verify.Piece) -> tuple:
    """Each boundary chain of a piece and the height its drawing starts at."""
    from . import verify as _verify

    if isinstance(piece, _verify.PolarPart):
        return ((piece.top, 0.0), (piece.bottom, -1.0))
    return ((piece.edges if isinstance(piece, _verify.Polygon) else piece.vectors, 0.0),)


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


def _emit_svg(cert: _verify.ConstructionCertificate, path: str) -> None:
    """Draw the pieces of the surface with shared labels on matched edges."""
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
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} '
        f'{height:.0f}" width="{width:.0f}" height="{height:.0f}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resflat",
        description=(
            "Decide, construct and verify realizability of prescribed "
            "zero/pole orders and residues of meromorphic abelian differentials."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_input: bool = True):
        cmd = sub.add_parser(name)
        if needs_input:
            cmd.add_argument("input", help="input JSON document, or - for stdin")
        else:
            cmd.add_argument(
                "input", nargs="?", default=None, help="optional input JSON document"
            )
        cmd.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        return cmd

    add("decide")
    w = add("witness")
    w.add_argument("--svg", default=None, help="also draw the surface to this SVG file")
    add("verify")
    t = add("table", needs_input=False)
    t.add_argument("--s-min", type=int, default=2)
    t.add_argument("--s-max", type=int, default=6)
    t.add_argument("--max-zero", type=int, default=None)
    o = add("oracle-check", needs_input=False)
    o.add_argument("--s-max", type=int, default=7)
    o.add_argument("--entry-bound", type=int, default=5)
    c = add("cylinders")
    c.add_argument("--budget", type=int, default=None, help="search budget")
    return parser


_COMMANDS = {
    "decide": _cmd_decide,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "oracle-check": _cmd_oracle_check,
    "cylinders": _cmd_cylinders,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DocumentError, ValueError, OSError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "not realizable", never a crash
        print(f"error: internal error, {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
