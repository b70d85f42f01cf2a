"""Command-line front end: JSON in, JSON out, deterministic output.

Subcommands: decide, witness, verify, table, oracle-check, cylinders.
Exit status 0 means realizable / verified / full agreement, 1 means not
realizable / violation / disagreement, 2 means a malformed command line or
document, a validation error, an exhausted search budget or any other
error, reported as one ``error:`` line on stderr.

Only the subcommands' handlers, the command line and the request and report
documents live here: ``witness`` decides and builds through
:mod:`resflat.surfaces`, ``verify`` calls
:func:`resflat.verify.verify_certificate`, and the kernel reads and writes
its own certificate format.  The module imports only :mod:`resflat.core`
at the top, and reads its command line from one table, without argparse.
Each subcommand imports the modules it runs, so a process loads only what
its subcommand needs:

* ``verify`` loads ``verify``;
* ``decide`` and ``cylinders`` load ``decide`` (``cylinders`` also
  ``graphs`` when it searches);
* ``witness`` loads ``decide``, ``verify`` and ``surfaces``, ``graphs``
  only on the stable-assembly routes, and ``reports`` only for ``--svg``;
* ``table`` loads ``decide`` and ``reports``, and ``oracle-check`` also
  ``graphs``.

Documents are JSON on :mod:`resflat.core`'s scalars.  Strata are {"genus",
"zeros", "poles", "simple_poles"} with positive pole orders; a request adds
"residues".
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from .core import (
    CYLINDER_BUDGET,
    FORMAT_VERSION,
    DocumentError,
    QQi,
    SearchBudgetExceeded,
    StratumSignature,
    _int_list,
    _is_int,
    _residues_from_json,
)

if TYPE_CHECKING:
    from . import decide as _decide


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


def _sweep_options(args: SimpleNamespace, *names: str) -> list:
    """The named options, each overridden by the input document's field of
    the same name when the command line gives a document."""
    if not args.input:
        return [getattr(args, name) for name in names]
    doc = _read_document(args.input)
    if not isinstance(doc, dict):
        raise DocumentError("$", "expected an object")
    return [doc.get(name, getattr(args, name)) for name in names]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_decide(args: SimpleNamespace) -> int:
    from . import decide as _decide

    sig, residues = _request_pair(_read_document(args.input))
    verdict = _decide.decide_realizable(sig, residues)
    _write_document(_verdict_document(sig, verdict), args.output)
    return 0 if verdict.realizable else 1


def _cmd_witness(args: SimpleNamespace) -> int:
    from . import decide as _decide
    from . import surfaces as _surfaces
    from . import verify as _verify

    doc_in = _read_document(args.input)
    sig, residues = _request_pair(doc_in)
    rotation = doc_in.get("rotation")  # _request_pair takes only an object
    if rotation is not None and not _is_int(rotation):
        raise DocumentError("$.rotation", "expected an integer or null")
    verdict, residues, on_lattice = _decide._decision(sig, residues)
    if not verdict.realizable:
        _write_document(_verdict_document(sig, verdict), args.output)
        return 1
    cert = _surfaces._build_on_route(sig, residues, on_lattice, verdict, rotation)
    _write_document(_verify._certificate_to_json(cert), args.output)
    if args.svg:
        from . import reports as _reports

        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(_reports.svg_drawing(cert))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
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


def _cmd_table(args: SimpleNamespace) -> int:
    from . import reports as _reports

    s_min, s_max, max_zero = _sweep_options(args, "s_min", "s_max", "max_zero")
    if not (_is_int(s_min) and _is_int(s_max)) or s_max < s_min:
        raise DocumentError("$.s_min/s_max", "expected integers with s_min <= s_max")
    if s_min < 2:
        raise DocumentError("$.s_min", "expected an integer of at least 2")
    if max_zero is not None and not _is_int(max_zero):
        raise DocumentError("$.max_zero", "expected an integer or null")
    if max_zero is not None and max_zero < 0:
        raise DocumentError("$.max_zero", "expected a nonnegative integer or null")
    _write_document(_reports.table_document(s_min, s_max, max_zero), args.output)
    return 0


def _cmd_oracle_check(args: SimpleNamespace) -> int:
    from . import reports as _reports

    s_max, entry_bound = _sweep_options(args, "s_max", "entry_bound")
    if not _is_int(s_max) or s_max < 2:
        raise DocumentError("$.s_max", "expected an integer of at least 2")
    if not _is_int(entry_bound) or entry_bound < 1:
        raise DocumentError("$.entry_bound", "expected a positive integer")
    doc = _reports.oracle_document(s_max, entry_bound)
    _write_document(doc, args.output)
    return 0 if not doc["disagreements"] else 1


def _cmd_cylinders(args: SimpleNamespace) -> int:
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
# Entry point


# Each subcommand's handler, whether it needs its input document, and its
# options besides -o/--output: flag -> (field, type, default).
_SUBCOMMANDS = {
    "decide": (_cmd_decide, True, {}),
    "witness": (_cmd_witness, True, {"--svg": ("svg", str, None)}),
    "verify": (_cmd_verify, True, {}),
    "table": (
        _cmd_table,
        False,
        {
            "--s-min": ("s_min", int, 2),
            "--s-max": ("s_max", int, 6),
            "--max-zero": ("max_zero", int, None),
        },
    ),
    "oracle-check": (
        _cmd_oracle_check,
        False,
        {"--s-max": ("s_max", int, 7), "--entry-bound": ("entry_bound", int, 5)},
    ),
    "cylinders": (_cmd_cylinders, True, {"--budget": ("budget", int, CYLINDER_BUDGET)}),
}
_OUTPUT = ("output", str, None)
_HELP = ("-h", "--help")


def _usage() -> str:
    lines = [
        "usage: resflat COMMAND [INPUT] [OPTION VALUE ...]",
        "",
        "Decide, construct and verify realizability of prescribed zero/pole",
        "orders and residues of meromorphic abelian differentials.",
        "",
    ]
    for name, (_, needs_input, options) in _SUBCOMMANDS.items():
        words = ["  resflat", name, "INPUT" if needs_input else "[INPUT]", "[-o OUTPUT]"]
        words += [f"[{flag} {field.upper()}]" for flag, (field, _, _) in options.items()]
        lines.append(" ".join(words))
    lines += [
        "",
        "INPUT is a JSON document's path, or - for stdin; OUTPUT defaults to",
        "stdout.  An option reads --option VALUE or --option=VALUE, before or",
        "after INPUT.  Exit status: 0 realizable / verified / agreement,",
        "1 not realizable / violation / disagreement, 2 anything else.",
    ]
    return "\n".join(lines) + "\n"


def _is_option(token: str) -> bool:
    # "-" is stdin and "-5" a negative number, as argparse reads them.
    return token[:1] == "-" and token != "-" and not token[1:].isdigit()


def _parse_command_line(argv: list[str]) -> tuple | None:
    """The handler and the fields of a command line, or None for -h/--help.
    A malformed command line raises ValueError."""
    if argv and argv[0] in _HELP:
        return None
    if not argv or argv[0] not in _SUBCOMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ValueError(f"{got}; expected one of {', '.join(_SUBCOMMANDS)}")
    command, *rest = argv
    handler, needs_input, extra = _SUBCOMMANDS[command]
    options = {"-o": _OUTPUT, "--output": _OUTPUT, **extra}
    fields = {field: default for field, _, default in options.values()}
    positional = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            positional += tokens
        elif not _is_option(token):
            positional.append(token)
        elif token in _HELP:
            return None
        else:
            flag, eq, value = token.partition("=")
            if flag not in options:
                raise ValueError(f"{command}: unknown option {flag!r}")
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise ValueError(f"{flag}: expected a value")
            field, kind, _ = options[flag]
            try:
                fields[field] = kind(value)
            except ValueError:
                raise ValueError(f"{flag}: expected an integer, got {value!r}") from None
    if len(positional) > 1:
        raise ValueError(f"{command}: unexpected argument {positional[1]!r}")
    if needs_input and not positional:
        raise ValueError(f"{command}: expected an input document, a path or -")
    fields["input"] = positional[0] if positional else None
    return handler, SimpleNamespace(**fields)


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse_command_line(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(_usage())
            return 0
        handler, args = parsed
        return handler(args)
    except (DocumentError, ValueError, OSError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "not realizable", never a crash
        print(f"error: internal error, {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
