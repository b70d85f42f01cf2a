"""Running one request and checking its answer.

A request ends in one of three outcomes.  ``OK``: the answer is right.
``FAILED``: the program crashed (an exception, a CLI traceback or exit 2,
an exhausted search budget) and gave no answer.  ``WRONG``: the program gave
an answer and it is wrong (a verdict that contradicts the request, a
certificate that does not verify or does not match the request, an oracle
that disagrees with the closed form, a CLI exit code or document ``kind``
that contradicts the request).  Both ``FAILED`` and ``WRONG`` count as failed
requests; only ``WRONG`` makes the run incorrect.

Library calls go through the ``resflat`` package attributes at call time, so
that a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import resflat
import resflat.cli

from generate import Request
from speed import Sampler, machine_speed

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: Excluded-ray counts for s = 2..6 simple poles, from the source paper.
TABLE_COUNTS = (0, 0, 1, 1, 4)


# ---------------------------------------------------------------------------
# In-process requests


def _check_certificate(req: Request, cert) -> str:
    try:
        profile = resflat.verify_certificate(cert)
    except resflat.VerificationError:
        return WRONG
    if not resflat.profile_matches(profile, req.sig, req.values):
        return WRONG
    if req.rotation is not None and cert.claimed_rotation != req.rotation:
        return WRONG
    return OK


def run_witness(req: Request) -> str:
    cert = resflat.build_witness(req.sig, req.values, rotation=req.rotation)
    if cert is None:
        return WRONG if req.realizable else OK
    if not req.realizable:
        return WRONG
    return _check_certificate(req, cert)


def run_oracle(req: Request) -> str:
    closed = resflat.decide_realizable(req.sig, req.values).realizable
    brute = resflat.find_connection_graph(req.ints) is not None
    if closed != req.realizable or brute != req.realizable:
        return WRONG
    return run_witness(req) if req.realizable else OK


def run_cylinders(req: Request) -> str:
    verdict = resflat.search_cylinder_tuple(req.sig, req.values)
    return OK if verdict.realizable == req.realizable else WRONG


class InProcess:
    """Runs library requests in this process."""

    _RUNNERS = {"witness": run_witness, "oracle": run_oracle, "cylinders": run_cylinders}

    def __init__(self) -> None:
        self.outcomes: Counter = Counter()

    def attempt(self, req: Request) -> str:
        try:
            outcome = self._RUNNERS[req.kind](req)
        except Exception:  # a crash of the program under test is a failed request
            outcome = FAILED
        self.outcomes[outcome] += 1
        return outcome

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def speed(self) -> float:
        """The machine speed now, right after the requests it ran."""
        return machine_speed()


# ---------------------------------------------------------------------------
# CLI requests


def _rational_json(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def request_document(req: Request) -> dict:
    sig = req.sig
    doc = {
        "stratum": {
            "genus": sig.genus,
            "zeros": list(sig.zeros),
            "poles": list(sig.higher_poles),
            "simple_poles": sig.simple_poles,
        },
        "residues": [{"re": _rational_json(v.re), "im": _rational_json(v.im)} for v in req.values],
    }
    if req.rotation is not None:
        doc["rotation"] = req.rotation
    return doc


def _rational(doc) -> Fraction:
    return Fraction(doc) if isinstance(doc, int) else Fraction(doc[0], doc[1])


def _profile_matches(doc: dict, req: Request) -> bool:
    """Compare a CLI profile document with the request, without the library."""
    sig = req.sig
    if doc.get("genus") != sig.genus:
        return False
    if Counter(a for a in doc["zeros"] if a > 0) != Counter(a for a in sig.zeros if a > 0):
        return False
    if sum(1 for a in doc["zeros"] if a == 0) < sum(1 for a in sig.zeros if a == 0):
        return False
    orders = [-b for b in sig.higher_poles] + [-1] * sig.simple_poles
    want = Counter((o, v.re, v.im) for o, v in zip(orders, req.values))
    have = Counter(
        (p["order"], _rational(p["residue"]["re"]), _rational(p["residue"]["im"]))
        for p in doc["poles"]
    )
    return want == have


def spawn(
    argv: list[str], env: dict, stdout: Path, stderr: Path, while_running=None
) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    ``while_running``, if given, is called repeatedly until the child exits;
    it should return within a few milliseconds.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        if while_running is None:
            _, status, usage = os.wait4(pid, 0)
        else:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                while_running()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def program_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """Runs each request as a fresh ``python -m resflat.cli`` process.

    Files live in ``workdir``: ``request.json`` is the input, ``cert.json``
    the certificate the witness step writes and the verify step reads,
    ``out.json`` any other output.
    """

    def __init__(self, src: Path, workdir: Path) -> None:
        self.env = program_env(src)
        self.dir = workdir
        self.outcomes: Counter = Counter()
        self.child_peak_mb = 0.0
        self.last_wall = 0.0
        self.last_speed = 1.0

    def argv(self, req: Request) -> list[str]:
        d = self.dir
        if req.kind == "cli-table":
            return ["table", "--s-min", "2", "--s-max", str(req.s_max), "-o", str(d / "out.json")]
        if req.kind == "cli-verify":
            return ["verify", str(d / "cert.json"), "-o", str(d / "out.json")]
        out = d / ("cert.json" if req.kind == "cli-witness" else "out.json")
        return [req.kind[4:], str(d / "request.json"), "-o", str(out)]

    def prepare(self, req: Request) -> None:
        """Write the request's input and clear outputs a previous request left."""
        for name in ("out.json",) + (("cert.json",) if req.kind == "cli-witness" else ()):
            with contextlib.suppress(FileNotFoundError):
                (self.dir / name).unlink()
        if req.kind in ("cli-decide", "cli-witness"):
            (self.dir / "request.json").write_text(json.dumps(request_document(req)))

    def attempt(self, req: Request) -> str:
        self.prepare(req)
        argv = [sys.executable, "-m", "resflat.cli"] + self.argv(req)
        sampler = Sampler()
        code, self.last_wall, peak = spawn(
            argv, self.env, self.dir / "stdout.txt", self.dir / "stderr.txt", while_running=sampler
        )
        self.last_speed = sampler.speed()
        self.child_peak_mb = max(self.child_peak_mb, peak)
        outcome = self.check(req, code, (self.dir / "stderr.txt").read_text())
        self.outcomes[outcome] += 1
        return outcome

    def replay(self, req: Request) -> str:
        """The same request through ``resflat.cli.main`` in this process."""
        self.prepare(req)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = resflat.cli.main(self.argv(req))
        except Exception:  # the CLI process would print a traceback here
            return FAILED
        return self.check(req, code, "")

    def check(self, req: Request, code: int, stderr: str) -> str:
        if "Traceback" in stderr or code not in (0, 1):
            return FAILED
        kind = req.kind
        if kind == "cli-table":
            want_code, want_kind = 0, "excluded-ray-table"
        elif kind == "cli-verify":
            want_code, want_kind = 0, "profile"
        elif kind == "cli-witness":
            want_code = 0 if req.realizable else 1
            want_kind = "certificate" if req.realizable else "verdict"
        else:
            want_code, want_kind = (0 if req.realizable else 1), "verdict"
        if code != want_code:
            return WRONG
        path = self.dir / ("cert.json" if kind == "cli-witness" else "out.json")
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return FAILED
        try:
            return OK if _document_matches(doc, want_kind, req) else WRONG
        except (KeyError, TypeError, IndexError):  # a document missing its fields
            return WRONG

    def peak_rss_mb(self) -> float:
        return self.child_peak_mb

    def speed(self) -> float:
        """The machine speed sampled while the last request's process ran."""
        return self.last_speed


def _document_matches(doc: dict, want_kind: str, req: Request) -> bool:
    if doc["kind"] != want_kind:
        return False
    if req.kind == "cli-decide":
        return doc["verdict"]["realizable"] == req.realizable
    if req.kind == "cli-verify":
        return _profile_matches(doc["profile"], req)
    if req.kind == "cli-table":
        counts = tuple(row["count"] for row in doc["rows"] if row["s"] <= 6)
        return counts == TABLE_COUNTS[: req.s_max - 1]
    return True
