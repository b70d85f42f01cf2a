"""resflat benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload witness-mix --seed 1 --seconds 20 --trace 0
    python3 -m pytest bench -q        # the benchmark's own self-tests

Run from the root of a checkout; the program is imported from its ``src``.
One client sends one request at a time and waits for the answer, in one
process (``cli-roundtrip`` runs one child process at a time).

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median of several fresh processes, each from start to its first timed
request), throughput, median and 90th-percentile latency (a failed request
counts as infinitely slow), the share of requests answered correctly, and
peak RSS.  The timed loop runs for ``--seconds`` and at least 100 requests,
and stops only between two rounds of the request list, so that every run
sees the same mix of request classes.

Every time is scaled to a fixed machine speed (``bench/speed.py``), since
on a shared virtual machine the same code runs up to 1.7x slower for
stretches of seconds to minutes, which would swamp the bounds in
BENCHMARK.json.  The speed is measured after each window of in-process
requests, and sampled while each child process runs: each set-up probe and
each ``cli-roundtrip`` request.  The report also prints the unscaled values.

With ``--trace 1`` it replays a fixed prefix of the request list untraced,
traced and untraced again, and reports call counts, self times and ratios
for the layers; spans are written to ``bench/.out``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

#: Fresh processes timed for setup_s, which reports their median.
SETUP_PROBES = 3
MIN_REQUESTS = 100
#: Requests per window; the machine speed is measured after each.  Other
#: workloads measure it after every request, as their slow requests last
#: long enough for the speed to change within one round.  A witness-mix
#: request takes about 2 ms, so its window holds four rounds (0.2 s) and
#: measuring costs a few percent of the run.
WINDOW_REQUESTS = {"witness-mix": 84}
#: A timed run stops here even short of MIN_REQUESTS, to end in bounded time.
MAX_TIMED_SECONDS = 120.0
#: Rounds of the request list that a traced run replays.
TRACE_ROUNDS = {"witness-mix": 8, "collinear-oracle": 2, "cylinder-search": 4, "cli-roundtrip": 1}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("core.collinear_normal_form.calls", "count"),
    ("core.collinear_normal_form.self_s", "s"),
    ("core.validate_residues.calls", "count"),
    ("core.cross.calls", "count"),
    ("core.dot.calls", "count"),
    ("core.arg_cmp.calls", "count"),
    ("decide.decide_realizable.calls", "count"),
    ("decide.decide_realizable.self_s", "s"),
    ("decide.search_cylinder_tuple.calls", "count"),
    ("decide.search_cylinder_tuple.self_s", "s"),
    ("decide.enumerate_excluded_rays.self_s", "s"),
    ("graphs.find_connection_graph.calls", "count"),
    ("graphs.find_connection_graph.self_s", "s"),
    ("graphs.find_connection_graph.found_ratio", "1"),
    ("graphs.is_connection_graph.calls", "count"),
    ("graphs.is_connection_graph.accept_ratio", "1"),
    ("graphs.leaf_removal.calls", "count"),
    ("graphs.find_stable_config.calls", "count"),
    ("graphs.find_stable_config.self_s", "s"),
    ("graphs.find_cylinder_config.calls", "count"),
    ("graphs.find_cylinder_config.self_s", "s"),
    ("graphs.find_cylinder_config.found_ratio", "1"),
    ("graphs.budget_exceeded", "count"),
    ("surfaces.build_witness.calls", "count"),
    ("surfaces.build_witness.self_s", "s"),
    ("surfaces.verify_certificate.calls", "count"),
    ("surfaces.verify_certificate.self_s", "s"),
    ("surfaces.verify_surface.calls", "count"),
    ("surfaces.verify_surface.self_s", "s"),
    ("surfaces.verify_surface.per_certificate", "1"),
    ("surfaces.blow_up_zero.calls", "count"),
    ("surfaces.sew_handle.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead_ratio", "1"),
)


def quantile(latencies: list[float], q: float) -> float:
    """Nearest-rank quantile; failed requests enter as ``math.inf``."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import resflat from it."""
    if not (SRC / "resflat" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import resflat

    if Path(resflat.__file__).resolve().parent != (SRC / "resflat").resolve():
        raise SystemExit(f"error: resflat was imported from {resflat.__file__}, not {SRC}")


def _workdir() -> tempfile.TemporaryDirectory:
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def _runner(workload: str, workdir: Path):
    import execute

    return execute.Cli(SRC, workdir) if workload == "cli-roundtrip" else execute.InProcess()


def _warmup(workload: str, requests: list) -> list:
    """One request of each class; for the CLI, one invocation of each command.

    The CLI warm-up is the first decide, the first verify with the witness
    before it (which writes the certificate it reads), and the first table:
    four processes whatever the seed.
    """
    import generate

    if workload != "cli-roundtrip":
        return generate.warmup_requests(requests)
    first = {}
    for index, req in enumerate(requests):
        first.setdefault(req.kind, index)
    verify = first["cli-verify"]
    return [requests[first["cli-decide"]], requests[verify - 1], requests[verify],
            requests[first["cli-table"]]]


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed request: inputs, then a warm-up."""
    import generate

    requests = generate.generate(workload, seed)
    runner = _runner(workload, workdir)
    for req in _warmup(workload, requests):
        runner.attempt(req)
    runner.outcomes.clear()
    return requests, runner


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that sets up and exits, and the machine
    speed meanwhile."""
    import execute
    from speed import Sampler

    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--probe-setup"]
    sampler = Sampler()
    code, wall, _ = execute.spawn(
        argv, dict(os.environ), Path(os.devnull), Path(os.devnull), while_running=sampler
    )
    if code != 0:
        raise SystemExit(f"error: set-up probe exited with {code}")
    return wall, sampler.speed()


def scaled_summary(latencies: list[float], walls: list[float], speeds: list[float]) -> dict:
    """Throughput and latency quantiles of a timed run, at machine speed 1.0.

    ``latencies`` lists each request's latency (``math.inf`` if it failed),
    window after window; ``walls[w]`` is window w's wall time and
    ``speeds[w]`` the machine speed measured with it.  Each time is
    multiplied by its window's speed; throughput is the correctly answered
    requests over the summed scaled wall time.
    """
    window = len(latencies) // len(walls)
    scaled = [x * speeds[k // window] for k, x in enumerate(latencies)]
    ok = sum(1 for x in latencies if x != math.inf)
    return {
        "throughput_rps": ok / sum(wall * speed for wall, speed in zip(walls, speeds)),
        "latency_p50_ms": 1000.0 * quantile(scaled, 0.5),
        "latency_p90_ms": 1000.0 * quantile(scaled, 0.9),
    }


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import execute
    import generate

    probes = [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    with _workdir() as tmp:
        requests, runner = setup(workload, seed, Path(tmp))
        window = WINDOW_REQUESTS.get(workload, 1)
        # Runs stop between rounds; a round and a window divide one another.
        stride = max(window, len(requests) // generate.ROUNDS[workload])
        latencies, walls, speeds = [], [], []
        clock = time.perf_counter
        start = began = clock()
        while True:
            if len(latencies) % window == 0 and latencies:
                walls.append(clock() - began)
                speeds.append(runner.speed())
                began = clock()
            if len(latencies) % stride == 0:
                elapsed = began - start
                if elapsed >= MAX_TIMED_SECONDS or (
                    elapsed >= seconds and len(latencies) >= MIN_REQUESTS
                ):
                    break
            req = requests[len(latencies) % len(requests)]
            t0 = clock()
            outcome = runner.attempt(req)
            latencies.append(clock() - t0 if outcome == execute.OK else math.inf)
        peak = runner.peak_rss_mb()
    attempted = len(latencies)
    ok = runner.outcomes[execute.OK]
    metrics = {
        "setup_s": statistics.median(wall * speed for wall, speed in probes),
        **scaled_summary(latencies, walls, speeds),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": peak,
    }
    info = {
        "fingerprint": generate.fingerprint(requests),
        "list": len(requests),
        "attempted": attempted,
        "failed": attempted - ok,
        "wrong": runner.outcomes[execute.WRONG],
        "failed_ratio": (attempted - ok) / attempted,
        "windows": (
            f"{len(walls)} windows of {window} requests in {sum(walls):.2f} s, "
            f"machine speed {statistics.median(speeds):.3f} (median)"
        ),
        "raw": {
            "setup_s": statistics.median(wall for wall, _ in probes),
            **scaled_summary(latencies, walls, [1.0] * len(walls)),
        },
    }
    return metrics, info


def _import_seconds() -> float:
    """Median time of ``import resflat.cli`` in a fresh interpreter."""
    import execute

    code = (
        "import time; t = time.perf_counter(); import resflat.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    with _workdir() as tmp:
        out = Path(tmp) / "import.txt"
        for _ in range(SETUP_PROBES):
            status, _, _ = execute.spawn(
                [sys.executable, "-c", code], execute.program_env(SRC), out, Path(os.devnull)
            )
            if status != 0:
                raise SystemExit("error: importing resflat.cli failed")
            samples.append(float(out.read_text()))
    return statistics.median(samples)


def layer_metrics(tracer) -> dict:
    calls, found, raised = tracer.calls, tracer.found, tracer.raised
    own = tracer.self_times()
    metrics = {}
    for name, _ in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls[func]
        elif stat == "self_s":
            metrics[name] = own.get(func, 0.0)
        elif stat in ("found_ratio", "accept_ratio"):
            metrics[name] = _ratio(found[func], calls[func])
    metrics["graphs.budget_exceeded"] = sum(
        n for (func, exc), n in raised.items()
        if func.startswith("graphs.") and exc == "SearchBudgetExceeded"
    )
    metrics["surfaces.verify_surface.per_certificate"] = _ratio(
        calls["surfaces.verify_surface"], found["surfaces.build_witness"]
    )
    return metrics


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """Replay a fixed prefix untraced, then traced; counts repeat exactly."""
    import execute
    import generate
    from tracing import Tracer

    cli = workload == "cli-roundtrip"
    extra = {"cli.import_s": 0.0, "cli.startup_s": 0.0}
    with _workdir() as tmp:
        requests, runner = setup(workload, seed, Path(tmp))
        prefix = requests[: len(requests) * TRACE_ROUNDS[workload] // generate.ROUNDS[workload]]
        run_one = runner.replay if cli else runner.attempt
        if cli:
            startup = []
            for req in prefix:
                runner.attempt(req)
                t0 = time.perf_counter()
                runner.replay(req)
                startup.append(runner.last_wall - (time.perf_counter() - t0))
            extra["cli.startup_s"] = statistics.fmean(startup)
            extra["cli.import_s"] = _import_seconds()
        # Untraced passes before and after the traced one, so that drift
        # over the run does not show as tracing cost.
        t0 = time.perf_counter()
        untraced = [run_one(req) for req in prefix]
        untraced_s = time.perf_counter() - t0
        with Tracer() as tracer:
            t0 = time.perf_counter()
            traced = []
            for index, req in enumerate(prefix):
                tracer.request = index
                traced.append(run_one(req))
            traced_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        untraced += [run_one(req) for req in prefix]
        untraced_s = (untraced_s + time.perf_counter() - t0) / 2
    metrics = layer_metrics(tracer)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    spans = OUT / f"spans-{workload}-{seed}.tsv"
    tracer.write(spans)
    outcomes = untraced + traced
    info = {
        "fingerprint": generate.fingerprint(requests),
        "list": len(requests),
        "attempted": len(traced),
        "failed": sum(1 for o in traced if o != execute.OK),
        "wrong": sum(1 for o in outcomes if o == execute.WRONG),
        "spans": f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}",
    }
    return metrics, info


def _print_report(workload: str, seed: int, metrics: dict, info: dict, units: dict) -> None:
    print(f"workload {workload}  seed {seed}  fingerprint {info['fingerprint']}  "
          f"list {info['list']} requests")
    print(f"  attempted {info['attempted']}  failed {info['failed']}  wrong {info['wrong']}")
    if "spans" in info:
        print(f"  {info['spans']}")
    else:
        print(f"  {info['windows']}")
        print(f"  {'failed_ratio':<44} {info['failed_ratio']:.6g} 1")
    raw = info.get("raw", {})
    for name, value in metrics.items():
        note = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<44} {value:.6g} {units[name]}{note}")


def main(argv: list[str] | None = None) -> int:
    _import_program()
    import generate

    parser = argparse.ArgumentParser(description="resflat benchmark")
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        with _workdir() as tmp:
            setup(args.workload, args.seed, Path(tmp))
        # Skip interpreter teardown: freeing large tables is not set-up time.
        os._exit(0)

    if args.trace:
        metrics, info = traced_run(args.workload, args.seed)
        units = dict(PER_LAYER)
    else:
        metrics, info = timed_run(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    _print_report(args.workload, args.seed, metrics, info, units)
    result = {
        "correct": info["wrong"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
