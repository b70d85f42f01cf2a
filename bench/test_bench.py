"""Self-tests of the benchmark's own code: python3 -m pytest bench -q"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import resflat  # noqa: E402
import resflat.core  # noqa: E402
import resflat.decide  # noqa: E402

import execute  # noqa: E402
import generate  # noqa: E402
from run import quantile, scaled_summary  # noqa: E402
from tracing import MODULES, Tracer, public_functions, self_times  # noqa: E402


def test_fingerprint_is_a_function_of_the_seed():
    for workload in generate.WORKLOADS:
        first = generate.fingerprint(generate.generate(workload, 7))
        again = generate.fingerprint(generate.generate(workload, 7))
        other = generate.fingerprint(generate.generate(workload, 8))
        assert first == again, workload
        assert first != other, workload


def test_every_seed_gives_the_same_mix():
    def mix(seed):
        counts = {}
        for req in generate.generate("witness-mix", seed):
            key = (req.group, req.realizable)
            counts[key] = counts.get(key, 0) + 1
        return counts

    assert mix(1) == mix(2)


def test_quantiles_count_failures_as_infinitely_slow():
    latencies = [float(k) for k in range(1, 10)] + [math.inf]
    assert quantile(latencies, 0.5) == 5.0
    assert quantile(latencies, 0.9) == 9.0
    latencies[0] = math.inf
    assert quantile(latencies, 0.9) == math.inf
    assert quantile(latencies, 0.5) == 6.0


def test_times_are_scaled_by_their_window_speed():
    latencies = [0.001] * 9 + [math.inf] + [0.004] * 10
    summary = scaled_summary(latencies, [0.1, 0.1], [1.0, 0.5])
    # 19 answered over 0.1 * 1.0 + 0.1 * 0.5 scaled seconds; the second
    # window's latencies read 2 ms; the failure is the slowest request.
    assert summary["throughput_rps"] == pytest.approx(19 / 0.15)
    assert summary["latency_p50_ms"] == 2.0
    assert summary["latency_p90_ms"] == 2.0
    assert scaled_summary(latencies[:10], [0.1], [1.0])["latency_p90_ms"] == 1.0


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    own = self_times(spans)
    assert own["a"] == (10.0 - 3.0 - 2.0) + 1.0
    assert own["b"] == (3.0 - 1.0) + 2.0
    assert own["c"] == 1.0


def test_tracer_restores_every_binding():
    before = {
        (module.__name__, attr): func for module in MODULES for attr, func in public_functions(module)
    }
    assert before[("resflat.decide", "collinear_normal_form")] is resflat.core.collinear_normal_form
    req = generate.generate("witness-mix", 3)[0]
    with Tracer() as tracer:
        assert resflat.decide.collinear_normal_form is not before[("resflat.decide", "collinear_normal_form")]
        assert resflat.decide.collinear_normal_form is resflat.core.collinear_normal_form
        execute.run_witness(req)
    assert tracer.calls["surfaces.build_witness"] == 1
    after = {
        (module.__name__, attr): func for module in MODULES for attr, func in public_functions(module)
    }
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat():
    requests = generate.generate("witness-mix", 5)[:42]
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for req in requests:
                execute.InProcess().attempt(req)
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1]
    assert counts[0]["core.cross"] > 0
