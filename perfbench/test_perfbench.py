"""Self-tests of the benchmark's statistics, span accounting and jobs.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_tail_is_the_maximum_with_ten_or_fewer_samples(n):
    xs = [float(i) for i in range(n)]
    value, pct, count = run.job_tail(reversed(xs))
    assert (value, pct, count) == (n - 1.0, 100.0, n)


@pytest.mark.parametrize("n", [11, 12, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct, count = run.job_tail(xs[::-1])
    assert sum(x > value for x in xs) == 10
    assert count == n
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        run.tail_rank(0)


# -- self time ---------------------------------------------------------------

def _span(span_id, name, start, end, parent, job=0):
    return (span_id, name, start, end, parent, job)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "cli.main", 0.0, 10.0, -1),
        _span(1, "models.build_model", 1.0, 4.0, 0),
        _span(2, "chain.dense_generator", 3.0, 6.0, 0),   # overlaps span 1
        _span(3, "chain.apply_generator", 1.5, 2.0, 1),
        _span(4, "entropy.big_theta", 8.0, 12.0, 0),      # runs past parent
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.5, 2: 3.0,
                                 3: 0.5, 4: 4.0})


def test_aggregate_counts_module_time_once_per_entry():
    tracer = spans.Tracer()
    tracer.spans = [
        _span(0, "cli.main", 0.0, 10.0, -1),
        _span(1, "cli.run", 1.0, 9.0, 0),
        _span(2, "bochner.r_function", 2.0, 5.0, 1),
        _span(3, "bochner.r_dense", 3.0, 4.0, 2),
    ]
    out = spans.aggregate(tracer, passes=2)
    assert out["cli.s"] == pytest.approx(5.0)           # 10 s over 2 passes
    assert out["cli.self_s"] == pytest.approx((2.0 + 5.0) / 2)
    assert out["bochner.s"] == pytest.approx(1.5)
    assert out["bochner.self_s"] == pytest.approx(1.5)
    assert out["bochner.r_function.self_s"] == pytest.approx(1.0)
    assert out["bochner.calls"] == pytest.approx(1.0)
    assert out["cli.errors"] == 0


def test_errors_count_only_exceptions_leaving_the_module():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    inner = tracer.wrap(boom, "chain.inner")
    same = tracer.wrap(lambda: inner(), "chain.outer")
    other = tracer.wrap(lambda: same(), "cli.main")
    with pytest.raises(KeyError):
        other()
    assert tracer.errors == {"chain": 1, "cli": 1}
    parents = {s[1]: s[4] for s in tracer.spans}
    ids = {s[1]: s[0] for s in tracer.spans}
    assert parents["chain.inner"] == ids["chain.outer"]
    assert parents["cli.main"] == -1


def test_counters_and_spans_survive_concurrent_worker_threads():
    import threading
    tracer = spans.Tracer()
    bump = tracer.wrap(lambda: tracer.count("n", 1), "chain.bump")
    workers = 8                     # more threads than the 2-4 cores here
    calls = 2000

    def work():
        for _ in range(calls):
            bump()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counters["n"] == workers * calls
    assert len(tracer.spans) == workers * calls
    assert len({s[0] for s in tracer.spans}) == workers * calls


# -- failure accounting ------------------------------------------------------

def test_failed_share_counts_jobs_not_reasons():
    failures = [[[], ["exit 1: FAIL"], []],
                [[], ["exit 1: FAIL", "oracle x: miss"], ["raised: E"]]]
    assert run.failure_counts(failures) == (6, 3)
    assert run.failed_share(failures) == pytest.approx(0.5)


def test_failed_share_needs_an_attempt():
    with pytest.raises(ValueError):
        run.failed_share([])


# -- jobs and instrumentation ------------------------------------------------

def test_seed_changes_only_job_seeds():
    for name in workloads.WORKLOADS + workloads.UNLISTED:
        a, b = workloads.jobs(name, 1), workloads.jobs(name, 2)
        assert workloads.jobs(name, 1) == a
        assert [j["label"] for j in a] == [j["label"] for j in b]
        strip = [[x for x in j["argv"] if x != str(j["seed"])] for j in a]
        assert strip == [[x for x in j["argv"] if x != str(j["seed"])]
                         for j in b]
    readme_fv = [j for j in workloads.jobs("acceptance-cli", 3)
                 if j["label"] == "fokker-planck README"]
    assert readme_fv and "--seed" not in readme_fv[0]["argv"]


def test_instrument_patches_every_binding_and_restores_them():
    import beckner_lab
    from beckner_lab import chain, constants, fokker_planck, models
    originals = (models.big_theta, fokker_planck.big_theta,
                 beckner_lab.build_model,
                 chain.FiniteChain.__dict__["symmetrized_spectrum"])
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert models.big_theta is fokker_planck.big_theta
        assert models.big_theta is not originals[0]
        ch = beckner_lab.build_model(
            models.ModelSpec("random_transposition", {"n": 3}))
        constants.spectral_gap(ch)
    assert (models.big_theta, fokker_planck.big_theta,
            beckner_lab.build_model,
            chain.FiniteChain.__dict__["symmetrized_spectrum"]) == originals
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["chain.symmetrized_spectrum"][4] == \
        by_name["constants.spectral_gap"][0]
    assert by_name["chain.dense_generator"][4] == \
        by_name["chain.symmetrized_spectrum"][0]
    assert tracer.counters["models.states"] == 6
    assert tracer.counters["chain.dense_bytes"] == 6 * 6 * 8


def test_benchmark_json_lists_what_run_prints():
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
