"""Benchmark of the beckner-lab command line, end to end and per module.

    python3 perfbench/run.py --workload acceptance-cli --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each workload runs in a fresh worker process that drives
``beckner_lab.cli.main(argv)`` in a closed loop with one client.

A run makes a fixed number of passes over the workload's job list, as
many whole passes as fit in ``--seconds`` at the parent commit's speed
(at least one).  ``--trace 0`` measures untraced and reports ``setup_s``
(median over five fresh processes of interpreter start, package import
and job-list generation), ``run_s`` (median wall time of one pass over
the job list) and ``peak_rss_mb`` (``ru_maxrss`` of the worker).  It
also prints, as information, ``job_p50_s`` and ``job_tail_s`` (pooled job
latencies; the tail is the highest percentile with at least ten samples
beyond it, or the maximum when there are ten or fewer) and
``failed_share``.  On a 2-vCPU machine whose speed drifts by 20-50% in
phases of 5-30 seconds, one job's latency or one order statistic varied
by 30% between runs, too much for a bound of 25%; the median pass of a
run about a minute long stayed within it.

``--trace 1`` runs one pass each untraced, traced and single-threaded
(``BECKNER_LAB_THREADS=1 OPENBLAS_NUM_THREADS=1``) and prints the
per-module metrics, ``serial.run_s``, the tracing overhead, the part of
the traced pass its spans' self times leave unexplained, and the latency
and failure figures of the untraced pass.  The spans themselves go to
``.perfbench_spans/<workload>-seed<seed>.jsonl.gz``.

The last line of standard output is one JSON object with ``correct``
(every output oracle held), ``attempted`` and ``failed`` (jobs that
raised, exited non-zero, missed an oracle or repeated with other bytes)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 177.0
SERIAL_ENV = {"BECKNER_LAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# printed on every run; in the result line only among the per-layer metrics
LATENCY = (("job_p50_s", "s"), ("job_tail_s", "s"), ("failed_share", "ratio"))

# per-module metrics: (name, unit); module totals are added below
PER_FUNCTION = (
    ("models.build_model.s", "s"), ("models.states", "count"),
    ("chain.symmetrized_spectrum.s", "s"), ("chain.dense_generator.s", "s"),
    ("chain.dense_bytes", "B"), ("chain.apply_generator.calls", "count"),
    ("bochner.r_function.s", "s"), ("bochner.r_nnz", "count"),
    ("bochner.r_dense_bytes", "B"), ("bochner.gamma_coo.s", "s"),
    ("bochner.verify_assumption.s", "s"),
    ("bochner.proposition_sides.calls", "count"),
    ("bochner.proposition_sides.s", "s"),
    ("bochner.bochner_identity_check.s", "s"),
    ("bochner.identity_3id_check.s", "s"),
    ("dynamics.evolve.s", "s"), ("dynamics.evolve.points", "count"),
    ("dynamics.fit_decay_rate.s", "s"),
    ("dynamics.dirichlet_decay_check.s", "s"),
    ("constants.constants_report.s", "s"),
    ("constants.beckner_constant.s", "s"), ("constants.mlsi_constant.s", "s"),
    ("constants.lsi_constant.s", "s"), ("constants.spectral_gap.s", "s"),
    ("constants.converged_starts_ratio", "ratio"),
    ("entropy.big_theta.calls", "count"), ("entropy.big_theta.s", "s"),
    ("entropy.theta_surface.s", "s"),
    ("entropy.verify_theta_identities.s", "s"),
    ("fokker_planck.mesh_refinement_study.s", "s"),
    ("fokker_planck.run_fv_experiment.calls", "count"),
    ("fokker_planck.run_fv_experiment.s", "s"),
    ("fokker_planck.fv_condition_check.s", "s"),
    ("cli.run.self_s", "s"), ("cli.bytes_written", "B"),
)
MODULES = ("models", "chain", "bochner", "dynamics", "constants", "entropy",
           "fokker_planck", "cli")
PER_MODULE = tuple((f"{m}.{stat}", unit) for m in MODULES
                   for stat, unit in (("calls", "count"), ("s", "s"),
                                      ("self_s", "s"), ("errors", "count")))
RUN_LEVEL = (("serial.run_s", "s"), ("trace.run_s", "s"),
             ("trace.overhead_s", "s"), ("trace.self_remainder_s", "s"))
RUN_LEVEL += LATENCY
PER_LAYER = PER_FUNCTION + PER_MODULE + RUN_LEVEL

# quoted single-call baselines the traced run is compared with
BASELINES = (("constants ZR(3,3)", "constants.constants_report", "~9 s"),
             ("decay RT(7)", "chain.symmetrized_spectrum", "~12 s"),
             ("verify-bochner BL(12,6)", "bochner.r_function",
              "3.5-4 s on BL(14,7), which no job here builds R for"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_rank(n: int) -> int:
    """0-based ascending rank of the highest percentile with at least ten
    samples beyond it; the maximum when ``n`` <= 10."""
    if n < 1:
        raise ValueError("no samples")
    return n - 11 if n > 10 else n - 1


def job_tail(latencies) -> tuple[float, float, int]:
    """(value, nearest-rank percentile, sample count) of the tail."""
    xs = sorted(latencies)
    r = tail_rank(len(xs))
    return xs[r], 100.0 * (r + 1) / len(xs), len(xs)


def failure_counts(failures) -> tuple[int, int]:
    """(attempted, failed) over per-pass lists of per-job reason lists."""
    attempted = sum(len(row) for row in failures)
    failed = sum(1 for row in failures for reasons in row if reasons)
    return attempted, failed


def failed_share(failures) -> float:
    attempted, failed = failure_counts(failures)
    if attempted < 1:
        raise ValueError("no job attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

class WorkerError(RuntimeError):
    pass


def start_worker(args, mode, scratch, env_extra=None, flags=()):
    """Start a worker; return (process, setup seconds) once it is ready."""
    env = dict(os.environ)
    env.update(env_extra or {})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(args.passes), "--mode", mode, *flags]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.monotonic() - t0
    if line.strip() != "ready":
        proc.stdout.close()
        proc.wait()
        raise WorkerError(f"{mode} worker exited with {proc.returncode} "
                          f"before it was ready")
    return proc, setup


def finish_worker(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def run_worker(args, mode, deadline, env_extra=None, flags=()):
    """Run one worker to the end; its JSON result plus ``setup_s``."""
    scratch = tempfile.mkdtemp(prefix=mode, dir=args.scratch)
    proc = None
    try:
        proc, setup = start_worker(args, mode, scratch, env_extra, flags)
        out = finish_worker(proc, deadline)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if mode == "setup":
        return {"setup_s": setup}
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = setup
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latency(res) -> tuple[dict, dict]:
    """job_p50_s, job_tail_s and failed_share of a worker's passes."""
    pooled = [x for row in res["latency_s"] for x in row]
    tail, pct, n = job_tail(pooled)
    attempted, failed = failure_counts(res["failures"])
    values = {"job_p50_s": statistics.median(pooled), "job_tail_s": tail,
              "failed_share": failed_share(res["failures"])}
    notes = {"job_p50_s": f"median of {n} jobs",
             "failed_share": f"{failed} of {attempted} jobs",
             "job_tail_s": f"p{pct:.4g} of {n} jobs"
             + (" (maximum: 10 or fewer jobs)" if n <= 10 else "")}
    return values, notes


def end_to_end(res, setups) -> tuple[dict, dict]:
    values, notes = latency(res)
    values.update({"setup_s": statistics.median(setups),
                   "run_s": statistics.median(res["pass_s"]),
                   "peak_rss_mb": res["peak_rss_mb"]})
    notes.update({"run_s": f"median of {len(res['pass_s'])} passes",
                  "setup_s": f"median of {len(setups)} processes"})
    return values, notes


def per_layer(plain, traced, serial) -> tuple[dict, dict]:
    tr = traced["trace"]
    values = {name: float(tr.get(name, 0.0))
              for name, _ in PER_FUNCTION + PER_MODULE}
    starts = tr.get("constants.starts", 0.0)
    values["constants.converged_starts_ratio"] = \
        tr.get("constants.converged_starts", 0.0) / starts if starts else 0.0
    values["cli.bytes_written"] = traced["bytes_written"]
    traced_run = statistics.median(traced["pass_s"])
    self_sum = sum(values[f"{m}.self_s"] for m in MODULES)
    values["serial.run_s"] = statistics.median(serial["pass_s"])
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - statistics.median(plain["pass_s"])
    values["trace.self_remainder_s"] = traced_run - self_sum
    more, notes = latency(plain)
    values.update(more)
    for job, name, quoted in BASELINES:
        got = traced["trace_jobs"].get(job, {}).get(name)
        if got is not None:
            notes[f"baseline {name} in {job}"] = f"{got:.4g} s (quoted {quoted})"
    return values, notes


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def report(args, values, units, notes, plain, job_count) -> None:
    shown = list(units) + [m for m in LATENCY if m not in units]
    for name, unit in shown:
        note = notes.get(name)
        print(f"{args.workload:22s} {name:40s} {values[name]:.6g} {unit}"
              + (f"  [{note}]" if note else ""))
    for key, note in notes.items():
        if key not in values:
            print(f"{args.workload:22s} {key}: {note}")
    for k, label in enumerate(plain["jobs"]):
        reasons = sorted({r for row in plain["failures"] for r in row[k]})
        for r in reasons:
            print(f"{args.workload:22s} FAILED {label}: {r}")
    for o in plain["oracles"]:
        print(f"{args.workload:22s} oracle {'ok  ' if o['ok'] else 'MISS'} "
              f"{o['name']}: {o['detail']}")
    manifest = {"nproc": os.cpu_count(), **plain["versions"],
                "workload": args.workload, "seed": args.seed,
                "jobs": job_count, "trace": args.trace,
                "src_lines": src_lines()}
    print(json.dumps({"manifest": manifest}, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beckner_lab", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    args.scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(args.scratch)
    try:
        if args.trace == 0:
            args.passes = workloads.passes(args.workload, args.seconds)
            setups = [run_worker(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            plain = run_worker(args, "plain", deadline, flags=["--oracles"])
            values, notes = end_to_end(plain, setups + [plain["setup_s"]])
            units = END_TO_END
        else:
            args.passes = 1
            plain = run_worker(args, "plain", deadline, flags=["--oracles"])
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans_file = os.path.join(
                SPANS_DIR, f"{args.workload}-seed{args.seed}.jsonl.gz")
            traced = run_worker(args, "traced", deadline,
                                flags=["--spans", spans_file])
            serial = run_worker(args, "plain", deadline, SERIAL_ENV)
            values, notes = per_layer(plain, traced, serial)
            notes["spans written to"] = os.path.relpath(spans_file, ROOT)
            units = PER_LAYER
    except (WorkerError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(args.scratch))
        except OSError:
            pass
    report(args, values, units, notes, plain, len(plain["jobs"]))
    attempted, failed = failure_counts(plain["failures"])
    print(json.dumps({
        "correct": all(o["ok"] for o in plain["oracles"]),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
