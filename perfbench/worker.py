"""One workload process: set up, run the job list in a closed loop, check.

Started by ``run.py`` with its working directory set to a scratch
directory inside the checkout.  It prints ``ready`` once the package is
imported and the job list is built, then runs passes over the job list
(one client: each ``beckner_lab.cli.main(argv)`` call starts after the
previous one has returned its verdict) and prints one JSON line.

Modes: ``setup`` stops after ``ready``; ``plain`` runs the passes;
``traced`` runs them with every module traced.  ``--oracles`` adds the
output oracles after the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402


def _digest(out_dir: str, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _bytes_in(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n))
               for n in os.listdir(out_dir))


def run_job(cli, job: dict, out: str) -> dict:
    """One CLI call writing to ``out``; its latency and exit status."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(job["argv"] + ["--out", out])
        except Exception:          # a raising job is a failed job
            rc = None
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
    return {"start": start, "end": end, "rc": rc, "error": error,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def run_passes(cli, job_list, passes, tracer=None):
    """``passes`` passes over the job list.  Each job writes to the same
    relative directory on every pass, so repeated outputs are comparable
    byte for byte; the directory is moved aside after the call."""
    results = []
    for p in range(passes):
        pass_dir = f"pass{p}"
        os.mkdir(pass_dir)
        row = []
        for k, job in enumerate(job_list):
            out = f"job{k}"
            if tracer is not None:
                tracer.job = p * len(job_list) + k
            res = run_job(cli, job, out)
            if os.path.isdir(out):
                os.rename(out, os.path.join(pass_dir, out))
            res["dir"] = os.path.join(pass_dir, out)
            row.append(res)
        results.append(row)
    return results


@contextlib.contextmanager
def keep_rt_chains():
    """Keep the random-transposition chains the jobs build, keyed by n.

    The gap oracle then reads the spectrum a job computed and cached
    instead of paying a second dense eigendecomposition (about 12 s for
    n = 7).  A kept chain outlives its job, so the RT n = 7 job goes
    last in its pass, after which peak memory is read."""
    from beckner_lab import models
    build = models.build_model
    kept = {}

    def keeping(spec):
        chain = build(spec)
        if spec.kind == "random_transposition":
            kept[spec.params["n"]] = chain
        return chain

    models.build_model = keeping
    try:
        yield kept
    finally:
        models.build_model = build


def check(workload, job_list, results, cli, rt_chains=None):
    """Failure reasons per job instance, and the oracle outcomes.

    A job fails when it raises, exits non-zero, misses an oracle, or
    writes other bytes than its first instance.  The oracles, and the
    untimed repeat of one job after a single pass, run only when
    ``rt_chains`` is given (the worker that checks outputs)."""
    reasons = [[[] for _ in row] for row in results]
    digests = [[None] * len(job_list) for _ in results]
    for p, row in enumerate(results):
        for k, res in enumerate(row):
            if res["rc"] is None:
                reasons[p][k].append("raised: " + res["error"].strip()
                                     .splitlines()[-1])
            elif res["rc"] != 0:
                lines = (res["stdout"] + res["stderr"]).strip().splitlines()
                lines = [x for x in lines if "FAIL" in x] or lines[-1:]
                reasons[p][k].append(f"exit {res['rc']}: " + " | ".join(lines))
            if os.path.isdir(res["dir"]):
                digests[p][k] = _digest(res["dir"], res["stdout"])
    # byte-identical repeats: across passes, or one job run again untimed
    if len(results) == 1 and rt_chains is not None:
        k = next(i for i, j in enumerate(job_list)
                 if j["label"] == workloads.REPEATED[workload])
        again = run_job(cli, job_list[k], f"job{k}")
        again_digest = _digest(f"job{k}", again["stdout"]) \
            if os.path.isdir(f"job{k}") else None
        if again_digest != digests[0][k]:
            reasons[0][k].append("output bytes differ on repeat")
        shutil.rmtree(f"job{k}", ignore_errors=True)
    for p in range(1, len(results)):
        for k in range(len(job_list)):
            if digests[p][k] != digests[0][k]:
                reasons[p][k].append("output bytes differ on repeat")
    oracle_rows = []
    if rt_chains is not None:
        out_dirs = {k: res["dir"] for k, res in enumerate(results[0])}
        for name, ks, oracle in workloads.oracles(workload, job_list,
                                                  out_dirs, rt_chains):
            try:
                ok, detail = oracle()
            except Exception as exc:      # an oracle that raises is a miss
                ok, detail = False, f"raised {exc!r}"
            oracle_rows.append({"name": name, "ok": ok, "detail": detail,
                                "jobs": [job_list[k]["label"] for k in ks]})
            if not ok:
                for row in reasons:
                    for k in ks:
                        row[k].append(f"oracle {name}: {detail}")
    return reasons, oracle_rows


def versions() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy),
            "BECKNER_LAB_THREADS": os.environ.get("BECKNER_LAB_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _blas_threads(numpy):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + workloads.UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "traced"))
    ap.add_argument("--oracles", action="store_true")
    ap.add_argument("--spans", help="gzipped JSON lines file for the spans")
    args = ap.parse_args(argv)

    import beckner_lab.cli as cli
    if os.path.dirname(os.path.dirname(cli.__file__)) != SRC:
        print(f"beckner_lab imported from {cli.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    job_list = workloads.jobs(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    rt_chains = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            results = run_passes(cli, job_list, args.passes, tracer)
    elif args.oracles:
        with keep_rt_chains() as rt_chains:
            results = run_passes(cli, job_list, args.passes)
    else:
        results = run_passes(cli, job_list, args.passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons, oracle_rows = check(args.workload, job_list, results, cli,
                                 rt_chains)
    out = {
        "jobs": [j["label"] for j in job_list],
        "pass_s": [row[-1]["end"] - row[0]["start"] for row in results],
        "latency_s": [[r["end"] - r["start"] for r in row]
                      for row in results],
        "failures": reasons,
        "oracles": oracle_rows,
        "peak_rss_mb": peak_rss_mb,
        "bytes_written": sum(_bytes_in(r["dir"]) for row in results
                             for r in row if os.path.isdir(r["dir"]))
        / len(results),
        "versions": versions(),
    }
    if tracer is not None:
        out["trace"] = spans.aggregate(tracer, len(results))
        out["trace_jobs"] = _per_job(tracer, job_list)
        spans.write(tracer, args.spans, [j["label"] for j in job_list])
    print(json.dumps(out), flush=True)
    return 0


def _per_job(tracer, job_list) -> dict:
    """Inclusive seconds of each traced name within each job of the first
    pass, for comparison with quoted single-call baselines."""
    out: dict[str, dict[str, float]] = {}
    for _, name, start, end, _, job in tracer.spans:
        if 0 <= job < len(job_list):
            per = out.setdefault(job_list[job]["label"], {})
            per[name] = per.get(name, 0.0) + (end - start)
    return out


if __name__ == "__main__":
    sys.exit(main())
