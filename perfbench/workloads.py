"""Job lists of the benchmark workloads and their output oracles.

A job is one ``beckner-lab`` command line.  Model sizes are fixed per
workload; the workload seed only draws each job's ``--seed``, so every
seed asks for the same amount of work.  The README ``fokker-planck``
example keeps its default seed, at which it is known to fail, so that
the failure stays visible until the library is fixed.
"""

from __future__ import annotations

import csv
import json
import os
import random
from functools import partial

# label -> (CLI model flags, the same model as a config block)
CHAINS = {
    "BD(K=12)": (["--model", "birth_death", "--K", "12"],
                 {"model": "birth_death",
                  "rates": {"kind": "mm_infinity", "K": 12}}),
    "ZR(3,3)": (["--model", "zero_range", "--L", "3", "--N", "3"],
                {"model": "zero_range", "L": 3, "N": 3}),
    "BL(5,2)": (["--model", "bernoulli_laplace", "--L", "5", "--N", "2"],
                {"model": "bernoulli_laplace", "L": 5, "N": 2}),
    "RT(3)": (["--model", "random_transposition", "--n", "3"],
              {"model": "random_transposition", "n": 3}),
    "RT(4)": (["--model", "random_transposition", "--n", "4"],
              {"model": "random_transposition", "n": 4}),
    "RT(7)": (["--model", "random_transposition", "--n", "7"],
              {"model": "random_transposition", "n": 7}),
    "BL(14,7)": (["--model", "bernoulli_laplace", "--L", "14", "--N", "7"],
                 {"model": "bernoulli_laplace", "L": 14, "N": 7}),
    "BL(12,6)": (["--model", "bernoulli_laplace", "--L", "12", "--N", "6"],
                 {"model": "bernoulli_laplace", "L": 12, "N": 6}),
    "ZR(5,8)": (["--model", "zero_range", "--L", "5", "--N", "8"],
                {"model": "zero_range", "L": 5, "N": 8}),
}
FV_CELLS = (8, 16, 32, 64, 128)
for _n in FV_CELLS:
    CHAINS[f"FV({_n})"] = (
        ["--model", "fokker_planck_fv", "--coeff", "2.0", "--n-cells", str(_n)],
        {"model": "fokker_planck_fv",
         "potential": {"kind": "quadratic", "coeff": 2.0},
         "n_cells": _n, "lambda": 4.0})

ACCEPTANCE_CHAINS = ("BD(K=12)", "ZR(3,3)", "BL(5,2)", "RT(3)", "RT(4)") + \
    tuple(f"FV({n})" for n in FV_CELLS)

# the workloads BENCHMARK.json lists
WORKLOADS = ("acceptance-cli", "constants-multistart")
# Runnable by name but not listed.  One scale-chains pass takes about 36 s
# and its traced run about 140 s; with it, the listed runs could not be
# made long enough for constants-multistart to be steady within the time
# all of the benchmark's runs are allowed.
UNLISTED = ("scale-chains",)

# Wall seconds of one pass over each job list at the parent commit, on
# 2 vCPUs (Python 3.11, numpy 2.4, OpenBLAS): the median over ten runs
# for the listed workloads, one run for scale-chains.  A run makes a
# fixed number of passes derived from --seconds, so that two commits
# measure the same work and the tail percentile ranks the same number of
# jobs.
NOMINAL_PASS_S = {"acceptance-cli": 3.5, "constants-multistart": 19.0,
                  "scale-chains": 40.0}


def passes(workload: str, seconds: float) -> int:
    """Whole passes that fit in ``seconds`` at the nominal pass time, at
    least one."""
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def _job(label, argv, chain=None, seed=None):
    if seed is not None:
        argv = argv + ["--seed", str(seed)]
    return {"label": label, "argv": argv, "chain": chain, "seed": seed}


def jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")

    def draw():
        return rng.randrange(1, 2 ** 31)

    if workload == "acceptance-cli":
        out = [
            _job("theta-surface README", ["theta-surface", "--alpha", "1.01",
                                          "1.8", "--grid", "0:10:0.25"]),
            _job("verify-lemmas", ["verify-lemmas", "--alpha", "1.1", "1.5",
                                   "1.9", "--samples", "10000"], seed=draw()),
            _job("export-chain README", ["export-chain", "--model",
                                         "birth_death", "--K", "8"]),
        ]
        for command in ("verify-bochner", "decay"):
            for name in ACCEPTANCE_CHAINS:
                out.append(_job(f"{command} {name}",
                                [command] + CHAINS[name][0], name, draw()))
        fv = ["fokker-planck", "--model", "fokker_planck_fv", "--coeff", "2.0"]
        out.append(_job("fokker-planck README",
                        fv + ["--cells", "8", "16", "32", "64",
                              "--alpha", "1.5", "2.0"]))
        for alpha in ("1.5", "2.0"):
            out.append(_job(f"fokker-planck alpha={alpha}",
                            fv + ["--cells", *map(str, FV_CELLS),
                                  "--alpha", alpha], seed=draw()))
        return out
    if workload == "constants-multistart":
        return [_job(f"constants {name}",
                     ["constants"] + CHAINS[name][0]
                     + ["--alpha", "1.1", "1.5", "2.0"], name, draw())
                for name in ("ZR(3,3)", "BL(5,2)", "RT(4)")]
    if workload == "scale-chains":
        return [_job(f"{command} {name}", [command] + CHAINS[name][0],
                     name, draw())
                for command, name in (("decay", "BL(14,7)"),
                                      ("verify-bochner", "BL(12,6)"),
                                      ("verify-bochner", "ZR(5,8)"),
                                      ("decay", "RT(7)"))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracles: each returns (ok, detail)
# ---------------------------------------------------------------------------

# the job repeated untimed, after a single pass, to check that it writes
# the same bytes again
REPEATED = {"acceptance-cli": "export-chain README",
            "constants-multistart": "constants BL(5,2)",
            "scale-chains": "verify-bochner ZR(5,8)"}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rt_gap_oracle(n: int, chain=None):
    """Random transposition: the gap is 2/(n-1) in these units
    (Diaconis & Shahshahani 1981).  ``chain`` is one a job built, whose
    spectrum is then read rather than computed again."""
    import beckner_lab as bl
    if chain is None:
        chain = bl.build_random_transposition(n)
    gap = bl.spectral_gap(chain)
    err = abs(gap - 2.0 / (n - 1))
    return err <= 1e-12, f"spectral_gap={gap!r} closed form 2/{n - 1}, " \
                         f"|diff|={err:.3g} (tol 1e-12)"


def constants_oracle(out_dir: str, chain: str):
    """beckner_hat(2) = 2 lambda_P, lambda_M <= 2 lambda_P and
    4 lambda_L <= lambda_M, to the 1e-6 the command itself applies; for
    random transposition also lambda_P = 2/(n-1) to 1e-12."""
    tol = 1e-6
    with open(os.path.join(out_dir, "constants_report.json"),
              encoding="utf-8") as fh:
        rep = json.load(fh)
    lam_p, lam_m, lam_l = rep["lambda_P"], rep["lambda_M"], rep["lambda_L"]
    row2 = [r for r in _read_csv(os.path.join(out_dir, "constants.csv"))
            if float(r["alpha"]) == 2.0]
    problems = []
    if len(row2) != 1:
        problems.append("no alpha=2 row in constants.csv")
    elif abs(float(row2[0]["beckner_hat"]) - 2.0 * lam_p) > \
            tol * max(1.0, 2.0 * lam_p):
        problems.append(f"beckner_hat(2)={row2[0]['beckner_hat']} "
                        f"!= 2*lambda_P={2.0 * lam_p!r}")
    if lam_m > 2.0 * lam_p + tol:
        problems.append(f"lambda_M={lam_m!r} > 2*lambda_P={2.0 * lam_p!r}")
    if 4.0 * lam_l > lam_m + tol:
        problems.append(f"4*lambda_L={4.0 * lam_l!r} > lambda_M={lam_m!r}")
    block = CHAINS[chain][1]
    if block["model"] == "random_transposition":
        n = block["n"]
        if abs(lam_p - 2.0 / (n - 1)) > 1e-12:
            problems.append(f"lambda_P={lam_p!r} != 2/{n - 1}")
    return not problems, "; ".join(problems) or \
        f"lambda_P={lam_p!r} lambda_M={lam_m!r} lambda_L={lam_l!r}"


def rk4_oracle(out_dir: str, chain: str, seed: int, alpha=1.5):
    """The decay trajectory's entropy at its first positive sample time
    against the RK4 integrator, from the command's own initial density."""
    import numpy as np
    import beckner_lab as bl
    from beckner_lab.cli import parse_model_block
    ch = bl.build_model(parse_model_block(CHAINS[chain][1]))
    rho0 = bl.random_density(ch, np.random.default_rng(seed), 1.0)
    tag = f"{alpha:.6g}".replace(".", "_")
    rows = _read_csv(os.path.join(out_dir, f"trajectory_alpha{tag}.csv"))
    e = bl.power_entropy(alpha)
    ent0 = bl.entropy(ch, e, rho0)
    if abs(ent0 - float(rows[0]["entropy"])) > 1e-12 * ent0:
        return False, "initial entropy differs: rho0 not reproduced"
    t1 = float(rows[1]["t"])
    # dt * (fastest exit rate) <= 0.01 keeps RK4's own error near 1e-12
    dt = min(1e-4, 0.01 / float(np.max(np.sum(ch.rates, axis=1))))
    ref = bl.entropy(ch, e, bl.Density(bl.evolve_rk4(ch, rho0, t1, dt=dt)))
    got = float(rows[1]["entropy"])
    rel = abs(got - ref) / ref
    return rel <= 1e-9, f"t={t1:.6g} entropy {got!r} vs RK4 {ref!r}, " \
                        f"rel diff {rel:.3g} (tol 1e-9)"


def oracles(workload: str, job_list: list[dict], out_dirs: dict,
            rt_chains: dict) -> list[tuple]:
    """The workload's output checks as ``(name, job_indices, check)``;
    ``check()`` returns ``(ok, detail)``.  ``out_dirs`` maps a job index
    to one of its output directories; ``rt_chains`` maps n to a
    random-transposition chain a job built."""
    out = []
    rt_jobs: dict[int, list[int]] = {}
    for k, job in enumerate(job_list):
        command, chain = job["argv"][0], job["chain"]
        if command == "constants":
            out.append((f"constants relations {chain}", [k],
                        partial(constants_oracle, out_dirs[k], chain)))
        elif chain and CHAINS[chain][1]["model"] == "random_transposition":
            rt_jobs.setdefault(CHAINS[chain][1]["n"], []).append(k)
        if command == "decay" and workload == "acceptance-cli":
            out.append((f"rk4 {chain}", [k],
                        partial(rk4_oracle, out_dirs[k], chain, job["seed"])))
    for n, ks in sorted(rt_jobs.items()):
        out.append((f"spectral gap RT({n})", ks,
                    partial(rt_gap_oracle, n, rt_chains.get(n))))
    return out
