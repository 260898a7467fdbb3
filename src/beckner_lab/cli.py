"""Command-line front end: strict config parsing and experiment drivers.

Commands
--------
theta-surface   tabulate the two-weight infimum functional on a grid
verify-lemmas   sampled mean-function identity and concavity checks
verify-bochner  structural checks of R and the curvature inequality
decay           exact entropy-decay run against the explicit constant
constants       variational constants and their ordering relations
fokker-planck   finite-volume experiment and mesh-refinement study
export-chain    dump a chain as JSON

Flags are translated into the JSON document a ``--config`` file holds,
and one validator checks it.  Every run writes that document next to its
outputs as ``effective_config.json``, a config file that reproduces the
run.  CSV floats carry 17 significant digits; identical config and seed
reproduce byte-identical files.  Exit status: 0 all checks passed, 1 some
check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bochner, constants as consts, dynamics, fokker_planck, models
from .chain import chain_to_json, random_density
from .entropy import (power_entropy, theta_surface, verify_concavity,
                      verify_theta_identities)
from .errors import BecknerLabError, ConfigError
from .models import ModelSpec
from .reporting import CheckReport

# theta-surface evaluates every node of its square grid in one batch, with
# a few arrays of one float per node; the cap bounds that memory
GRID_MAX_NODES = 10 ** 6


# The value flags every command takes (_COMMON) and those of each command,
# with their defaults in config-document form.  The parser takes its
# flags and defaults from here, and a config document that omits a key
# gets the same default; a key neither given nor listed is None.  A
# command takes only its own keys (see _command_keys).
_COMMON = {"out": ".", "seed": 0}
_DEFAULTS = {
    "theta-surface": {"alpha": [1.5], "grid": "0:10:0.5"},
    "verify-lemmas": {"alpha": [1.1, 1.5, 1.9], "samples": 10000,
                      "tol": None},
    "verify-bochner": {"alpha": [1.5], "tol": None},
    "decay": {"alpha": [1.5], "n_points": 61, "t_end": None, "tol": None},
    "constants": {"alpha": [1.5], "starts": 32, "tol": None},
    "export-chain": {"alpha": [1.5]},
    "fokker-planck": {"alpha": [1.5], "cells": [8, 16, 32, 64]},
}
# the commands that take no model block; every other one needs one
_MODEL_FREE = ("theta-surface", "verify-lemmas")
# the type and nargs of each value flag
_FLAGS = {"out": (str, None), "seed": (int, None), "tol": (float, None),
          "alpha": (float, "+"), "grid": (str, None), "samples": (int, None),
          "n_points": (int, None), "t_end": (float, None),
          "starts": (int, None), "cells": (int, "+")}


@dataclass
class ExperimentConfig:
    """A checked run configuration; ``echo`` is the document it came
    from."""
    command: str
    model: ModelSpec | None
    alphas: list[float]
    seed: int
    out: str
    tol: float | None
    grid: tuple[float, float, float] | None
    samples: int | None
    cells: list[int] | None
    n_points: int | None
    t_end: float | None
    starts: int | None
    dump_densities: bool
    echo: dict


# ---------------------------------------------------------------------------
# strict config validation
# ---------------------------------------------------------------------------

def _require_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@contextlib.contextmanager
def _strict_types(where: str):
    """Report a missing or ill-typed value met in ``where`` as ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except ConfigError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: ill-typed value ({exc})") from exc


def _check_alpha(a) -> float:
    a = float(a)
    if not 1.0 < a <= 2.0:
        raise ConfigError("alpha must lie in (1,2]")
    return a


def _check_positive(name: str, t) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ConfigError(f"{name} must be finite and > 0")
    return t


def _check_cells(cells) -> list[int]:
    cells = [int(c) for c in cells]
    if not cells:
        raise ConfigError("cells must list at least one mesh")
    if any(c2 <= c1 for c1, c2 in zip(cells, cells[1:])):
        raise ConfigError("cells must be strictly increasing")
    return cells


def _check_count(name: str, n, minimum: int = 1) -> int:
    n = int(n)
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return n


@_strict_types("model block")
def parse_model_block(d: dict) -> ModelSpec:
    if "model" not in d:
        raise ConfigError("model block: missing 'model'")
    kind = d["model"]
    if kind == "zero_range":
        _require_keys(d, {"model", "L", "N", "rates"}, "zero_range block")
        L, N = int(d["L"]), int(d["N"])
        rates = d.get("rates", {"kind": "linear", "c": 1.0})
        rk = rates.get("kind")
        if rk == "linear":
            _require_keys(rates, {"kind", "c"}, "rates block")
            table = models.linear_rate_table(L, N, float(rates.get("c", 1.0)))
        elif rk == "table":
            _require_keys(rates, {"kind", "values"}, "rates block")
            table = np.asarray(rates["values"], dtype=float)
        else:
            raise ConfigError(f"unknown zero-range rates kind {rk!r}")
        return ModelSpec("zero_range", {"L": L, "N": N, "c_x": table})
    if kind == "bernoulli_laplace":
        _require_keys(d, {"model", "L", "N", "lambda"}, "bernoulli_laplace block")
        lam = np.asarray(d.get("lambda", 1.0), dtype=float)
        return ModelSpec("bernoulli_laplace",
                         {"L": int(d["L"]), "N": int(d["N"]), "lambda_x": lam})
    if kind == "random_transposition":
        _require_keys(d, {"model", "n"}, "random_transposition block")
        return ModelSpec("random_transposition", {"n": int(d["n"])})
    if kind == "birth_death":
        _require_keys(d, {"model", "a", "b", "rates"}, "birth_death block")
        if "rates" in d:
            r = d["rates"]
            if r.get("kind") != "mm_infinity":
                raise ConfigError("birth_death rates kind must be mm_infinity")
            _require_keys(r, {"kind", "K"}, "rates block")
            a, b = models.mm_infinity_rates(int(r["K"]))
        else:
            a = np.asarray(d["a"], dtype=float)
            b = np.asarray(d["b"], dtype=float)
        return ModelSpec("birth_death", {"a": a, "b": b})
    if kind == "fokker_planck_fv":
        _require_keys(d, {"model", "potential", "n_cells", "lambda"},
                      "fokker_planck_fv block")
        models.potential_from_config(d["potential"])     # fail at parse time
        return ModelSpec("fokker_planck_fv",
                         {"potential": d["potential"],
                          "n_cells": int(d["n_cells"]),
                          "lambda_conv": float(d["lambda"])})
    raise ConfigError(f"unknown model {kind!r}")


def _command_keys(command: str) -> set:
    """The top-level keys of a config document of ``command``: its value
    flags, a model block unless it is model-free, and ``dump_densities``
    for decay."""
    keys = {"command", *_COMMON, *_DEFAULTS[command]}
    if command not in _MODEL_FREE:
        keys.add("model")
    if command == "decay":
        keys.add("dump_densities")
    return keys


def validate_config(raw: str) -> ExperimentConfig:
    """Strict parse of a JSON experiment document."""
    raw = raw.strip()
    if not raw:
        raise ConfigError("missing command")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    return _config_from_doc(doc)


@_strict_types("config")
def _config_from_doc(doc) -> ExperimentConfig:
    """Check a decoded config document and build its configuration; the
    document is kept as the run's echo."""
    if not isinstance(doc, dict) or "command" not in doc:
        raise ConfigError("missing command")
    command = doc["command"]
    if command not in _DRIVERS:
        raise ConfigError(f"unknown command {command!r}")
    _require_keys(doc, _command_keys(command), f"{command} config")
    values = {**_COMMON, **_DEFAULTS[command], **doc}

    def get(key, check):
        value = values.get(key)
        return None if value is None and key not in doc else check(value)

    cfg = ExperimentConfig(
        command=command,
        model=parse_model_block(doc["model"]) if "model" in doc else None,
        alphas=get("alpha", lambda a: [
            _check_alpha(x) for x in (a if isinstance(a, list) else [a])]),
        seed=get("seed", lambda n: _check_count("seed", n, 0)),
        out=get("out", str),
        tol=get("tol", lambda t: _check_positive("tol", t)),
        grid=get("grid", _parse_grid),
        samples=get("samples", lambda n: _check_count("samples", n)),
        cells=get("cells", _check_cells),
        # the rate fit needs three samples
        n_points=get("n_points", lambda n: _check_count("n_points", n, 3)),
        t_end=get("t_end", lambda t: _check_positive("t_end", t)),
        starts=get("starts", lambda n: _check_count("starts", n)),
        dump_densities=doc.get("dump_densities", False), echo=doc)
    if not cfg.alphas:
        raise ConfigError("alpha must list at least one value")
    if not isinstance(cfg.dump_densities, bool):
        raise ConfigError("dump_densities must be true or false")
    if cfg.model is None and command not in _MODEL_FREE:
        raise ConfigError(f"command {command!r} requires a model block")
    if command == "fokker-planck" and cfg.model.kind != "fokker_planck_fv":
        raise ConfigError("fokker-planck command needs a fokker_planck_fv model")
    # the mean-function identities hold for alpha < 2 only
    if command == "verify-lemmas" and any(a >= 2.0 for a in cfg.alphas):
        raise ConfigError("verify-lemmas needs alpha in (1,2)")
    return cfg


def _parse_grid(g) -> tuple[float, float, float]:
    if isinstance(g, str):
        parts = g.split(":")
        if len(parts) != 3:
            raise ConfigError("grid must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
    elif isinstance(g, (list, tuple)) and len(g) == 3:
        start, stop, step = (float(p) for p in g)
    else:
        raise ConfigError("grid must be start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("grid start, stop and step must be finite")
    if step <= 0 or stop < start or start < 0:
        raise ConfigError("grid needs 0 <= start <= stop and step > 0")
    # _grid_values gives floor(x) + 1 values per axis, with x = (stop -
    # start) / step + 0.5, so the square grid is within the cap iff
    # x < sqrt(GRID_MAX_NODES); an x that overflows to inf is rejected
    if not (stop - start) / step + 0.5 < math.isqrt(GRID_MAX_NODES):
        raise ConfigError(f"grid has more than {GRID_MAX_NODES} nodes")
    return start, stop, step


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

# rows per formatted block of a CSV file: a block's text is a few hundred
# kB, so no output is ever held whole as one string
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``rows`` (an array or a list of equal-length rows) under
    ``header``; every cell is ``%.17g`` of a float, so a bool prints as
    1 or 0 and a small int as itself."""
    table = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[k:k + _CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "effective_config.json"), cfg.echo)


# ---------------------------------------------------------------------------
# command drivers
# ---------------------------------------------------------------------------

def _grid_values(grid):
    start, stop, step = grid
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return [start + k * step for k in range(n)]


def _cmd_theta_surface(cfg: ExperimentConfig) -> int:
    vals = _grid_values(cfg.grid)
    status = 0
    for a in cfg.alphas:
        rows = theta_surface(a, vals, vals)
        tag = f"{a:.6g}".replace(".", "_")
        _write_csv(os.path.join(cfg.out, f"theta_surface_alpha{tag}.csv"),
                   "A,B,theta,lower_bound,upper_bound", rows)
        # the slack is relative to each node's bound, so the check means
        # the same at every grid scale
        ok = bool(np.all(rows[:, 2] >= rows[:, 3] * (1.0 - 1e-9))
                  and np.all(rows[:, 2] <= rows[:, 4] * (1.0 + 1e-9)))
        pos = rows[:, 3] > 0
        excess = float(np.max(rows[pos, 2] / rows[pos, 3])) if pos.any() else 1.0
        print(f"alpha={a}: {len(rows)} nodes, bounds "
              f"{'PASS' if ok else 'FAIL'}, max theta/floor = {excess:.6g}")
        status |= 0 if ok else 1
    return status


def _cmd_verify_lemmas(cfg: ExperimentConfig) -> int:
    payload = {}
    ok = True
    for a in cfg.alphas:
        rep = verify_theta_identities(a, cfg.samples, cfg.seed,
                                      tol=cfg.tol or 1e-9)
        conc = verify_concavity(power_entropy(a), (0.25, 0.5, 0.75),
                                max(100, cfg.samples // 10), cfg.seed)
        payload[f"alpha={a}"] = {"identities": rep.to_dict(),
                                 "concavity": conc.to_dict()}
        ok = ok and rep.passed and conc.passed
        print(f"alpha={a}: identities "
              f"{'PASS' if rep.passed else 'FAIL'}, concavity "
              f"{'PASS' if conc.passed else 'FAIL'}")
    _write_json(os.path.join(cfg.out, "lemmas_report.json"), payload)
    return 0 if ok else 1


def _cmd_verify_bochner(cfg: ExperimentConfig) -> int:
    chain = models.build_model(cfg.model)
    bs = bochner.r_function(chain)
    tol = cfg.tol or 1e-10
    report = bochner.verify_assumption(chain, bs, tol=tol)
    # 20 densities, each with its chi and psi, drawn in this order
    rng = np.random.default_rng(cfg.seed + 1)
    draws = [(random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3]).values,
              rng.standard_normal(chain.n_states),
              rng.standard_normal(chain.n_states)) for k in range(20)]
    rho, chi, psi = (np.array(col) for col in zip(*draws))
    # elements per row of the widest array the three checks hold
    width = max(chain.n_states, len(bs.gamma_coo(chain)[0]), bs.nnz)
    worst_residual = 0.0
    for a in cfg.alphas:
        e = power_entropy(a)
        gaps, ids, props = [], [], []
        for rows in bochner.row_chunks(len(rho), width):
            r = rho[rows]
            gaps.append(bochner.bochner_identity_check(chain, bs, chi[rows],
                                                       psi[rows], r, e))
            ids.append(bochner.identity_3id_check(chain, bs, r, e,
                                                  seed=cfg.seed + rows.start))
            lhs, rhs = bochner.proposition_sides(chain, bs, e, r)
            props.append((rhs - lhs) / (np.abs(lhs) + 1e-300))
        worst_gap, worst_3id, worst_prop = (
            max(0.0, float(np.max(np.concatenate(v))))
            for v in (gaps, ids, props))
        tag = "" if len(cfg.alphas) == 1 else f"[alpha={a}]"
        report.add(CheckReport("summation_by_parts_identity" + tag,
                               worst_gap <= tol, worst_gap, tol))
        report.add(CheckReport("second_gradient_identity" + tag,
                               worst_3id <= tol, worst_3id, tol))
        report.add(CheckReport("curvature_inequality" + tag,
                               worst_prop <= 1e-9, worst_prop, 1e-9))
        worst_residual = max(worst_residual, worst_gap, worst_3id)
    _write_json(os.path.join(cfg.out, "bochner_report.json"), report.to_dict())
    print(f"bochner checks: {'PASS' if report.passed else 'FAIL'} "
          f"(worst residual {worst_residual:.3e})")
    return 0 if report.passed else 1


def _cmd_decay(cfg: ExperimentConfig) -> int:
    spec = cfg.model
    chain = models.build_model(spec)
    status = 0
    for a in cfg.alphas:
        const = models.paper_lambda(spec, a)
        e = power_entropy(a)
        rho0 = random_density(chain, np.random.default_rng(cfg.seed), 1.0)
        report = dynamics.run_decay(chain, e, rho0, const.value,
                                    t_end=cfg.t_end, n_points=cfg.n_points,
                                    tol=cfg.tol or 1e-6)
        traj = report.trajectory
        tag = f"{a:.6g}".replace(".", "_")
        _write_csv(os.path.join(cfg.out, f"trajectory_alpha{tag}.csv"),
                   "t,entropy,dirichlet,inst_rate",
                   np.column_stack((traj.times, traj.entropy_values,
                                    traj.dirichlet_values,
                                    traj.instantaneous_rate())))
        if cfg.dump_densities:
            _write_json(os.path.join(cfg.out, f"densities_alpha{tag}.json"),
                        {"%.17g" % t: [float(v) for v in traj.densities[k]]
                         for k, t in enumerate(traj.times)})
        verdict = "PASS" if report.certified else "FAIL"
        print(f"alpha={a}: rate >= {const.value:.6g}: {verdict} "
              f"(fitted {report.rate:.6g})")
        status |= 0 if report.certified else 1
    return status


def _cmd_constants(cfg: ExperimentConfig) -> int:
    spec = cfg.model
    chain = models.build_model(spec)
    opts = consts.OptimizerOptions(starts=cfg.starts, seed=cfg.seed,
                                   tol=cfg.tol or 1e-8)
    table = consts.constants_report(chain, cfg.alphas, spec=spec, opts=opts)
    rows = [(r.alpha, r.paper_bound, r.beckner_hat, r.two_lambda_p,
             r.ordering_pass) for r in table.rows]
    _write_csv(os.path.join(cfg.out, "constants.csv"),
               "alpha,paper_bound,beckner_hat,two_lambda_P,ordering_pass",
               rows)
    _write_json(os.path.join(cfg.out, "constants_report.json"), {
        "lambda_P": table.lambda_p, "lambda_M": table.lambda_m,
        "lambda_L": table.lambda_l,
        "mlsi_continuity_gap": table.mlsi_continuity_gap,
        "references": table.references,
        "ordering_pass": table.ordering_pass,
        "convergence": [{"name": e.name, "alpha": e.alpha,
                         "convergence": e.convergence}
                        for e in table.estimates],
    })
    for r in table.rows:
        print(f"alpha={r.alpha}: beckner_hat={r.beckner_hat:.8g} "
              f"2*lambda_P={r.two_lambda_p:.8g} "
              f"{'PASS' if r.ordering_pass else 'FAIL'}")
    return 0 if table.ordering_pass else 1


def _cmd_fokker_planck(cfg: ExperimentConfig) -> int:
    spec = cfg.model
    p = spec.params
    study = fokker_planck.mesh_refinement_study(
        p["potential"], p["lambda_conv"], cfg.cells, cfg.alphas,
        seed=cfg.seed)
    # the model's own mesh, from the study when it is one of its meshes
    own = study.experiments.get(p["n_cells"])
    if own is None:
        own = fokker_planck.run_fv_experiment(spec, cfg.alphas, seed=cfg.seed)
    status = 0
    for k, a in enumerate(cfg.alphas):
        rows = [(e.h, e.lambda_h, e.decay.rate, e.decay.lambda_paper,
                 next(c.passed for c in e.checks.checks
                      if c.name == "fitted_rate_vs_mesh_bound"))
                for e in (runs[k] for runs in study.experiments.values())]
        tag = f"{a:.6g}".replace(".", "_")
        _write_csv(os.path.join(cfg.out, f"refinement_alpha{tag}.csv"),
                   "h,lambda_h,fitted_rate,bound_2alpha_lambda_h,pass", rows)
        _write_json(os.path.join(cfg.out, f"fv_report_alpha{tag}.json"),
                    own[k].checks.to_dict())
        ok = (study.lambda_h_increasing and study.ratio_ok
              and all(r[-1] for r in rows) and own[k].checks.passed)
        print(f"alpha={a}: refinement "
              f"{'PASS' if ok else 'FAIL'} "
              f"(ratios {['%.2f' % r for r in study.gap_ratios]})")
        status |= 0 if ok else 1
    return status


def _cmd_export_chain(cfg: ExperimentConfig) -> int:
    spec = cfg.model
    chain = models.build_model(spec)
    path = os.path.join(cfg.out, "chain.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chain_to_json(chain, indent=2))
        fh.write("\n")
    print(f"wrote {path} ({chain.n_states} states, {chain.n_moves} moves)")
    return 0


_DRIVERS = {
    "theta-surface": _cmd_theta_surface,
    "verify-lemmas": _cmd_verify_lemmas,
    "verify-bochner": _cmd_verify_bochner,
    "decay": _cmd_decay,
    "constants": _cmd_constants,
    "fokker-planck": _cmd_fokker_planck,
    "export-chain": _cmd_export_chain,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    _echo_config(cfg)
    return _DRIVERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    ap = argparse.ArgumentParser(prog="beckner-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def value_flags(p, defaults):
        for key, default in defaults.items():
            kind, nargs = _FLAGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           nargs=nargs, default=default)

    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        value_flags(p, _COMMON)
        if name not in _MODEL_FREE:
            p.add_argument("--model", type=str, default=None)
            p.add_argument("--L", type=int, default=None)
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--K", type=int, default=None)
            p.add_argument("--c", type=float, default=1.0)
            p.add_argument("--lambda-x", type=float, default=1.0)
            p.add_argument("--coeff", type=float, default=2.0)
            p.add_argument("--lambda-conv", type=float, default=None)
            p.add_argument("--n-cells", type=int, default=32)
        value_flags(p, defaults)
        if name == "decay":
            p.add_argument("--dump-densities", action="store_true")
    return ap


def _model_block(ns) -> dict:
    """The config model block that the model flags describe."""
    kind = ns.model
    if kind in ("zero_range", "bernoulli_laplace") and (
            ns.L is None or ns.N is None):
        raise ConfigError(f"{kind} needs --L and --N")
    if kind == "zero_range":
        return {"model": kind, "L": ns.L, "N": ns.N,
                "rates": {"kind": "linear", "c": ns.c}}
    if kind == "bernoulli_laplace":
        return {"model": kind, "L": ns.L, "N": ns.N, "lambda": ns.lambda_x}
    if kind == "random_transposition":
        if ns.n is None:
            raise ConfigError("random_transposition needs --n")
        return {"model": kind, "n": ns.n}
    if kind == "birth_death":
        if ns.K is None:
            raise ConfigError("birth_death needs --K (trap family)")
        return {"model": kind, "rates": {"kind": "mm_infinity", "K": ns.K}}
    if kind == "fokker_planck_fv":
        lam = ns.lambda_conv if ns.lambda_conv is not None else 2.0 * ns.coeff
        return {"model": kind,
                "potential": {"kind": "quadratic", "coeff": ns.coeff},
                "n_cells": ns.n_cells, "lambda": lam}
    return {"model": kind}          # parse_model_block names the kind


def _config_from_namespace(ns) -> ExperimentConfig:
    """The configuration of a command line: the ``--config`` document, on
    which only ``--out`` and ``--dump-densities`` apply, or else the
    document that the flags describe."""
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {ns.config!r}: {exc}") from exc
        cfg = validate_config(text)
        if cfg.command != ns.command:
            raise ConfigError(
                f"config command {cfg.command!r} does not match "
                f"CLI command {ns.command!r}")
        cfg.out = ns.out if ns.out != "." else cfg.out
        if getattr(ns, "dump_densities", False):
            cfg.dump_densities = cfg.echo["dump_densities"] = True
        return cfg
    doc = {k: v for k, v in vars(ns).items()
           if k in _command_keys(ns.command) and k != "model"
           and v is not None}
    if getattr(ns, "model", None) is not None:
        doc["model"] = _model_block(ns)
    return _config_from_doc(doc)


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
        cfg = _config_from_namespace(ns)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BecknerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
