"""Command-line driver for verification, obstruction analysis and immersion.

Subcommands:
  verify    structure equations + closed-form immersion checks for a family
  obstruct  finite-jet branch analysis, printing the constraint trace
  immerse   solve, integrate the frame, export an OBJ mesh with diagnostics

Exit codes: 0 all checks passed, 1 a check failed, 2 constraint violation
or unusable configuration.

Configuration files are line-oriented `key = value` with optional
`[section]` headers; the section named after the subcommand and the
`[params]` section are merged, and command-line flags win over the file.
The PSSURF_CONFIG environment variable supplies a default config path.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import ConstraintError, FamilyId, build
from .forms import verify_family
from .frame import export_mesh, integrate_frame, validate_surface
from .sff import (IMMERSION_KEYS, NoImmersion, closed_form,
                  finite_jet_obstruction, verify_immersion)
from .solutions import SolutionGrid, grid_window, linear_solution, sg_kink

# family parameters exposed as flags; lambda needs a safe attribute name
_PARAM_FLAGS = ("eta", "alpha", "beta", "gamma", "delta", "nu", "xi", "zeta",
                "tau", "A", "B", "Q", "T", "sign")


@dataclass
class RunConfig:
    command: str
    family: str = None
    params: dict = field(default_factory=dict)
    grid: str = None
    solution: str = None
    a: float = 1.0
    p: float = 1.0
    C: float = 1.0
    out: str = None
    report: str = None
    points: int = 64
    tol: float = 1e-8
    seed: int = 1234
    eps_deg: float = None
    k_tol: float = 1e-2
    metric_tol: float = 1e-3


def read_config(path):
    """Line-oriented `key = value` parser with [section] headers."""
    sections = {"": {}}
    current = ""
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConstraintError("config", f"bad config line: {raw.strip()!r}")
            key, value = line.split("=", 1)
            sections[current][key.strip()] = value.strip()
    return sections


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


# every RunConfig field but the command and the parameters is an option;
# config files spell its underscores as dashes
_OPTIONS = tuple(f.name for f in fields(RunConfig)
                 if f.name not in ("command", "params"))
_OPTION_KEYS = {name.replace("_", "-") for name in _OPTIONS}


def _apply_config(cfg: RunConfig, sections, dests):
    """Top-level keys serve every subcommand; a key in the subcommand's own
    section must be one of its options, dests being what argparse set."""
    own = sections.get(cfg.command, {})
    merged = {**sections.get("", {}), **own}
    for key, value in merged.items():
        name = key.replace("-", "_")
        if key not in _OPTION_KEYS:
            raise ConstraintError(
                "config", f"unknown option {key!r}; parameters go in [params]")
        if key in own and name not in dests:
            raise ConstraintError(
                "config", f"{key!r} is not an option of {cfg.command}")
        setattr(cfg, name, _coerce(value))
    for key, value in sections.get("params", {}).items():
        cfg.params[key] = _coerce(value)


def parse_grid(text):
    """x0:x1:t0:t1:h or x0:x1:t0:t1:hx:ht, checked by grid_window."""
    parts = text.split(":")
    if len(parts) not in (5, 6):
        raise ConstraintError("grid", f"expected 5 or 6 colon fields, got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConstraintError("grid", f"non-numeric field in {text!r}")
    return grid_window(vals)


def _family_of(cfg):
    if not cfg.family:
        raise ConstraintError("family", "no family given")
    return FamilyId.from_name(cfg.family)


def _emit(lines, report_path):
    text = "\n".join(lines) + "\n"
    # the file first: a report path that cannot be written exits 2 with
    # nothing on stdout
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _param_header(cfg):
    shown = {k: v for k, v in sorted(cfg.params.items())}
    return "parameters: " + (", ".join(f"{k}={v}" for k, v in shown.items())
                             or "(defaults)")


def _split_params(cfg):
    fam = {k: v for k, v in cfg.params.items() if k not in IMMERSION_KEYS}
    imm = {k: v for k, v in cfg.params.items() if k in IMMERSION_KEYS}
    return fam, imm


# ------------------------------------------------------------- commands


def cmd_verify(cfg: RunConfig) -> int:
    family = _family_of(cfg)
    fam_params, imm_params = _split_params(cfg)
    spec = build(family, fam_params)
    rep = verify_family(spec.triple, n=cfg.points, tol=cfg.tol, seed=cfg.seed)
    lines = [f"family: {family.value}", _param_header(cfg)]
    for note in spec.report:
        lines.append(f"note: {note}")
    lines.extend(rep.lines())

    imm_ok = True
    try:
        sff = closed_form(spec, imm_params)
    except NoImmersion as exc:
        lines.append(f"immersion closed-form: none ({exc})")
        sff = None
    if sff is not None:
        imm = verify_immersion(spec.triple, sff, n=cfg.points, tol=cfg.tol,
                               seed=cfg.seed)
        lines.append("immersion closed-form: " + (sff.label or "present"))
        lines.extend("  " + l for l in imm.lines())
        imm_ok = imm.ok

    ok = rep.ok and imm_ok
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit(lines, cfg.report)
    return 0 if ok else 1


def cmd_obstruct(cfg: RunConfig) -> int:
    family = _family_of(cfg)
    fam_params, imm_params = _split_params(cfg)
    spec = build(family, fam_params)
    # a config file's [params] may carry sign_im for verify and immerse
    imm_params.pop("sign_im", None)
    verdict = finite_jet_obstruction(spec, **imm_params)
    lines = [f"family: {family.value}", _param_header(cfg)]
    lines.extend(verdict.lines())
    _emit(lines, cfg.report)
    return 0


def _load_solution_grid(cfg: RunConfig):
    src = cfg.solution or ""
    if src.endswith(".csv") or src.endswith(".bin"):
        if not os.path.exists(src):
            raise ConstraintError("solution", f"no such grid file: {src}")
        return (SolutionGrid.from_csv(src) if src.endswith(".csv")
                else SolutionGrid.from_binary(src))
    if not cfg.grid:
        raise ConstraintError("grid", "no grid given (x0:x1:t0:t1:h)")
    x0, t0, hx, ht, nx, nt = parse_grid(cfg.grid)
    if src == "kink":
        sol = sg_kink(cfg.a)
    elif src == "linear":
        sol = linear_solution(cfg.params.get("lambda", 0.0),
                              cfg.params.get("xi", 0.0),
                              cfg.params.get("tau", 0.0),
                              p=cfg.p, C=cfg.C)
    else:
        raise ConstraintError(
            "solution", f"unknown solution {src!r}; use kink, linear, "
            "or a stored grid (.csv/.bin)")
    return SolutionGrid.from_solution(sol, x0, t0, hx, ht, nx, nt)


def cmd_immerse(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ConstraintError("out", "missing output path for the mesh")
    family = _family_of(cfg)
    fam_params, imm_params = _split_params(cfg)
    spec = build(family, fam_params)
    try:
        sff = closed_form(spec, imm_params)
    except NoImmersion as exc:
        raise ConstraintError("immersion", f"no closed-form immersion: {exc}")
    grid = _load_solution_grid(cfg)
    field_ = integrate_frame(spec.triple, sff, grid, eps_deg=cfg.eps_deg)
    lines = [f"family: {family.value}", _param_header(cfg),
             f"grid: {grid.nx} x {grid.nt} nodes, hx={grid.hx:g} ht={grid.ht:g}"]
    if field_.count_valid() == 0:
        lines.append("result: FAIL (no admissible nodes on the grid)")
        _emit(lines, cfg.report)
        return 1
    diag = validate_surface(field_, spec.triple, sff)
    export_mesh(field_, cfg.out, diag)
    lines.append(f"mesh: {cfg.out}")
    lines.extend(diag.lines())
    ok = (diag.mean_abs_k_plus_1 < cfg.k_tol
          and diag.metric_max_rel < cfg.metric_tol
          and np.isfinite(diag.mean_abs_k_plus_1))
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit(lines, cfg.report)
    return 0 if ok else 1


# ------------------------------------------------------------- wiring


def _add_common(sp):
    sp.add_argument("--family")
    sp.add_argument("--config")
    sp.add_argument("--report")
    for name in _PARAM_FLAGS:
        sp.add_argument(f"--{name}", type=float)
    sp.add_argument("--lambda", dest="lambda_", type=float, metavar="LAMBDA")
    sp.add_argument("--l", type=float)
    sp.add_argument("--gamma-im", dest="gamma_im", type=float)


# grid specs such as -3:3:-3:3:0.02 start with a dash; widen the token
# class argparse treats as a value rather than an option
_VALUE_MATCHER = re.compile(r"^-\d+(?:[:.\-]\d*)*$|^-\.\d+(?:[:.\-]\d*)*$")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pssurf",
        description="verify, obstruct and immerse pseudo-spherical "
                    "surface equations")
    ap._negative_number_matcher = _VALUE_MATCHER
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check the structure equations")
    _add_common(v)
    # sampling of every zero test
    v.add_argument("--points", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--tol", type=float)

    o = sub.add_parser("obstruct", help="finite-jet obstruction analysis")
    _add_common(o)

    i = sub.add_parser("immerse", help="build and export an immersed surface")
    _add_common(i)
    for sp in (v, i):
        sp.add_argument("--sign-im", dest="sign_im", type=float)
    i.add_argument("--solution")
    i.add_argument("--grid")
    i.add_argument("--a", type=float)
    i.add_argument("--p", type=float)
    i.add_argument("--C", type=float)
    i.add_argument("--out")
    i.add_argument("--eps-deg", dest="eps_deg", type=float)
    i.add_argument("--k-tol", dest="k_tol", type=float)
    i.add_argument("--metric-tol", dest="metric_tol", type=float)
    for sp in (v, o, i):
        sp._negative_number_matcher = _VALUE_MATCHER
    return ap


def make_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    path = args.config or os.environ.get("PSSURF_CONFIG")
    if path:
        if not os.path.exists(path):
            raise ConstraintError("config", f"no such config file: {path}")
        _apply_config(cfg, read_config(path), vars(args))
    for name in _OPTIONS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    for name in _PARAM_FLAGS + IMMERSION_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            cfg.params[name] = value
    if getattr(args, "lambda_", None) is not None:
        cfg.params["lambda"] = args.lambda_
    return cfg


_DISPATCH = {"verify": cmd_verify, "obstruct": cmd_obstruct,
             "immerse": cmd_immerse}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        return _DISPATCH[cfg.command](cfg)
    except ConstraintError as exc:
        sys.stderr.write(f"constraint violation: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
