"""Command-line driver for verification, obstruction analysis and immersion.

Subcommands:
  verify    structure equations + closed-form immersion checks for a family
  obstruct  finite-jet branch analysis, printing the constraint trace
  immerse   solve, integrate the frame, export an OBJ mesh with diagnostics

Exit codes: 0 all checks passed, 1 a check failed, 2 constraint violation
or unusable configuration.

Configuration files are line-oriented `key = value` with optional
`[section]` headers; the section named after the subcommand and the
`[params]` section are merged, OPTIONS converts a key's value as it does
its flag's, and flags win over the file. The PSSURF_CONFIG environment
variable supplies a default config path.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .catalog import ConstraintError, build
from .forms import verify_family
from .frame import export_mesh, integrate_frame, validate_surface
from .sff import (IMMERSION_KEYS, NoImmersion, closed_form,
                  finite_jet_obstruction, verify_immersion)
from .solutions import SolutionGrid, grid_window, linear_solution, sg_kink


def _checked(cast, what, ok):
    """A converter that rejects, naming the text, what no run can use."""
    def convert(text):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


class Option(NamedTuple):
    """A flag, and how a config file sets it: `file` is "key" (a top-level
    or subcommand-section key), "params", or None (--config itself)."""
    convert: Callable[[str], object] = str    # the flag's and the key's text
    default: object = None
    commands: tuple = ("verify", "obstruct", "immerse")
    solutions: tuple = ()       # the immerse solutions that read it, if not all
    file: str | None = "key"


_VERIFY, _IMMERSE = ("verify",), ("immerse",)
_TOLERANCE = _checked(float, "a finite number >= 0", lambda x: 0 <= x < math.inf)
_FINITE = _checked(float, "a finite number", math.isfinite)
_FAMILY_PARAMS = ("eta", "alpha", "beta", "gamma", "delta", "nu", "xi", "zeta",
                  "tau", "A", "B", "Q", "T", "sign", "lambda")

# every flag of every subcommand; build checks the family parameters
OPTIONS = {
    "family": Option(),
    "config": Option(file=None),
    "report": Option(),
    **{name: Option(float, file="params")
       for name in _FAMILY_PARAMS + IMMERSION_KEYS if name != "sign_im"},
    # the sampling of every zero test
    "points": Option(_checked(int, "an integer >= 1", lambda n: n >= 1), 64, _VERIFY),
    "seed": Option(_checked(int, "an integer >= 0", lambda n: n >= 0), 1234, _VERIFY),
    "tol": Option(_TOLERANCE, 1e-8, _VERIFY),
    # obstruct builds no form to pick the sign of
    "sign_im": Option(float, commands=("verify", "immerse"), file="params"),
    "solution": Option(commands=_IMMERSE),
    "grid": Option(commands=_IMMERSE, solutions=("kink", "linear")),
    "a": Option(_FINITE, commands=_IMMERSE, solutions=("kink",)),
    "p": Option(_FINITE, commands=_IMMERSE, solutions=("linear",)),
    "C": Option(_FINITE, commands=_IMMERSE, solutions=("linear",)),
    "out": Option(commands=_IMMERSE),
    "eps_deg": Option(_TOLERANCE, None, _IMMERSE),
    "k_tol": Option(_TOLERANCE, 1e-2, _IMMERSE),
    "metric_tol": Option(_TOLERANCE, 1e-3, _IMMERSE),
}

# flags and config keys spell underscores as dashes
_KEYS = {name.replace("_", "-"): name
         for name, opt in OPTIONS.items() if opt.file == "key"}


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
    """A [params] value: a number, or the text of an expression."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _apply_config(cfg, sections):
    """Top-level keys serve every subcommand, each taking those it reads; a
    key in the subcommand's own section must be one of its options. A value
    goes through its flag's converter."""
    own = sections.get(cfg.command, {})
    for key, text in {**sections.get("", {}), **own}.items():
        if key not in _KEYS:
            raise ConstraintError(
                "config", f"unknown option {key!r}; parameters go in [params]")
        name = _KEYS[key]
        if cfg.command in OPTIONS[name].commands:
            try:
                setattr(cfg, name, OPTIONS[name].convert(text))
            except argparse.ArgumentTypeError as exc:
                raise ConstraintError("config", f"{key} = {exc}")
        elif key in own:
            raise ConstraintError(
                "config", f"{key!r} is not an option of {cfg.command}")
    for key, text in sections.get("params", {}).items():
        cfg.params[key] = _coerce(text)


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


def _build(cfg):
    """The family's spec, and the immersion constants given."""
    if not cfg.family:
        raise ConstraintError("family", "no family given")
    imm = {k: v for k, v in cfg.params.items() if k in IMMERSION_KEYS}
    fam = {k: v for k, v in cfg.params.items() if k not in imm}
    return build(cfg.family, fam), imm


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


# ------------------------------------------------------------- commands


def _sampled(check, cfg, *args):
    """check(*args) with the zero tests' sampling flags."""
    try:
        return check(*args, n=cfg.points, tol=cfg.tol, seed=cfg.seed)
    except MemoryError:
        # a zero test holds a few arrays of --points floats
        raise ConstraintError(
            "points", f"{cfg.points} sample points per zero test do not fit"
            " in memory; lower --points") from None


def cmd_verify(cfg) -> int:
    spec, imm_params = _build(cfg)
    rep = _sampled(verify_family, cfg, spec.triple)
    lines = [f"family: {spec.id.value}", _param_header(cfg)]
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
        imm = _sampled(verify_immersion, cfg, spec.triple, sff)
        lines.append("immersion closed-form: " + (sff.label or "present"))
        lines.extend("  " + l for l in imm.lines())
        imm_ok = imm.ok

    ok = rep.ok and imm_ok
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _emit(lines, cfg.report)
    return 0 if ok else 1


def cmd_obstruct(cfg) -> int:
    spec, imm_params = _build(cfg)
    # a config file's [params] may carry sign_im for verify and immerse
    imm_params.pop("sign_im", None)
    verdict = finite_jet_obstruction(spec, **imm_params)
    lines = [f"family: {spec.id.value}", _param_header(cfg)]
    lines.extend(verdict.lines())
    _emit(lines, cfg.report)
    return 0


def _load_solution_grid(cfg, params):
    """The grid --solution names; params are the built family's, under
    their canonical names (an alias such as --zeta is mapped there)."""
    src = cfg.solution or ""
    stored = src.endswith(".csv") or src.endswith(".bin")
    if not (stored or cfg.grid):
        raise ConstraintError("grid", "no grid given (x0:x1:t0:t1:h)")
    if not stored and src not in ("kink", "linear"):
        raise ConstraintError(
            "solution", f"unknown solution {src!r}; use kink, linear, "
            "or a stored grid (.csv/.bin)")
    for name, opt in OPTIONS.items():
        if (opt.solutions and src not in opt.solutions
                and getattr(cfg, name) is not None):
            raise ConstraintError(name, f"not read by --solution {src}")
    if stored:
        if not os.path.exists(src):
            raise ConstraintError("solution", f"no such grid file: {src}")
        return (SolutionGrid.from_csv(src) if src.endswith(".csv")
                else SolutionGrid.from_binary(src))
    x0, t0, hx, ht, nx, nt = parse_grid(cfg.grid)
    if src == "kink":
        sol = sg_kink(1.0 if cfg.a is None else cfg.a)
    else:
        sol = linear_solution(params.get("lambda", 0.0),
                              params.get("xi", 0.0),
                              params.get("tau", 0.0),
                              p=1.0 if cfg.p is None else cfg.p,
                              C=1.0 if cfg.C is None else cfg.C)
    return SolutionGrid.from_solution(sol, x0, t0, hx, ht, nx, nt)


def cmd_immerse(cfg) -> int:
    if not cfg.out:
        raise ConstraintError("out", "missing output path for the mesh")
    spec, imm_params = _build(cfg)
    try:
        sff = closed_form(spec, imm_params)
    except NoImmersion as exc:
        raise ConstraintError("immersion", f"no closed-form immersion: {exc}")
    try:
        grid = _load_solution_grid(cfg, spec.params)
        field_ = integrate_frame(spec.triple, sff, grid, eps_deg=cfg.eps_deg)
    except MemoryError:
        # the grid and its frame hold a few arrays of a float per node
        raise ConstraintError(
            "grid", f"{cfg.grid or cfg.solution} has more nodes than fit in"
            " memory; raise its step") from None
    lines = [f"family: {spec.id.value}", _param_header(cfg),
             f"grid: {grid.nx} x {grid.nt} nodes, hx={grid.hx:g} ht={grid.ht:g}"]
    if field_.count_valid() == 0:
        lines.append("result: FAIL (no admissible nodes on the grid)")
        _emit(lines, cfg.report)
        return 1
    diag = validate_surface(field_)
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


# grid specs such as -3:3:-3:3:0.02 start with a dash; widen the token
# class argparse treats as a value rather than an option
_VALUE_MATCHER = re.compile(r"^-\d+(?:[:.\-]\d*)*$|^-\.\d+(?:[:.\-]\d*)*$")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pssurf",
        description="verify, obstruct and immerse pseudo-spherical "
                    "surface equations")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, text) in _DISPATCH.items():
        # an absent flag sets nothing, so make_config sees those given
        sp = sub.add_parser(command, help=text,
                            argument_default=argparse.SUPPRESS)
        sp._negative_number_matcher = _VALUE_MATCHER
        for name, opt in OPTIONS.items():
            if command in opt.commands:
                sp.add_argument("--" + name.replace("_", "-"), dest=name,
                                type=opt.convert)
    return ap


def make_config(args) -> argparse.Namespace:
    """The table's defaults, then the config file's values, then the flags."""
    given = dict(vars(args))
    command = given.pop("command")
    cfg = argparse.Namespace(command=command, params={}, **{
        name: opt.default for name, opt in OPTIONS.items()
        if command in opt.commands and opt.file == "key"})
    path = given.pop("config", None) or os.environ.get("PSSURF_CONFIG")
    if path:
        if not os.path.exists(path):
            raise ConstraintError("config", f"no such config file: {path}")
        _apply_config(cfg, read_config(path))
    for name, value in given.items():
        (cfg.params if OPTIONS[name].file == "params" else vars(cfg))[name] = value
    return cfg


_DISPATCH = {"verify": (cmd_verify, "check the structure equations"),
             "obstruct": (cmd_obstruct, "finite-jet obstruction analysis"),
             "immerse": (cmd_immerse, "build and export an immersed surface")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        return _DISPATCH[cfg.command][0](cfg)
    except ConstraintError as exc:
        sys.stderr.write(f"constraint violation: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
