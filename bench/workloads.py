"""The three benchmark workloads: inputs, the timed operation, its check.

Each workload has
  inputs(seed, k)              input of op k, built before its timing
  units(inp)                   ops an input counts as (for fail_share)
  op(inp, workdir, tracer)     the timed operation; returns raw outputs
  summarize(inp, raw)          small JSON-able result, compared traced
                               against untraced and fed to check
  check(summary, expected)     (units attempted, list of failure lines)
  targets()                    public functions the traced run wraps
  layer_metrics(tracer, root, summary)
                               per-layer metrics of one traced op

The benchmark calls pssurf only through module attributes (catalog.build,
not a name imported from it), so the traced run's wrappers see the calls.
"""

import contextlib
import hashlib
import io
import os
import re
import traceback

import numpy as np

import pssurf.catalog as catalog
import pssurf.cli as cli
import pssurf.forms as forms
import pssurf.sff as sff
import pssurf.solutions as solutions
from pssurf.catalog import FamilyId
from pssurf.expr import EvalError, evaluate, free_names, to_text, walk
from pssurf.expr.numeric import CONSTRAINT_MARGIN
from pssurf.solutions import SolutionGrid

FAMILIES = tuple(f.value for f in FamilyId)


def describe(exc):
    """Exception type, innermost frame and message, for a failure line."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return f"{type(exc).__name__} at {where}: {exc}"


def _nodes(*exprs):
    return sum(sum(1 for _ in walk(e)) for e in exprs)


def _file_bytes(args, kwargs, result):
    return {"solutions.bytes_written": os.path.getsize(args[1])}


def _span_sums(tracer, root):
    """Seconds per span name and summed counts over the spans below root;
    spans directly under a "family" span also add to name.<family>."""
    out = {}
    for k in tracer.descendants(root):
        s = tracer.spans[k]
        key = s.name + "_s"
        out[key] = out.get(key, 0.0) + s.duration
        parent = tracer.spans[s.parent]
        if parent.name == "family":
            key = f"{key}.{parent.tag}"
            out[key] = out.get(key, 0.0) + s.duration
        for name, value in s.counts.items():
            out[name] = out.get(name, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def admissible(fam, params):
    """Whether a draw is an instance of its family: build accepts it, and
    every constraint of the family that depends on parameters alone clears
    the margin that verify_family's zero tests demand of it."""
    try:
        triple = catalog.build(fam, dict(params)).triple
    except catalog.ConstraintError:
        return False
    for c in triple.constraints:
        if free_names(c) <= triple.params.keys():
            try:
                if not evaluate(c, triple.params) > CONSTRAINT_MARGIN:
                    return False
            except EvalError:
                return False
    return True


# ------------------------------------------------------------ immerse-kink


class ImmerseKink:
    """The README command, run in-process through pssurf.cli.main."""

    name = "immerse-kink"
    ARGV = ("immerse", "--family", "sg-basic", "--solution", "kink", "--a", "1",
            "--grid", "-3:3:-3:3:0.02")
    EXPECTED = {"exit": 0, "result": "PASS", "valid_nodes": 37765,
                "obj_vertices": 37765, "k_err_mean_below": 1e-2,
                "metric_max_below": 1e-3}
    REPORT_FIELDS = {
        "valid_nodes": r"valid nodes: (\d+)",
        "k_err_mean": r"curvature \|K\+1\|: mean (\S+)",
        "metric_err_max": r"metric relative error: mean \S+ max (\S+)",
        "path_residual_max": r"path-independence residual max: (\S+)",
        "drift_max": r"orthonormality drift max: (\S+)",
        "result": r"result: (\w+)",
    }

    def inputs(self, seed, k):
        # the grid and solution are the README's; the seed changes nothing
        return list(self.ARGV)

    def units(self, inp):
        return 1

    def op(self, inp, workdir, tracer=None):
        argv = inp + ["--out", os.path.join(workdir, "kink.obj")]
        buf = io.StringIO()
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), argv[-1]

    def summarize(self, inp, raw):
        code, report, obj = raw
        out = {"exit": code, "report": report}
        for key, pattern in self.REPORT_FIELDS.items():
            m = re.search(pattern, report)
            out[key] = None if m is None else (
                m.group(1) if key == "result" else float(m.group(1)))
        with open(obj, "rb") as fh:
            data = fh.read()
        out["obj_vertices"] = sum(1 for line in data.splitlines()
                                  if line.startswith(b"v "))
        out["obj_sha256"] = hashlib.sha256(data).hexdigest()
        return out

    def check(self, s, expected=EXPECTED):
        bad = []
        for key in ("exit", "result", "valid_nodes", "obj_vertices"):
            if s[key] != expected[key]:
                bad.append(f"{key} {s[key]!r} != {expected[key]!r}")
        if not (s["k_err_mean"] is not None
                and s["k_err_mean"] < expected["k_err_mean_below"]):
            bad.append(f"mean |K+1| {s['k_err_mean']} not below "
                       f"{expected['k_err_mean_below']}")
        if not (s["metric_err_max"] is not None
                and s["metric_err_max"] < expected["metric_max_below"]):
            bad.append(f"metric max {s['metric_err_max']} not below "
                       f"{expected['metric_max_below']}")
        return 1, (["; ".join(bad)] if bad else [])

    def targets(self):
        def integrated(args, kwargs, field):
            return {"frame.nodes_masked": int(field.mask.sum()),
                    "frame.nodes_valid": field.count_valid()}
        return [
            (cli, "build", "catalog.build",
             lambda a, k, r: {"catalog.builds": 1}),
            (cli, "closed_form", "sff.closed_form", None),
            (SolutionGrid, "from_solution", "solutions.grid_eval", None),
            (cli, "integrate_frame", "frame.integrate", integrated),
            (cli, "validate_surface", "frame.validate", None),
            (cli, "export_mesh", "frame.export",
             lambda a, k, path: {"frame.obj_bytes": os.path.getsize(path)}),
        ]

    def layer_metrics(self, tracer, root, s):
        m = _span_sums(tracer, root)
        cli_span = next(k for k in tracer.descendants(root)
                        if tracer.spans[k].name == "cli")
        m["cli.self_s"] = tracer.self_time(cli_span)
        masked, valid = m.get("frame.nodes_masked", 0), m.get("frame.nodes_valid", 0)
        m["frame.valid_share"] = _ratio(valid, masked)
        m["frame.steps_per_s"] = _ratio(2 * (valid - 1), m.get("frame.integrate_s"))
        for key in ("k_err_mean", "metric_err_max", "path_residual_max",
                    "drift_max"):
            m["frame." + key] = s[key]
        return m


# ------------------------------------------------------------ classify-catalog


class ClassifyCatalog:
    """Every family on seeded parameter draws: build, verify_family,
    closed_form (+ verify_immersion), finite_jet_obstruction."""

    name = "classify-catalog"
    DRAWS_PER_OP = 10
    EXPECTED = {
        "sg-basic": "ZeroJetFamily", "sg-eta": "ZeroJetFamily",
        "hyp-i-qa": "ZeroJetFamily", "evo-hlzero": "UniversalFamily",
        "hyp-iii-lambda": "UniversalFamily",
        "hyp-iii-xi-tau": "UniversalFamily", "evo-hlnonzero": "Inconsistent",
        "hyp-i": "Inconsistent", "hyp-ii": "Inconsistent",
        "hyp-ii-gamma1": "Inconsistent", "hyp-iii-zero": "Inconsistent",
    }

    def __init__(self):
        self.redrawn = []  # draws replaced because they were not admissible

    def inputs(self, seed, k):
        # fresh draws for every op, so no op repeats another's input.
        # sample_params can return a draw outside its family's constraints
        # (hyp-i with Q^2/(A^2-B^2) + eta^2 near 0), which build accepts and
        # verify_family then cannot test.  Such a draw is replaced by the
        # generator's next one, and recorded.
        rng = np.random.default_rng([seed, k])
        out = []
        for _ in range(self.DRAWS_PER_OP):
            for fam in FAMILIES:
                params = catalog.sample_params(fam, rng=rng)
                while not admissible(fam, params):
                    self.redrawn.append((fam, params))
                    params = catalog.sample_params(fam, rng=rng)
                out.append((fam, params))
        return out

    def notes(self):
        lines = [f"redrawn: {fam} {params} (outside the family's constraints)"
                 for fam, params in self.redrawn]
        return sorted(set(lines))

    def units(self, inp):
        return len(inp)

    def op(self, inp, workdir, tracer=None):
        out = []
        for fam, params in inp:
            span = tracer.span("family", fam) if tracer else contextlib.nullcontext()
            with span:
                out.append(self._one(fam, params))
        return out

    @staticmethod
    def _one(fam, params):
        # an instance that raises is recorded and counted failed; the
        # batch goes on
        try:
            spec = catalog.build(fam, dict(params))
            report = forms.verify_family(spec.triple)
            try:
                form = sff.closed_form(spec)
            except sff.NoImmersion:
                form, imm = None, None
            else:
                imm = sff.verify_immersion(spec.triple, form)
            verdict = sff.finite_jet_obstruction(spec)
        except Exception as exc:
            return fam, params, describe(exc)
        return fam, params, (report, form, imm, verdict)

    def summarize(self, inp, raw):
        out = []
        for fam, params, res in raw:
            rec = {"family": fam, "params": params}
            if isinstance(res, str):
                rec["error"] = res
            else:
                report, form, imm, verdict = res
                rec.update(
                    family_ok=report.ok,
                    details=[str(v) for v in report.details.values()],
                    closed_form=(None if form is None
                                 else [to_text(e) for e in form.as_tuple()]),
                    immersion_ok=None if imm is None else imm.ok,
                    verdict=verdict.outcome.value,
                    trace=[step.line() for step in verdict.trace])
            out.append(rec)
        return out

    def check(self, s, expected=EXPECTED):
        bad = []
        for rec in s:
            fam = rec["family"]
            if "error" in rec:
                bad.append(f"{fam} {rec['params']}: raised {rec['error']}")
                continue
            why = []
            if not rec["family_ok"]:
                why.append("verify_family not ok")
            if rec["verdict"] != expected[fam]:
                why.append(f"verdict {rec['verdict']} != {expected[fam]}")
            if (rec["closed_form"] is None) != (expected[fam] == "Inconsistent"):
                why.append("closed form present/absent against the verdict")
            if rec["closed_form"] is not None and not rec["immersion_ok"]:
                why.append("verify_immersion not ok")
            if why:
                bad.append(f"{fam} {rec['params']}: " + "; ".join(why))
        return len(s), bad

    def targets(self):
        def verified(args, kwargs, r):
            status = [v.status for v in r.details.values()]
            return {"forms.zero_tests": len(status),
                    "forms.proven": status.count("proven"),
                    "forms.numeric": status.count("numeric"),
                    "expr.residual_nodes": _nodes(*r.residual_factors)}
        return [
            (catalog, "build", "catalog.build",
             lambda a, k, r: {"catalog.builds": 1}),
            (forms, "verify_family", "forms.verify_family", verified),
            (sff, "closed_form", "sff.closed_form",
             lambda a, k, r: {"expr.sff_nodes": _nodes(*r.as_tuple())}),
            (sff, "verify_immersion", "sff.verify_immersion", None),
            (sff, "finite_jet_obstruction", "sff.obstruction",
             lambda a, k, r: {"sff.trace_steps": len(r.trace)}),
        ]

    def layer_metrics(self, tracer, root, s):
        m = _span_sums(tracer, root)
        proven, numeric = m.pop("forms.proven", 0), m.pop("forms.numeric", 0)
        m["forms.proven_share"] = _ratio(proven, proven + numeric)
        return m


# ------------------------------------------------------------ march-stored


class MarchStored:
    """Goursat march of u_xt = sin u from kink data at h = 0.02 and 0.01,
    each grid written and read back as binary and as CSV."""

    name = "march-stored"
    STEPS = (0.02, 0.01)
    WINDOW = (-3.0, 3.0, -3.0, 3.0)
    EXPECTED = {"ratio": (3.4, 4.6)}

    def inputs(self, seed, k):
        # the criterion's data are fixed; the seed changes nothing
        kink = solutions.sg_kink(1.0)
        x0, _, t0, _ = self.WINDOW
        return (catalog.build(FamilyId.SG_BASIC, {}).ctx, kink,
                lambda x: kink.u(x, t0), lambda t: kink.u(x0, t))

    def units(self, inp):
        return 1

    def op(self, inp, workdir, tracer=None):
        ctx, _, phi, psi = inp
        out = []
        for h in self.STEPS:
            grid = solutions.goursat_solve(ctx, phi=phi, psi=psi,
                                           window=self.WINDOW + (h,))
            binary = os.path.join(workdir, "grid.bin")
            grid.to_binary(binary)
            from_binary = SolutionGrid.from_binary(binary)
            text = os.path.join(workdir, "grid.csv")
            grid.to_csv(text)
            from_csv = SolutionGrid.from_csv(text)
            out.append((grid, from_binary, from_csv))
        return out

    @staticmethod
    def _same(a, b):
        head = ("x0", "t0", "hx", "ht", "nx", "nt")
        return ([getattr(a, k) for k in head] == [getattr(b, k) for k in head]
                and list(a.values) == list(b.values)
                and all(a[n].tobytes() == b[n].tobytes() for n in a.values))

    def summarize(self, inp, raw):
        kink = inp[1]
        errs, digests, same = [], [], []
        for grid, from_binary, from_csv in raw:
            xx, tt = grid.mesh()
            errs.append(float(np.abs(grid["u"] - kink.u(xx, tt)).max()))
            h = hashlib.sha256()
            for name in grid.values:
                h.update(grid[name].tobytes())
            digests.append(h.hexdigest())
            same.append([self._same(grid, from_binary),
                         self._same(grid, from_csv)])
        return {"errors": errs, "ratio": errs[0] / errs[1],
                "round_trips": same, "sha256": digests}

    def check(self, s, expected=EXPECTED):
        bad = []
        for h, (binary, text) in zip(self.STEPS, s["round_trips"]):
            if not binary:
                bad.append(f"h={h}: binary round trip differs")
            if not text:
                bad.append(f"h={h}: CSV round trip differs")
        lo, hi = expected["ratio"]
        if not lo <= s["ratio"] <= hi:
            bad.append(f"error ratio {s['ratio']:.3f} outside [{lo}, {hi}]")
        return 1, (["; ".join(bad)] if bad else [])

    def targets(self):
        def cells(args, kwargs, grid):
            return {"solutions.cells": (grid.nx - 1) * (grid.nt - 1)}
        return [
            (solutions, "goursat_solve", "solutions.goursat", cells),
            (SolutionGrid, "to_binary", "solutions.bin_write", _file_bytes),
            (SolutionGrid, "from_binary", "solutions.bin_read", None),
            (SolutionGrid, "to_csv", "solutions.csv_write", _file_bytes),
            (SolutionGrid, "from_csv", "solutions.csv_read", None),
        ]

    def layer_metrics(self, tracer, root, s):
        m = _span_sums(tracer, root)
        m["solutions.goursat_cells_per_s"] = _ratio(
            m.pop("solutions.cells", 0), m.get("solutions.goursat_s"))
        m["solutions.err_ratio"] = s["ratio"]
        return m


WORKLOADS = {w.name: w for w in (ImmerseKink(), ClassifyCatalog(), MarchStored())}
