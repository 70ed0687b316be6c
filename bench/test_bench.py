"""The benchmark's own checks: its output gate, its traced run, its metrics.

Run with:  python3 -m pytest bench/test_bench.py   (about a minute; the
immerse-kink op runs twice at full size)
"""

import json
import sys

import numpy as np
import pytest

from run import ROOT, SRC, Attempt, layer_metrics
from spans import Tracer

sys.path.insert(0, str(SRC))
import pssurf.catalog  # noqa: E402
import pssurf.solutions  # noqa: E402
import workloads  # noqa: E402

# the spans each workload's traced op must record, by layer call
SPANS = {
    "immerse-kink": {"cli", "catalog.build", "sff.closed_form",
                     "solutions.grid_eval", "frame.integrate",
                     "frame.validate", "frame.export"},
    "classify-catalog": {"family", "catalog.build", "forms.verify_family",
                         "sff.closed_form", "sff.verify_immersion",
                         "sff.obstruction"},
    "march-stored": {"solutions.goursat", "solutions.bin_write",
                     "solutions.bin_read", "solutions.csv_write",
                     "solutions.csv_read"},
}


def _input(wl):
    inp = wl.inputs(7, 0)
    # one draw of every family keeps the classify op short
    return inp[:len(workloads.FAMILIES)] if wl.name == "classify-catalog" else inp


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: an untraced and a traced attempt on one input."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        inp = _input(wl)
        tracer = Tracer()
        out[name] = (Attempt(wl, inp, workdir),
                     Attempt(wl, inp, workdir, tracer), tracer)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_passes_and_traced_output_matches(runs, name):
    plain, traced, tracer = runs[name]
    assert plain.failures == [] and traced.failures == []
    assert traced.summary == plain.summary
    recorded = {tracer.spans[k].name for k in tracer.descendants(traced.root)}
    assert SPANS[name] <= recorded


def test_every_per_layer_metric_is_measured(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = {"setup.import_s", "setup.inputs_s", "trace.overhead_s"}
    for name, (plain, traced, tracer) in runs.items():
        per_op = layer_metrics(workloads.WORKLOADS[name], [traced], tracer)
        measured |= {k for k, v in per_op.items() if v[0] > 0}
    assert {m["name"] for m in spec["per_layer"]} <= measured


@pytest.mark.parametrize("name, wrong", [
    ("immerse-kink", {"valid_nodes": 37766}),
    ("immerse-kink", {"obj_vertices": 1}),
    ("classify-catalog", {"sg-eta": "Inconsistent"}),
    ("march-stored", {"ratio": (4.5, 4.6)}),
])
def test_gate_counts_a_wrong_expectation_as_failed(runs, name, wrong):
    wl = workloads.WORKLOADS[name]
    summary = runs[name][0].summary
    units, failures = wl.check(summary, dict(wl.EXPECTED, **wrong))
    # one failed unit: the single op, or the one sg-eta instance
    assert units >= 1 and len(failures) == 1, failures


def test_an_op_that_raises_counts_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("march broke")
    monkeypatch.setattr(pssurf.solutions, "goursat_solve", broken)
    wl = workloads.WORKLOADS["march-stored"]
    a = Attempt(wl, wl.inputs(7, 0), str(tmp_path))
    assert a.units == 1 and len(a.failures) == 1
    assert a.failures[0].startswith("raised RuntimeError at test_bench.py:")
    assert a.failures[0].endswith(": march broke")


# seed and op whose tenth-draw batch holds a hyp-i draw outside its family
INADMISSIBLE_AT = (1238265184, 6)


def _raw_draws(seed, k):
    rng = np.random.default_rng([seed, k])
    return [(fam, pssurf.catalog.sample_params(fam, rng=rng))
            for _ in range(workloads.ClassifyCatalog.DRAWS_PER_OP)
            for fam in workloads.FAMILIES]


def test_inadmissible_draws_are_redrawn_and_recorded():
    wl = workloads.ClassifyCatalog()
    inp = wl.inputs(*INADMISSIBLE_AT)
    assert len(inp) == wl.DRAWS_PER_OP * len(workloads.FAMILIES)
    assert all(workloads.admissible(fam, p) for fam, p in inp)
    assert [fam for fam, _ in wl.redrawn] == ["hyp-i"]
    assert len(wl.notes()) == 1 and wl.notes()[0].startswith("redrawn: hyp-i")
    # the replaced draw is one that verify_family cannot test
    fam, params = wl.redrawn[0]
    assert wl._one(fam, params)[2].startswith("EvalError at numeric.py")


@pytest.mark.xfail(strict=True, reason="catalog.sample_params can return a "
                   "hyp-i draw with Q^2/(A^2-B^2) + eta^2 near 0, which "
                   "build accepts; once the catalog rejects or avoids it, "
                   "drop this mark")
def test_sample_params_draws_are_admissible():
    draws = _raw_draws(*INADMISSIBLE_AT)
    assert all(workloads.admissible(fam, p) for fam, p in draws)
