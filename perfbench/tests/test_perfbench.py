"""Tests of the benchmark itself: inputs, checks, tracing arithmetic, patching."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from isoshift.errors import InternalInconsistencyError
from tracing import LAYERS, Tracer, in_layer_times, self_times

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    ops = workloads.generate(name, 7, 3)
    assert ops == workloads.generate(name, 7, 3)
    assert ops != workloads.generate(name, 8, 3)
    assert len(ops) >= 3 * len(workloads._strata(name))


def test_blocks_keep_strata_and_mix_lattice_draws():
    ops = workloads.generate("certify_ro", 3, workloads.min_blocks("certify_ro"))
    assert len(ops) >= workloads.MIN_OPS
    cells = {(op.branch, op.m) for op in ops}
    assert cells == {(k, m) for k in (1, 2, 3) for m in range(4)}
    on_lattice = [op.p * 2 == int(op.p * 2) and op.q * 2 == int(op.q * 2) for op in ops]
    assert 0.4 <= np.mean(on_lattice) <= 0.6


def test_dpt_stream_keeps_the_defect_cells_in_the_probe():
    stream = workloads.generate("certify_dpt", 11, workloads.min_blocks("certify_dpt"))
    assert len(stream) >= workloads.MIN_OPS
    assert not {(op.branch, op.m) for op in stream} & set(workloads.DPT_DEFECT_CELLS)
    probe = workloads.defect_probe(11)
    assert probe == workloads.defect_probe(11)
    assert [(op.p, op.q, op.branch, op.m) for op in probe[:3]] == list(workloads.DPT_REGRESSIONS)
    assert [(op.branch, op.m) for op in probe[3:]] == workloads.DPT_DEFECT_CELLS


def _certify(op):
    raw = workloads.execute(op)
    assert raw.exc is None and raw.rc == 0, raw.stderr
    return raw


def test_checker_accepts_a_true_certify_result_and_rejects_doctored_ones():
    op = workloads.CertifyOp("trig_dpt", 1.0, 2.0, 2, 1)
    raw = _certify(op)
    assert workloads.judge(op, raw).kind == "ok"
    for key in ("shift", "isospectral"):
        report = json.loads(raw.stdout)
        cell = report["cells"][0]
        if key == "shift":
            cell["shift"] += 1e-3
        else:
            # top level 121, so the FD tolerance is 1.21e-2
            cell["isospectrality"]["shift"] += 2e-2
        doctored = workloads.Raw(rc=0, stdout=json.dumps(report))
        outcome = workloads.judge(op, doctored)
        assert outcome.kind == "check", key


def test_checker_rejects_a_doctored_eigenfunction_result():
    op = workloads.EigenOp(1.0, 1.0, "L1", 1, 2)
    good = workloads.Raw(energy=op.energy(), psi_finite=True, residual=1e-12)
    assert workloads.judge(op, good).kind == "ok"
    for bad in (
        workloads.Raw(energy=op.energy(), psi_finite=True, residual=2e-6),
        workloads.Raw(energy=op.energy() + 1e-3, psi_finite=True, residual=1e-12),
        workloads.Raw(energy=op.energy(), psi_finite=False, residual=1e-12),
    ):
        assert workloads.judge(op, bad).kind == "check"


def test_failure_taxonomy():
    op = workloads.CertifyOp("trig_dpt", 1.0, 2.0, 4, 3)
    with pytest.raises(ValueError) as info:
        importlib.import_module("isoshift.polyengine").real_zeros(None, (1.0, 0.0))
    crash = workloads.judge(op, workloads.Raw(exc=info.value))
    assert (crash.kind, crash.layer) == ("crash", "polyengine")
    error = workloads.judge(op, workloads.Raw(exc=InternalInconsistencyError("x")))
    assert error.kind == "error"
    report = {"cells": [], "failures": ["branch 4 m=3: riccati residual 1.781e-07"]}
    cert = workloads.judge(op, workloads.Raw(rc=1, stdout=json.dumps(report)))
    assert (cert.kind, cert.layer) == ("cert", "deform")
    caught = workloads.judge(op, workloads.Raw(rc=1, stderr="certification error: x"))
    assert caught.kind == "error"
    assert all(o.failed for o in (crash, error, cert, caught))


def test_self_time_arithmetic_on_a_nested_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9] -> d [6, 8]
    parent = np.array([-1, 0, 1, 0, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 8.0])
    own = self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 2.0, 2.0])
    assert own.sum() == pytest.approx(end[0] - start[0])
    # names: 0 root, 1 a, 2 b, 3 c, 4 d; layers: root 0, a 1, b 2, c 1, d 1
    name = np.arange(5)
    layer = np.array([0, 1, 2, 1, 1])
    # b is another layer and stays out of a; d is c's own layer and counts
    np.testing.assert_allclose(in_layer_times(parent, name, layer, own, 5),
                               [3.0, 2.0, 1.0, 4.0, 2.0])


def _namespaces():
    pkg = importlib.import_module("isoshift")
    mods = [pkg] + [importlib.import_module(f"isoshift.{layer}") for layer in LAYERS]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def _traced_pass(ops):
    tracer = Tracer()
    with tracer:
        assert getattr(importlib.import_module("isoshift.deform").seed_polynomial,
                       "__perfbench_wrapped__", False)
        records = run.run_ops(ops, tracer)
    return tracer, records


def test_tracer_restores_every_patched_attribute():
    before = _namespaces()
    ops = workloads.generate("certify_dpt", 5, 1)[:6]
    tracer, _ = _traced_pass(ops)
    assert len(tracer.name) > 0
    after = _namespaces()
    assert before.keys() == after.keys()
    for mod, names in before.items():
        for attr, value in names.items():
            assert after[mod][attr] is value, f"{mod}.{attr} not restored"
            assert not getattr(value, "__perfbench_wrapped__", False)


def test_traced_counters_repeat_exactly_for_a_seed():
    ops = workloads.generate("eigen_tables", 2, 1)[:4]
    first, rec1 = _traced_pass(ops)
    second, rec2 = _traced_pass(ops)
    assert first.counts == second.counts
    assert list(first.name) == list(second.name) and first.names == second.names
    assert first.seed_keys == second.seed_keys
    assert [o.kind for _, _, o in rec1] == [o.kind for _, _, o in rec2]


def test_runner_computes_every_metric_benchmark_json_lists():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    ops = workloads.generate("certify_dpt", 4, 1)[:5]
    untraced = run.run_ops(ops)
    assert set(run.end_to_end(untraced, 1.0)) == {m["name"] for m in spec["end_to_end"]}
    tracer, records = _traced_pass(ops)
    layer = run.per_layer(tracer, records, sum(dt for _, dt, _ in untraced))
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
