"""Tests of the benchmark itself:  python3 -m pytest perfbench

The layer test runs one traced pass of every workload (about a minute),
so that a probe that misses a binding cannot read as zero unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

run.import_program()
from salemforge import cli, mau, mcmullen, polyring, product, roots  # noqa: E402

# Layers that must record spans on each workload; the others must not.
EXPECTED_LAYERS = {
    "mau_build4": {"cli", "polyring", "coxeter", "roots", "mcmullen", "mau"},
    "siegel_scan": {"cli", "polyring", "coxeter", "roots", "mcmullen"},
    "product_audit": set(LAYERS),
}


def test_install_patches_every_binding_and_uninstall_restores():
    original_eta = roots.salem_eta
    original_search = mau.relation_search
    original_mul = polyring.IntPoly.__mul__
    with Tracer() as tracer:
        assert not tracer.missing
        for mod in (roots, mcmullen, product):
            assert mod.salem_eta is not original_eta
            assert mod.salem_eta.__wrapped__ is original_eta
        for mod in (mau, product, cli):
            assert mod.relation_search.__wrapped__ is original_search
        assert polyring.IntPoly.__mul__.__wrapped__ is original_mul
        assert polyring.IntPoly.__rmul__.__wrapped__ is original_mul
        p = polyring.poly(1, 1)
        assert 3 * p == p * 3
    assert tracer.summary()["calls"]["polyring.mul"] == 2
    assert roots.salem_eta is mcmullen.salem_eta is original_eta
    assert product.relation_search is original_search
    assert polyring.IntPoly.__rmul__ is original_mul


def test_summary_self_time_adds_up_to_root_spans():
    with Tracer() as tracer:
        mcmullen.mcmullen_data(19, precision_bits=128)
    summary = tracer.summary()
    roots_ns = sum(end - start for _, start, end, parent, _ in tracer.spans
                   if parent == -1)
    assert summary["root_seconds"] == pytest.approx(roots_ns / 1e9)
    assert sum(summary["self_seconds"].values()) == pytest.approx(
        summary["root_seconds"])
    assert summary["calls"]["mcmullen.mcmullen_data"] == 1
    assert summary["counts"]["roots.horner.terms"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_records_the_expected_layers(workload):
    args = argparse.Namespace(workload=workload, seed=3)
    record = run.spawn(args, trace=1)
    assert record["failed"] == 0, record["failures"]
    assert not record["untraced"]
    summary = record["trace"]
    busy = {layer for layer, s in summary["self_seconds"].items() if s > 0}
    assert busy == EXPECTED_LAYERS[workload]
    calls = summary["calls"]
    assert calls.get("coxeter.en_from_matrix", 0) == 0
    assert calls.get("roots.isolate_roots", 0) == 0
    if workload == "siegel_scan":
        assert calls.get("mau.relation_search", 0) == 0
    if workload != "mau_build4":
        assert calls.get("coxeter.salem_trace", 0) == 0
    metrics = run.per_layer_metrics(summary, 1.0, 0.0)
    names = {m["name"] for m in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())
             ["per_layer"]}
    assert set(metrics) == names


def _siegel_report(n=19, branch=1):
    ref = checks.references()["siegel_scan"][f"{n}:{branch}"]
    return {"n": n, "branch_sign": branch, "siegel_root": True,
            "alpha": ref["alpha"], "beta": ref["beta"],
            "entropy": ref["entropy"], "delta": {"delta": ref["delta"]}}


def test_siegel_check_accepts_reference_and_rejects_perturbations():
    check = checks.siegel_checker(19, 1)
    assert check(_siegel_report()) == []
    moved = _siegel_report()
    moved["alpha"] = dict(moved["alpha"], re=moved["alpha"]["re"][:-40])
    assert any("alpha" in p for p in check(moved))
    wide = _siegel_report()
    wide["entropy"] = dict(wide["entropy"], radius="1e-20")
    assert any("radius" in p for p in check(wide))


def test_entropy_checked_against_independent_closed_form():
    log_eta, _ = checks.closed_form_log_eta(19)
    assert abs(float(log_eta) - 0.2762652764710511) < 1e-15
    other = _siegel_report(25)["entropy"]
    assert checks.check_entropy(19, other)


def test_relation_checker():
    class Result:
        def __init__(self, outcome, exponents=None):
            self.outcome, self.exponents = outcome, exponents

    planted = checks.relation_checker([6, -8, -11])
    assert planted(Result("candidate", (-6, 8, 11))) == []
    assert planted(Result("candidate", (6, -8, 10)))
    assert planted(Result("no_relation"))
    free = checks.relation_checker(None)
    assert free(Result("no_relation")) == []
    assert free(Result("candidate", (1, 1)))


def test_mau_check_rejects_wrong_certificate():
    refs = checks.references()["mau_build4"]
    report = {"certificates": [dict(c, deg_r=c["q"], deg_phi=360 * c["k"] + 14)
                               for c in refs["certificates"]],
              "relation_audit": {"outcome": "no_relation"},
              "entries": refs["entries"]}
    assert checks.check_mau_build4(report) == []
    bad = copy.deepcopy(report)
    bad["certificates"][1]["deg_r"] = 1626
    assert checks.check_mau_build4(bad)


def test_relation_tuples_are_seeded_and_planted():
    import mpmath as mp
    a, b = run.relation_tuples(5), run.relation_tuples(5)
    assert [m for _, m in a] == [m for _, m in b]
    assert [x.mid for x in a[0][0]] == [x.mid for x in b[0][0]]
    assert run.relation_tuples(6)[0][1] != a[0][1] or \
        run.relation_tuples(6)[0][0][0].mid != a[0][0][0].mid
    for args, m in a:
        assert all(x.rad < mp.mpf(2) ** -run.RELATION_BITS for x in args)
        if m:
            with mp.workprec(400):
                s = mp.fsum(mi * x.mid for mi, x in zip(m, args))
                assert abs(s - mp.nint(s)) < mp.mpf(2) ** -300


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "siegel_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
