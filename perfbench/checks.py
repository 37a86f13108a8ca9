"""Per-operation correctness checks: ball against ball, never bytes.

Radii may shrink or grow honestly from one version of the program to the
next, so a reported ball passes when it overlaps the stored reference
ball (inputs/references.json, written by make_inputs.py at a precision
above every workload's) and its radius is below 2^-100.  The entropy of
each McMullen source is also checked against the real root > 1 of the
closed form E_n(x)(x - 1) = x^(n-2)(x^3 - x - 1) + (x^3 + x^2 - 1),
computed here with mpmath alone.  Each check returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import mpmath as mp

REFERENCES = Path(__file__).resolve().parent / "inputs" / "references.json"
CHECK_BITS = 4500            # enough for every stored decimal digit
MAX_RADIUS_LOG2 = -100
MAU4_CERTIFICATES = ((2, 367), (9, 1627))     # (k, q) of mau_build(4)
PRODUCT_SIEGEL_COUNTS = {"surface_plane": 3, "surface_surface": 1}


@functools.lru_cache(maxsize=None)
def references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _ball(data: dict):
    """(mid, radius) of a serialized real or complex ball."""
    if "mid" in data:
        mid = mp.mpf(data["mid"])
    else:
        mid = mp.mpc(mp.mpf(data["re"]), mp.mpf(data["im"]))
    return mid, mp.mpf(data["radius"])


def _overlaps(a, b) -> bool:
    return abs(a[0] - b[0]) <= a[1] + b[1]


def compare(label: str, reported: dict, reference: dict) -> list[str]:
    """Problems with one reported ball against its reference ball."""
    with mp.workprec(CHECK_BITS):
        got, ref = _ball(reported), _ball(reference)
        problems = []
        if not got[1] < mp.mpf(2) ** MAX_RADIUS_LOG2:
            problems.append(f"{label} radius {mp.nstr(got[1], 5)} "
                            f"is not below 2^{MAX_RADIUS_LOG2}")
        if not _overlaps(got, ref):
            problems.append(f"{label} misses its reference ball by "
                            f"{mp.nstr(abs(got[0] - ref[0]), 5)}")
        return problems


@functools.lru_cache(maxsize=None)
def closed_form_log_eta(n: int):
    """(log eta, radius) for the Salem number eta of E_n, independently.

    eta is the only root > 1 of f(x) = x^(n-2)(x^3 - x - 1) + x^3 + x^2 - 1;
    it is refined by mpmath and certified by a sign change of f.
    """
    with mp.workprec(CHECK_BITS):
        def f(x):
            return x ** (n - 2) * (x ** 3 - x - 1) + x ** 3 + x ** 2 - 1
        eta = mp.findroot(f, (mp.mpf("1.1"), mp.mpf("1.33")),
                          solver="anderson")
        eps = mp.mpf(2) ** (-CHECK_BITS // 2)
        if not f(eta - eps) < 0 < f(eta + eps):
            raise ArithmeticError(f"closed-form root for n={n} not bracketed")
        return mp.log(eta), eps


def check_entropy(n: int, reported: dict) -> list[str]:
    with mp.workprec(CHECK_BITS):
        if not _overlaps(_ball(reported), closed_form_log_eta(n)):
            return [f"entropy for n={n} misses log of the closed-form "
                    f"Salem number"]
    return []


def check_alpha_beta_is_delta(report: dict) -> list[str]:
    """alpha * beta must overlap delta (ball product with its radius)."""
    with mp.workprec(CHECK_BITS):
        (a, ra), (b, rb) = _ball(report["alpha"]), _ball(report["beta"])
        d, rd = _ball(report["delta"]["delta"])
        rad = abs(a) * rb + abs(b) * ra + ra * rb
        rad += mp.mpf(2) ** (-CHECK_BITS + 8)
        if abs(a * b - d) > rad + rd:
            return ["alpha * beta does not overlap delta"]
    return []


def check_mau_build4(report: dict) -> list[str]:
    refs = references()["mau_build4"]
    problems = []
    certs = report["certificates"]
    got = tuple((c["k"], c["q"]) for c in certs)
    if got != MAU4_CERTIFICATES:
        problems.append(f"certificates (k, q) = {got}, "
                        f"expected {MAU4_CERTIFICATES}")
    for c, ref in zip(certs, refs["certificates"]):
        if c["deg_r"] != c["q"]:
            problems.append(f"k={c['k']}: deg_r = {c['deg_r']} != q")
        if c["deg_phi"] != 360 * c["k"] + 14:
            problems.append(f"k={c['k']}: deg_phi = {c['deg_phi']} "
                            f"!= 360k + 14")
        for key in ("siegel_witness_theta", "nonsiegel_witness_theta"):
            problems += compare(f"k={c['k']} {key}", c[key], ref[key])
    outcome = (report.get("relation_audit") or {}).get("outcome")
    if outcome != "no_relation":
        problems.append(f"relation audit outcome {outcome!r}")
    entries = report["entries"]
    if len(entries) != len(refs["entries"]):
        problems.append(f"{len(entries)} entries, "
                        f"expected {len(refs['entries'])}")
    for i, (e, ref) in enumerate(zip(entries, refs["entries"])):
        for key in ("value", "argument_turns"):
            problems += compare(f"entry {i} {key}", e[key], ref[key])
    return problems


def siegel_checker(n: int, branch: int):
    def check(report: dict) -> list[str]:
        ref = references()["siegel_scan"][f"{n}:{branch}"]
        problems = []
        if (report["n"], report["branch_sign"]) != (n, branch):
            problems.append("report is for another (n, branch)")
        if report["siegel_root"] is not True:
            problems.append("delta is not reported as a Siegel root")
        for key in ("alpha", "beta", "entropy"):
            problems += compare(key, report[key], ref[key])
        problems += compare("delta", report["delta"]["delta"], ref["delta"])
        problems += check_alpha_beta_is_delta(report)
        problems += check_entropy(n, report["entropy"])
        return problems
    return check


def product_checker(name: str):
    def check(report: dict) -> list[str]:
        ref = references()["product_audit"][name]
        problems = []
        expected = PRODUCT_SIEGEL_COUNTS[name]
        if report["siegel_count"] != expected:
            problems.append(f"siegel_count {report['siegel_count']}, "
                            f"expected {expected}")
        undetermined = [fp["address"] for fp in report["fixed_points"]
                        if fp["classification"] == "Undetermined"]
        if undetermined or report["undetermined"]:
            problems.append(f"Undetermined fixed points {undetermined}")
        problems += compare("entropy", report["entropy"], ref["entropy"])
        return problems
    return check


def relation_checker(planted):
    """A planted tuple must yield a multiple of its relation; a free one none."""
    def check(result) -> list[str]:
        if planted is None:
            if result.outcome != "no_relation":
                return [f"free tuple gave {result.outcome} "
                        f"{result.exponents}"]
            return []
        if result.outcome != "candidate":
            return [f"planted relation {planted} gave {result.outcome}"]
        e = result.exponents
        if not any(e) or any(e[i] * planted[j] != e[j] * planted[i]
                             for i in range(len(e)) for j in range(len(e))):
            return [f"exponents {e} not proportional to planted {planted}"]
        return []
    return check
