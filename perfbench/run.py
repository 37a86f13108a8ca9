#!/usr/bin/env python3
"""Pipeline benchmark for salemforge.

    python3 perfbench/run.py --workload mau_build4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Load is a closed loop with one client on one thread: each operation
starts when the previous one has returned and been checked.  An
operation is a call to ``salemforge.cli.main`` with ``--out`` pointing
at a temporary file, or a direct call to ``salemforge.mau.relation_search``
where the CLI has no verb for it.

Workloads (NOTES.md says why each exists):

- mau_build4     one ``mau build --length 4 --precision 512 --bound 32``;
- siegel_scan    48 ``mcmullen data`` calls, n x precision x branch, in an
                 order shuffled by the seed;
- product_audit  two ``product classify`` calls on stored sequences and
                 16 seed-generated relation searches, shuffled by the seed.

A pass runs a workload's operations once, in a fresh interpreter, so no
state carries over from one pass to the next.  A run makes passes until
``--seconds`` have gone into timed operations, and at least
MIN_PASSES.
Every time is corrected for the machine's speed (speed.py).  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics:

- setup_s      median over SETUP_SAMPLES fresh interpreters of the time
               from spawning one until its inputs are ready (importing
               salemforge, generating or loading the workload's inputs);
- wall_s       median over passes of the time of a pass's operations;
- op_p50_s     median over operations of an operation's median time;
- ok_frac      operations that returned and passed their checks, over
               operations attempted;
- peak_rss_mb  the largest peak resident memory of a pass's interpreter.

With ``--trace 1`` the run adds one traced pass (tracer.py) and reports
the per-layer metrics and the tracing overhead instead.  Every
operation's output is checked ball against ball (checks.py); a failed
check counts as a failed operation.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import monotonic
from typing import Callable

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

WORKLOADS = ("mau_build4", "siegel_scan", "product_audit")
# Passes a run makes at least.  The mid-sized LLL operations that set
# op_p50_s on product_audit are corrected for machine speed less well
# than the rest (NOTES.md), so that workload takes the median of two.
MIN_PASSES = {"mau_build4": 1, "siegel_scan": 1, "product_audit": 2}
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170
SIEGEL_NS = (13, 19, 25, 31, 37, 43)
SIEGEL_PRECISIONS = (128, 256, 512, 1024)
RELATION_DIMS = (2, 3, 4, 5)
RELATION_REPEATS = 2         # tuples per (dimension, planted or free)
RELATION_BITS = 256          # search precision of the relation tuples
RELATION_GEN_BITS = 320      # precision the tuples are generated at
RELATION_MAX_EXP = 20        # |m_i| of a planted relation
RELATION_BOUND = 32


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program, or a pass that failed."""


def import_program():
    """Import salemforge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "salemforge" / "__init__.py").is_file():
        raise BenchError(f"no salemforge package under {src}")
    sys.path.insert(0, str(src))
    import salemforge.cli
    where = Path(salemforge.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise BenchError(f"salemforge imported from {where}, not from {src}")


@dataclass
class Op:
    """One timed operation: `call` is timed, `check` runs afterwards."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def _cli_call(argv: list[str], out: Path) -> Callable[[], object]:
    def call():
        main = sys.modules["salemforge.cli"].main   # the traced binding
        try:
            main(argv + ["--out", str(out)])
        except SystemExit as exc:
            raise RuntimeError(f"exit code {exc.code}") from None
        return out
    return call


def _read_report(check: Callable[[dict], list]) -> Callable[[Path], list]:
    def read_and_check(out: Path) -> list:
        with open(out) as fh:
            report = json.load(fh)
        out.unlink()
        return check(report)
    return read_and_check


def relation_tuples(seed: int):
    """(arguments, planted exponents or None) for each relation search.

    Arguments are RealBalls with a radius at the generation precision;
    bare mpf values would be rounded to 53 bits (see NOTES.md).
    """
    import mpmath as mp
    from salemforge.roots import RealBall
    rng = random.Random(seed)
    out = []
    with mp.workprec(RELATION_GEN_BITS + 32):
        scale = mp.mpf(2) ** RELATION_GEN_BITS
        rad = mp.mpf(2) ** (-RELATION_GEN_BITS + 8)
        for dim, planted, _ in itertools.product(
                RELATION_DIMS, (True, False), range(RELATION_REPEATS)):
            thetas = [rng.getrandbits(RELATION_GEN_BITS) / scale
                      for _ in range(dim)]
            m = None
            if planted:
                m = [0] * dim
                while not (m[-1] and any(m[:-1])):
                    m = [rng.randint(-RELATION_MAX_EXP, RELATION_MAX_EXP)
                         for _ in range(dim)]
                s = mp.fsum(mi * t for mi, t in zip(m, thetas[:-1]))
                last = (rng.randrange(abs(m[-1])) - s) / m[-1]
                thetas[-1] = last - mp.floor(last)
            out.append(([RealBall(t, rad) for t in thetas], m))
    return out


def build_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """The workload's operations, with their inputs written under `work`."""
    import checks
    rng = random.Random(seed)
    ops: list[Op] = []
    if workload == "mau_build4":
        ops.append(Op("mau build --length 4",
                      _cli_call(["mau", "build", "--length", "4",
                                 "--precision", "512", "--bound", "32"],
                                work / "mau4.json"),
                      _read_report(checks.check_mau_build4)))
    elif workload == "siegel_scan":
        for n in SIEGEL_NS:
            for prec in SIEGEL_PRECISIONS:
                for branch in (1, -1):
                    out = work / f"mcm_{n}_{prec}_{branch}.json"
                    ops.append(Op(
                        f"mcmullen data --n {n} --precision {prec} "
                        f"--branch {branch}",
                        _cli_call(["mcmullen", "data", "--n", str(n),
                                   "--precision", str(prec),
                                   "--branch", str(branch)], out),
                        _read_report(checks.siegel_checker(n, branch))))
        rng.shuffle(ops)
    elif workload == "product_audit":
        seqs = {}
        for name in ("seq_19_739", "seq_mau4"):
            seqs[name] = work / f"{name}.json"
            with gzip.open(INPUTS / f"{name}.json.gz") as src, \
                    open(seqs[name], "wb") as dst:
                shutil.copyfileobj(src, dst)
        specs = (
            ("surface_plane", "seq_19_739",
             [{"type": "mcmullen", "n": 19}, {"type": "toric", "fan": "plane"}]),
            ("surface_surface", "seq_mau4",
             [{"type": "mcmullen", "n": 739}, {"type": "mcmullen", "n": 3259}]),
        )
        for name, seq, factors in specs:
            spec = work / f"{name}.spec.json"
            spec.write_text(json.dumps({"factors": factors,
                                        "mau": str(seqs[seq])}))
            ops.append(Op(f"product classify {name}",
                          _cli_call(["product", "classify", str(spec),
                                     "--precision", "512"],
                                    work / f"{name}.out.json"),
                          _read_report(checks.product_checker(name))))
        for args, planted in relation_tuples(seed):
            kind = "planted" if planted else "free"

            def call(args=args):
                search = sys.modules["salemforge.mau"].relation_search
                return search(args, RELATION_BOUND, RELATION_BITS)
            ops.append(Op(f"relation_search dim={len(args)} {kind}", call,
                          checks.relation_checker(planted)))
        rng.shuffle(ops)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return ops


def run_pass(ops: list[Op], probe: speed.SpeedProbe) -> dict:
    """Run each operation once, timing the call and checking its output."""
    seconds, corrected, failures, failed = [], [], [], 0
    for op in ops:
        mark = probe.start()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an operation that raises has failed
            result, error = None, exc
        own, fair = probe.stop(mark)
        seconds.append(own)
        corrected.append(fair)
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        failures.extend(f"{op.label}: {p}" for p in problems)
        failed += bool(problems)
    return {"seconds": seconds, "latencies": corrected,
            "failures": failures, "failed": failed}


def pass_process(args) -> None:
    """Body of one fresh interpreter: set up, run one pass, print a record."""
    warmup_s = speed.sample()       # the kernel's first call runs cold
    work = None
    with speed.SpeedProbe() as probe:
        probe.take()
        try:
            import_program()
            work = Path(tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT))
            ops = build_ops(args.workload, args.seed, work)
            setup_s = (monotonic() - args.spawned_at - warmup_s
                       - probe.kernel_s)
            probe.take()
            record = {"setup_s": setup_s, "setup_samples": list(probe.samples)}
            if not args.setup_only:
                if args.trace:
                    from tracer import Tracer
                    with Tracer() as tracer:
                        record.update(run_pass(ops, probe))
                    record["trace"] = tracer.summary()
                    record["untraced"] = tracer.missing
                else:
                    record.update(run_pass(ops, probe))
        finally:
            if work is not None:
                shutil.rmtree(work, ignore_errors=True)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["peak_rss_mb"] = rss_kib / 1024
    print(json.dumps(record))


def spawn(args, *, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one pass (or only its set-up) in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = speed.sample()
    cmd += ["--spawned-at", repr(monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass process exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] *= speed.factor([before] + record["setup_samples"])
    return record


def per_layer_metrics(summary: dict, wall_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of a traced pass whose corrected wall is wall_s.

    Span times are scaled by the pass's speed correction, so that they
    add up to wall_s; the probe's samples inside spans scale out with it.
    """
    calls, counts = summary["calls"], summary["counts"]
    scale = wall_s / summary["root_seconds"] if summary["root_seconds"] else 0
    secs = {k: v * scale for k, v in summary["seconds"].items()}
    out = {f"{layer}.self_s": (v * scale, "s")
           for layer, v in summary["self_seconds"].items()}

    def timed(name, with_calls=False):
        out[f"{name}.s"] = (secs.get(name, 0.0), "s")
        if with_calls:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")

    for name in ("cli.emit", "polyring.cyclotomic", "coxeter.en_from_formula",
                 "coxeter.salem_trace", "roots.circle_root_arguments",
                 "mcmullen.mcmullen_data", "mcmullen.scan_siegel_roots",
                 "mcmullen.find_witness_roots", "mau.mau_extend",
                 "mau.is_prime", "mau.lll_reduce", "toric.fixed_points",
                 "toric.check_fan", "product.siegel_count",
                 "product.product_entropy"):
        timed(name)
    for name in ("polyring.divmod", "polyring.mul", "coxeter.salem_factor",
                 "roots.salem_eta", "roots.horner",
                 "mcmullen.integrality_certificate", "mau.relation_search"):
        timed(name, with_calls=True)
    for name in ("coxeter.en_from_matrix", "roots.isolate_roots",
                 "mcmullen.refine", "mau.gram_schmidt", "product.classify"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    refines = calls.get("mcmullen.refine", 0)
    out["mcmullen.refine.accept_ratio"] = (
        counts.get("mcmullen.refine.accepted", 0) / refines if refines else 0.0,
        "ratio")
    for name, unit in (("cli.report_bytes", "bytes"),
                       ("roots.horner.terms", "count"),
                       ("mau.relation_search.no_relation", "count"),
                       ("mau.relation_search.candidate", "count"),
                       ("mau.relation_search.precision_too_low", "count"),
                       ("product.undetermined", "count")):
        out[name] = (counts.get(name, 0), unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def describe(label: str, values: list[float]) -> str:
    deciles = statistics.quantiles(values, n=10) if len(values) > 1 else values
    return (f"{label}: n={len(values)} p50={statistics.median(values):.4f}s "
            f"p90={deciles[-1]:.4f}s max={max(values):.4f}s")


def run(args) -> dict:
    """Spawn the passes of one run and reduce them to the result object."""
    if not (ROOT / "src" / "salemforge" / "__init__.py").is_file():
        raise BenchError(f"no salemforge package under {ROOT / 'src'}")
    speed.sample()          # the first call of the kernel runs cold
    passes = []
    while (len(passes) < MIN_PASSES[args.workload]
           or sum(sum(p["seconds"]) for p in passes) < args.seconds):
        passes.append(spawn(args))
    per_op = [statistics.median(lat)
              for lat in zip(*(p["latencies"] for p in passes))]
    walls = [sum(p["latencies"]) for p in passes]
    traced = spawn(args, trace=1) if args.trace else None
    done = passes + ([traced] if traced else [])
    attempted = sum(len(p["latencies"]) for p in done)
    failed = sum(p["failed"] for p in done)

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"ops/pass={len(per_op)} attempted={attempted} failed={failed}")
    print("pass walls: " + " ".join(f"{sum(p['seconds']):.4f}s" for p in passes)
          + ", corrected for machine speed: "
          + " ".join(f"{w:.4f}s" for w in walls))
    print(describe("op latency (corrected)", per_op))
    for f in (f for p in done for f in p["failures"]):
        print(f"FAILED {f}")

    if traced:
        for name in traced["untraced"]:
            print(f"warning: {name} not found; its metrics read 0",
                  file=sys.stderr)
        traced_wall = sum(traced["latencies"])
        metrics = per_layer_metrics(traced["trace"], traced_wall,
                                    traced_wall - statistics.median(walls))
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, setup_only=True)["setup_s"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(per_op), "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh interpreter that runs one pass
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.spawned_at is not None:
        pass_process(args)
    else:
        print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
