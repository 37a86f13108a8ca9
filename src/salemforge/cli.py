"""Command-line entry point with reproducible JSON reports.

Every report embeds the run configuration; every real-valued field is a
decimal string with an explicit radius sibling.  Exit codes: 0 success,
1 validation/precondition failure (a ValueError or OSError), 2
internal-consistency failure (a RuntimeError: oracle mismatch, failed
certificate), 64 usage error.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from .coxeter import (en_from_formula, en_from_matrix, salem_factor,
                      salem_pattern)
from .mcmullen import integrality_certificate, mcmullen_data
from .mau import json_fields, load_sequence, mau_build, relation_search
from .toric import TorusElement, check_fan, fixed_points, load_fan
from .product import (SpecError, build_product_spec, product_entropy,
                      siegel_count)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64


class ConsistencyFailure(RuntimeError):
    """An internal cross-check failed; the report is attached."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _emit(report: dict, out, precision: int = 0, bound: int = 0,
          failure: Optional[str] = None) -> None:
    """Attach the run configuration to report and write it, or raise
    ConsistencyFailure carrying the report when failure names a failed
    check."""
    report["run_config"] = {"precision_bits": precision,
                            "relation_bound": bound, "output": out or "stdout"}
    if failure:
        raise ConsistencyFailure(failure, report)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


_precision_opt = click.option(
    "--precision", type=click.IntRange(min=1), default=256, show_default=True,
    envvar="SALEMFORGE_PRECISION", help="working precision in bits")
_bound_opt = click.option(
    "--bound", type=click.IntRange(min=1), default=32, show_default=True,
    help="maximum |exponent| in relation searches")
_out_opt = click.option("--out", type=click.Path(writable=True), default=None,
                        help="write the JSON report to a file")


@click.group()
def cli():
    """Salem/Coxeter polynomial machinery and Siegel-disk classification."""


# -- coxeter ------------------------------------------------------------


@cli.group()
def coxeter():
    """Coxeter characteristic polynomials and Salem factorization."""


@coxeter.command("poly")
@click.option("--n", type=int, required=True)
@_out_opt
def coxeter_poly(n, out):
    e_n = en_from_formula(n)
    _emit({"n": n, "degree": e_n.degree, "e_n": e_n.to_json()}, out)


@coxeter.command("factor")
@click.option("--n", type=int, required=True)
@_out_opt
def coxeter_factor(n, out):
    fact = salem_factor(n)
    pattern = salem_pattern(n)
    report = fact.to_json()
    report["salem_pattern"] = pattern.to_json()
    # no cyclotomic factor (salem_factor) and one root outside the
    # closed disk (pattern): Kronecker
    report["irreducible"] = pattern.passed
    _emit(report, out, failure=None if pattern.passed
          else f"Salem pattern not certified for n={n}")


@coxeter.command("oracle")
@click.option("--n", type=int, required=True)
@_out_opt
def coxeter_oracle(n, out):
    a, b = en_from_formula(n), en_from_matrix(n)
    _emit({"n": n, "match": a == b, "e_n": a.to_json()}, out,
          failure=None if a == b else f"formula/matrix mismatch at n={n}")


# -- mcmullen -----------------------------------------------------------


@cli.group()
def mcmullen():
    """Eigenvalue data and integrality certificates at Siegel points."""


@mcmullen.command("data")
@click.option("--n", type=int, required=True)
@click.option("--branch", type=click.Choice(["1", "-1"]), default="1",
              show_default=True)
@_precision_opt
@_out_opt
def mcmullen_data_cmd(n, branch, precision, out):
    data = mcmullen_data(n, precision_bits=precision,
                         branch_sign=int(branch))
    _emit(data.to_json(), out, precision)


@mcmullen.command("certificate")
@click.option("--n", type=int, required=True)
@_out_opt
def mcmullen_certificate(n, out):
    cert = integrality_certificate(n)
    _emit(cert.to_json(), out, failure=None if cert.passed
          else f"integrality certificate failed for n={n}")


# -- mau ----------------------------------------------------------------


@cli.group()
def mau():
    """Construction and audit of the unit-circle independence sequence."""


@mau.command("build")
@click.option("--length", type=int, required=True)
@_precision_opt
@_bound_opt
@_out_opt
def mau_build_cmd(length, precision, bound, out):
    seq = mau_build(length, precision_bits=precision, relation_bound=bound)
    _emit(seq.to_json(), out, precision, bound)


@mau.command("audit")
@click.argument("seq_file", type=click.Path(exists=True))
@_precision_opt
@_bound_opt
@_out_opt
def mau_audit(seq_file, precision, bound, out):
    seq = load_sequence(seq_file)
    report = relation_search(seq.arguments(), bound,
                             min(precision, seq.precision_bits)).to_json()
    report["stored_precision_bits"] = seq.precision_bits
    _emit(report, out, precision, bound,
          failure=None if report["outcome"] == "no_relation"
          else "stored sequence failed the relation audit")


# -- toric --------------------------------------------------------------


@cli.group()
def toric():
    """Fan verification and torus fixed-point linearization."""


@toric.command("check")
@click.argument("fan_file")
@_out_opt
def toric_check(fan_file, out):
    fan = load_fan(fan_file)
    cert = check_fan(fan)
    report = cert.to_json()
    report["smooth"] = all(abs(d) == 1 for d in cert.cone_dets)
    report["complete"] = not any("completeness" in f or "overlap" in f
                                 for f in cert.failures)
    report["N"] = cert.n_cones
    _emit(report, out, failure=None if cert.passed
          else "fan rejected: " + cert.failures[0])


@toric.command("fixed-points")
@click.argument("fan_file")
@click.option("--mau", "seq_file", type=click.Path(exists=True),
              required=True, help="serialized sequence supplying coordinates")
@_precision_opt
@_bound_opt
@_out_opt
def toric_fixed_points(fan_file, seq_file, precision, bound, out):
    fan = load_fan(fan_file)
    seq = load_sequence(seq_file)
    if len(seq) < fan.dim:
        raise SpecError(f"sequence has {len(seq)} entries, fan needs {fan.dim}")
    element = TorusElement.from_mau(seq, list(range(fan.dim)))
    audit = relation_search(list(element.arguments), bound,
                            min(precision, seq.precision_bits))
    pts = fixed_points(fan, element, audit, precision)
    _emit({"fan": fan.to_json(), "element": element.to_json(),
           "audit": audit.to_json(),
           "fixed_points": [p.to_json() for p in pts], "count": len(pts)},
          out, precision, bound)


# -- product ------------------------------------------------------------


def _spec_from_file(spec_file: str, precision: int):
    with open(spec_file) as fh:
        data = json.load(fh)
    seq_file, factors = json_fields(data, spec_file, mau=str, factors=list)
    seq = load_sequence(seq_file)
    descriptors = []
    for f in factors:
        kind, = json_fields(f, spec_file, type=str)
        # an unknown type is refused by build_product_spec
        keys = {"mcmullen": {"n": int}, "toric": {"fan": str}}.get(kind, {})
        descriptors.append((kind, *json_fields(f, spec_file, **keys)))
    return build_product_spec(descriptors, seq, precision)


@cli.group()
def product():
    """Fixed points, Siegel counts, and entropy of product automorphisms."""


@product.command("classify")
@click.argument("spec_file", type=click.Path(exists=True))
@_precision_opt
@_bound_opt
@_out_opt
def product_classify(spec_file, precision, bound, out):
    spec = _spec_from_file(spec_file, precision)
    count, points = siegel_count(spec, bound)
    entropy = product_entropy(spec)
    _emit({"spec": spec.to_json(),
           "fixed_points": [fp.to_json() for fp in points],
           "siegel_count": count,
           "undetermined": [list(fp.address) for fp in points
                            if fp.classification == "Undetermined"],
           "entropy": entropy.to_json()}, out, precision, bound)


@product.command("entropy")
@click.argument("spec_file", type=click.Path(exists=True))
@_precision_opt
@_out_opt
def product_entropy_cmd(spec_file, precision, out):
    spec = _spec_from_file(spec_file, precision)
    entropy = product_entropy(spec)
    _emit({"spec": spec.to_json(), "entropy": entropy.to_json()}, out,
          precision)


# -- dispatch -----------------------------------------------------------


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.UsageError as exc:
        click.echo(exc.format_message(), err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INVALID)
    except click.exceptions.Abort:   # a RuntimeError, so handled first
        sys.exit(EXIT_INVALID)
    except (ValueError, OSError, RuntimeError) as exc:
        consistency = isinstance(exc, RuntimeError)
        kind = "consistency" if consistency else "validation"
        detail = ({"report": exc.report} if isinstance(exc, ConsistencyFailure)
                  else {"type": type(exc).__name__})
        click.echo(json.dumps({"error": str(exc), "kind": kind, **detail},
                              indent=1, sort_keys=True))
        sys.exit(EXIT_INCONSISTENT if consistency else EXIT_INVALID)


if __name__ == "__main__":
    main()
