"""Regenerate the stored inputs and reference balls of the benchmark.

    python3 perfbench/make_inputs.py

Writes, under perfbench/inputs/:

- seq_mau4.json.gz      mau_build(4, 512): the surface x surface sequence
                        of product_audit and the reference for mau_build4;
- seq_19_739.json.gz    mau_seed([19, 739], 512): the surface x plane
                        sequence of product_audit;
- references.json       reference balls for the per-operation checks.

Building the two sequences takes about half a minute, which is why they
are stored instead of being rebuilt in every run's set-up.  The files
are deterministic: the same code writes the same bytes.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

from salemforge.mau import mau_build, mau_seed  # noqa: E402
from salemforge.mcmullen import mcmullen_data  # noqa: E402
from salemforge.product import build_product_spec, product_entropy  # noqa: E402

SIEGEL_NS = (13, 19, 25, 31, 37, 43)
REFERENCE_BITS = 1024 + 256   # above every precision the workloads use


def write_gz_json(path: Path, data) -> None:
    raw = (json.dumps(data, indent=1, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        with gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
            gz.write(raw)


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    seq4 = mau_build(4, precision_bits=512)
    seq_seed = mau_seed([19, 739], precision_bits=512)
    write_gz_json(INPUTS / "seq_mau4.json.gz", seq4.to_json())
    write_gz_json(INPUTS / "seq_19_739.json.gz", seq_seed.to_json())

    siegel = {}
    for n in SIEGEL_NS:
        for branch in (1, -1):
            d = mcmullen_data(n, precision_bits=REFERENCE_BITS,
                              branch_sign=branch)
            siegel[f"{n}:{branch}"] = {
                "alpha": d.alpha.to_json(), "beta": d.beta.to_json(),
                "delta": d.delta.ball.to_json(),
                "entropy": d.entropy.to_json()}

    product = {}
    for name, descriptors, seq in (
            ("surface_plane", [("mcmullen", 19), ("toric", "plane")], seq_seed),
            ("surface_surface", [("mcmullen", 739), ("mcmullen", 3259)], seq4)):
        spec = build_product_spec(descriptors, seq, 512)
        product[name] = {"entropy": product_entropy(spec, 512).to_json()}

    seq4_json = seq4.to_json()
    mau4 = {
        "entries": [{k: e[k] for k in ("value", "argument_turns")}
                    for e in seq4_json["entries"]],
        "certificates": [{k: c[k] for k in ("k", "q", "siegel_witness_theta",
                                            "nonsiegel_witness_theta")}
                         for c in seq4_json["certificates"]]}

    refs = {"reference_bits": REFERENCE_BITS, "mau_build4": mau4,
            "siegel_scan": siegel, "product_audit": product}
    with open(INPUTS / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
