"""Print the reference values the checks compute without ghwkit, for one
workload and seed.

    python3 perfbench/reference.py --workload search-gf2 --seed 1

search-gf2: d_1 by enumerating all codewords, d_2 from pairwise ORs of
codeword support masks and d_3 by bitmask enumeration of 3-dimensional
subcodes.  spectra-gf4: the higher and relative spectra by the subset-rank
identity.  They take well under a second, so every benchmark run computes
them afresh for its own seed and nothing is stored.
"""

from __future__ import annotations

import argparse
import json

import checks
import inputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("search-gf2", "spectra-gf4"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    codes = [inputs.parse_text(t) for t in inputs.build(args.workload, args.seed)["codes"]]
    if args.workload == "search-gf2":
        field, G = codes[0]
        out = {"d1": checks.min_weight(field, G), "d2": checks.d2_binary(G), "d3": checks.d3_binary(G)}
    else:
        (field, G), (_, G1), (_, G2) = codes
        out = {
            "spectrum": checks.spectrum_by_subset_ranks(field, G),
            "relative_spectrum": checks.spectrum_by_subset_ranks(field, G1, G2),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
