"""Record the expected verdicts of the cylinder-search workload.

    python3 bench/record_cylinders.py --commit <hash> > bench/cylinder_verdicts.json

The verdicts come from ``search_cylinder_tuple`` of the program at that
commit, so the file is a regression reference, not an independent one: a
later change that alters a verdict shows up as a failed request, and which
of the two is right must then be settled by other means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from resflat import QQi, StratumSignature, search_cylinder_tuple  # noqa: E402

from generate import CYLINDER_TEMPLATE  # noqa: E402


def _profiles(t: int):
    """Collinear integer profiles from {1, 2, 3}, plus the profile (1, i, ..., i)."""
    for prof in itertools.combinations_with_replacement((3, 2, 1), t):
        g = 0
        for m in prof:
            g = gcd(g, m)
        if g == 1:
            yield tuple((m, 0) for m in prof)
    yield ((1, 0),) + ((0, 1),) * (t - 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the verdicts are recorded at")
    args = parser.parse_args()
    strata = sorted({(g, zeros, t) for (g, zeros, t, _), _ in CYLINDER_TEMPLATE})
    cases = []
    for genus, zeros, t in strata:
        sig = StratumSignature(genus, zeros)
        for circ in _profiles(t):
            verdict = search_cylinder_tuple(sig, tuple(QQi(re, im) for re, im in circ))
            cases.append(
                {
                    "genus": genus,
                    "zeros": list(zeros),
                    "circumferences": [list(c) for c in circ],
                    "realizable": verdict.realizable,
                }
            )
    doc = {
        "note": (
            "Expected cylinder-search verdicts, recorded from search_cylinder_tuple "
            "at the commit below. A regression reference, not an independent one."
        ),
        "commit": args.commit,
        "cases": cases,
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
