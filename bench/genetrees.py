"""Seeded synthetic gene trees for the ``gene-trees`` workload.

A synthetic stand-in for the shape of the apicomplexa sample (8 taxa, gene
trees whose root-to-leaf paths differ in length); it is not that data.  It
takes the equidistant trees written by ``troppca gen`` and multiplies every
branch length by an independent lognormal factor, which makes each tree
non-equidistant while keeping its topology.  The output goes to the
benchmark's own work directory, never to ``data/``.
"""

from __future__ import annotations

import random
import re

# one Newick branch length: ':' followed by a float literal
_LENGTH = re.compile(r":([0-9.eE+-]+)")

SIGMA = 0.3  # log-scale spread of the per-branch factor


def perturb_newick(src, dst, seed: int) -> int:
    """Write the trees of src to dst with every branch scaled by lognormal(0, SIGMA).

    Same (src, seed) gives a byte-identical dst.  Returns the tree count.
    """
    rng = random.Random(seed)

    def scale(match: re.Match) -> str:
        return f":{float(match.group(1)) * rng.lognormvariate(0.0, SIGMA):.12g}"

    count = 0
    with open(src, "r", encoding="utf-8") as fin, open(dst, "w", encoding="utf-8", newline="\n") as fout:
        fout.write(
            f"# synthetic gene trees (apicomplexa-shaped stand-in, not real data):"
            f" troppca gen output, branches x lognormal(0, {SIGMA}), seed={seed}\n"
        )
        for line in fin:
            if not line.strip() or line.startswith("#"):
                continue
            fout.write(_LENGTH.sub(scale, line))
            count += 1
    return count
