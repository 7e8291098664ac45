"""Pinned digests of sweeps and scans on inputs larger than Tier-1 sizes.

    PYTHONPATH=src python tests/sweep_digests.py          # print them
    PYTHONPATH=src python tests/sweep_digests.py --check  # compare with the file

Each line of tests/data/sweep_digests.txt names one run and the sha256
of its output's repr:
* `maxatsp_approx(g, budget=10**9).entries` on seeded graphs (bound 30)
  at odd n, at n = 9 and at three objectives;
* `maxsat_approx(inst).entries` on seeded CNFs (2m clauses, bound 20):
  the full cube at m = (2k)^2 + 1 and the walk at the largest m the
  default budget admits at two objectives, and `maxsat_oracle(inst).entries`
  on the same CNFs;
* `balance_paired` and `balance_integer` on the n = 2, m = 64 necklace
  block instance, the balancing scan's deepest search;
* `maxatsp_approx(g, budget=10**9).entries` on a graph where it takes the
  every-tour shortcut, and `tsp_oracle(g).entries` at its vertex cap, n = 9.
About 14 s in all.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from helpers import necklace_blocks
from mobal.balancing import balance_integer, balance_paired
from mobal.instances import GeneratorSpec, generate
from mobal.maxatsp import maxatsp_approx, tsp_oracle
from mobal.maxsat import maxsat_approx, maxsat_oracle

PINNED = Path(__file__).resolve().parent / "data" / "sweep_digests.txt"
# (vertices, dim, seed)
GRAPHS = ((7, 2, 3), (9, 2, 3), (8, 3, 0))
# (vertices, dim, seed): where n - 2 is a path-set size, so every tour is weighed
SHORTCUT_GRAPHS = ((7, 3, 0),)
# (vertices, dim, seed): at the oracle's vertex cap
ORACLE_GRAPHS = ((9, 2, 3), (9, 3, 0))
# (variables, dim, seed)
CNFS = ((17, 4, 3), (20, 2, 3))
# (n, m)
BLOCKS = ((2, 64),)


def _graph(n: int, dim: int, seed: int):
    return generate(GeneratorSpec(kind="graph", seed=seed, vertices=n, dim=dim, bound=30))


def _outputs():
    for n, dim, seed in GRAPHS:
        yield f"n={n} dim={dim} seed={seed}", maxatsp_approx(_graph(n, dim, seed), budget=10**9).entries
    for m, dim, seed in CNFS:
        spec = GeneratorSpec(kind="cnf", seed=seed, m=m, clauses=2 * m, dim=dim, bound=20)
        inst = generate(spec)
        yield f"maxsat m={m} dim={dim} seed={seed}", maxsat_approx(inst).entries
        yield f"oracle m={m} dim={dim} seed={seed}", maxsat_oracle(inst).entries
    for n, m in BLOCKS:
        inst = necklace_blocks(n, m)
        yield f"blocks n={n} m={m} paired", balance_paired(inst)
        yield f"blocks n={n} m={m} integer", balance_integer(inst.x, inst.z)
    for n, dim, seed in SHORTCUT_GRAPHS:
        yield f"n={n} dim={dim} seed={seed}", maxatsp_approx(_graph(n, dim, seed), budget=10**9).entries
    for n, dim, seed in ORACLE_GRAPHS:
        yield f"tsp_oracle n={n} dim={dim} seed={seed}", tsp_oracle(_graph(n, dim, seed)).entries


def digest_lines() -> list[str]:
    lines = []
    for label, out in _outputs():
        digest = hashlib.sha256(repr(out).encode("ascii")).hexdigest()
        lines.append(f"{label} sha256:{digest}")
    return lines


def main(argv: list[str]) -> int:
    lines = digest_lines()
    if "--check" not in argv:
        print("\n".join(lines))
        return 0
    pinned = [ln for ln in PINNED.read_text().splitlines() if ln and not ln.startswith("#")]
    for got, want in zip(lines, pinned):
        print(got, "unchanged" if got == want else f"CHANGED, pinned {want}")
    return int(lines != pinned)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
