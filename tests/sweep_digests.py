"""Pinned digests of `maxatsp_approx` on graphs larger than Tier-1 sweeps.

    PYTHONPATH=src python tests/sweep_digests.py          # print them
    PYTHONPATH=src python tests/sweep_digests.py --check  # compare with the file

Each line of tests/data/sweep_digests.txt names a seeded graph (bound 30)
and the sha256 of `repr(maxatsp_approx(g, budget=10**9).entries)`, which
holds every front weight and every tied tour in canonical order.  The
three graphs run the sweep at odd n, at n = 9 and at three objectives,
about 10 s in all.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from mobal.instances import GeneratorSpec, generate
from mobal.maxatsp import maxatsp_approx

PINNED = Path(__file__).resolve().parent / "data" / "sweep_digests.txt"
# (vertices, dim, seed)
GRAPHS = ((7, 2, 3), (9, 2, 3), (8, 3, 0))


def digest_lines() -> list[str]:
    lines = []
    for n, dim, seed in GRAPHS:
        g = generate(GeneratorSpec(kind="graph", seed=seed, vertices=n, dim=dim, bound=30))
        out = maxatsp_approx(g, budget=10**9)
        digest = hashlib.sha256(repr(out.entries).encode("ascii")).hexdigest()
        lines.append(f"n={n} dim={dim} seed={seed} sha256:{digest}")
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
