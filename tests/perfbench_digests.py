"""Each perfbench workload's output digest, and a check against the pinned ones.

    python tests/perfbench_digests.py          # print them
    python tests/perfbench_digests.py --check  # compare with the file

Runs `perfbench/run.py` for every workload at seeds 1 and 2, one second
each, untraced: eight runs, about 11 s in all.  With --check a run
fails when its JSON result line does not read `correct` true and
`failed` 0, or when the output digest it prints differs from its line
in tests/data/perfbench_digests.txt or has none there; the script exits
1 if any run failed, after all have run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "perfbench_digests.txt"
WORKLOADS = ("atsp-n8", "atsp-n6-k3", "sat-m12-16", "balance-mix")
SEEDS = (1, 2)
DIGEST_LINE = "output digest over the first "


def run(workload: str, seed: int) -> tuple[bool, str | None]:
    """Whether one 1 s run certified every instance without a failure,
    and the output digest it printed."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    digest = next((ln.split(": ", 1)[1] for ln in out if ln.startswith(DIGEST_LINE)), None)
    return result["correct"] is True and result["failed"] == 0, digest


def main(argv: list[str]) -> int:
    lines = [ln.split() for ln in PINNED.read_text().splitlines() if ln and not ln.startswith("#")]
    pinned = {(w, int(s)): d for w, s, d in lines}
    failed = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            ok, got = run(workload, seed)
            if "--check" not in argv:
                print(workload, seed, got)
                continue
            want = pinned.get((workload, seed))
            print(f"{workload} seed {seed}", "certified" if ok else "FAILED")
            if want is None or got != want:
                print(f"{workload} seed {seed}: output digest {got}, pinned {want or 'none'}")
                ok = False
            else:
                print(f"{workload} seed {seed}: output digest unchanged")
            failed += not ok
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
