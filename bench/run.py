"""Benchmark of emorl's online loop and offline stages, one workload per process.

    python3 bench/run.py --workload mc_oracle_partial --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

import os

# one BLAS/OpenMP thread: the loop is batch-size-one and the machine is shared;
# these must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def import_program():
    "Import emorl from this checkout's source tree, and from nowhere else."
    sys.path.insert(0, str(SRC_DIR))
    try:
        import emorl
    except ImportError as exc:
        raise SystemExit(f"error: cannot import emorl from {SRC_DIR}: {exc}")
    found = Path(emorl.__file__).resolve().parent
    if found != (SRC_DIR / "emorl").resolve():
        raise SystemExit(f"error: emorl was imported from {found}, not from {SRC_DIR}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of an end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workload

    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), BENCH_DIR / "out")
    for i, r in enumerate(result.rounds):
        failed = ", ".join(k for k, ok in r.checks.items() if not ok) or "none"
        notes = "".join(f", {k} {ok} (not counted: fails on some seeds)" for k, ok in r.uncounted.items())
        if r.known_fault:
            notes += f", known fault: {r.known_fault}"
        print(
            f"round {i}: setup {r.setup_s:.3f} s, loop {r.loop_s:.3f} s for {r.interactions} interactions, "
            f"{len(r.checks)} checks, failed: {failed}, bad interactions: {r.bad_interactions}{notes}",
            file=sys.stderr,
        )
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
