"""Run one workload once per seed, one process after another, and summarize.

    python3 bench/spread.py --workload ml_oracle_full --seeds 1-10

For each end-to-end metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the distance between the
quartiles as a share of the median, and writes the raw results to
bench/out/spread-<workload>-s<first>-<last>.json. `--seconds` defaults to
`run_seconds` of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    run_seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10, or a list such as 3,5,8")
    parser.add_argument("--seconds", type=float, default=run_seconds)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        values = ", ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}; {values}", flush=True)

    out = BENCH_DIR / "out" / f"spread-{args.workload}-s{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:7.2%}")
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
