"""Record the benchmark's numbers for this checkout in BENCH_<label>.json.

    python3 tools/bench_record.py --label blas1 --seeds 1 2 3

Runs every workload that BENCHMARK.json lists with ``--trace 0``, once
per seed, from the checkout this script sits in, for the run length that
BENCHMARK.json sets. For each run it stores the commit, the machine facts
line (cores, BLAS library and thread count, numpy) and the final JSON line
that the benchmark prints. The file is written at the root of the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_record: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), None)
    return {"workload": workload, "seed": seed, "seconds": seconds, "machine": machine,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runs": [],
    }
    for spec in bench["workloads"]:
        for seed in args.seeds:
            run = run_once(bench["command"], spec["name"], seed, bench["run_seconds"])
            metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            print(f"{spec['name']} seed {seed}: {json.dumps(metrics)}", flush=True)
            record["runs"].append(run)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
