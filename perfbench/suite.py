"""Run every workload once and print its metrics, or write its trace.

    python3 perfbench/suite.py                 # end-to-end metrics, all workloads
    python3 perfbench/suite.py --trace 1       # per-layer metrics, all workloads

Each workload runs in its own process through ``run.py`` with the run
length of BENCHMARK.json.  The table lists every metric by name and unit,
with the operations attempted and failed; failed operations and the
checks they failed are relayed from the runs.  The results are also
written as JSON to .perfbench_out/suite-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_path = ROOT / ".perfbench_out" / f"suite-trace{args.trace}.json"

    results = {}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", wl["name"], "--seed", str(args.seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        for line in proc.stderr.splitlines():
            if line.startswith("perfbench:"):
                print(f"  [{wl['name']}] {line[len('perfbench: '):]}")
        if proc.returncode != 0:
            print(f"{wl['name']}: run failed (exit {proc.returncode})\n{proc.stderr}")
            return 1
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    labels = [f"{m['name']} [{m['unit']}]" for m in metrics]
    width = max(map(len, labels)) + 2
    print(f"{'metric':<{width}}" + "".join(f"{w:>18}" for w in results))
    for key in ("correct", "attempted", "failed"):
        print(f"{key:<{width}}" + "".join(f"{str(r[key]):>18}" for r in results.values()))
    for m, label in zip(metrics, labels):
        print(f"{label:<{width}}"
              + "".join(f"{r['metrics'][m['name']]['value']:>18.6g}" for r in results.values()))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
