"""mdtail benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; mdtail is imported
from the checkout's src/ directory, nothing is installed.  Workloads:
crude_kernel, tilted_kernel, tilted_setup, verify_exact (see workloads.py
for what each runs and why).  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it carries the per-layer metrics.  The lines before it list
every metric measured, with units, and the environment record.

Scratch files go to perfbench/.work/ (ignored by git) and are removed at
the end of the run, except a results file per run under
perfbench/.work/results/ that holds the full metric table and, for traced
runs, the recorded spans.

Exit codes: 0 when the run finished (the result says whether it was
correct), 2 when the benchmark cannot run here (for example without src/).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# compiled bytecode would land in the checkout; the run must leave it unchanged
sys.dont_write_bytecode = True

WORKLOADS = ("crude_kernel", "tilted_kernel", "tilted_setup", "verify_exact")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every path at minimal sizes, for the harness tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "mdtail" / "__init__.py").is_file():
        print(f"error: no mdtail sources at {src / 'mdtail'}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    try:
        if args.setup_only:
            harness.setup_only(args.workload, args.seed, args.size)
            return 0
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            end_to_end=[m["name"] for m in spec["end_to_end"]],
            per_layer=[m["name"] for m in spec["per_layer"]],
        )
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details = result["details"]
    for name, value in sorted(details["table"].items()):
        print(f"{name} = {value} {harness.unit_of(name)}")
    tail = details["point_tail"]
    print(f"point latency samples = {details['point_samples']}; highest percentile with "
          f">=10 samples beyond: " + (f"p{tail[0]:g} = {tail[1]} s ({tail[2]} beyond)"
                                      if tail else "none"))
    for msg in details["failures"] + details["gate_failures"]:
        print(f"FAILED: {msg}")
    print(json.dumps({"env": details["env"]}, sort_keys=True))
    print(json.dumps(result["record"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
