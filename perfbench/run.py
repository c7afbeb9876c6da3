"""Benchmark of the bonmf package: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {tall,stream,grid} --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from `src/` of the
checkout that holds this file, never from an installed copy; without it
the command fails. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run (see schema.py). The last line of
standard output is the result; the line before it is the environment. The
full record of the latest run of each workload and mode (set-up samples,
errors and, when traced, every span) goes to
perfbench/out/<workload>-trace<T>.json.

Seed 20221019 is held out: keep it for checking a claim, not for tuning.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# One BLAS thread: the calls the workloads time are small enough that
# threads add little, and a single thread keeps runs steadier on a shared
# machine. Must be set before numpy is imported.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("tall", "stream", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "bonmf" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import bonmf

    if Path(bonmf.__file__).resolve().parent != src / "bonmf":
        print(f"error: imported bonmf from {bonmf.__file__}, not from {src}", file=sys.stderr)
        return 2

    from perfbench import workloads

    env = workloads.environment()
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    details = result.pop("details")
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result, **details}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
