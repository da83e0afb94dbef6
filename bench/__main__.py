import time

T0 = time.perf_counter()  # set-up clock: starts before the program is imported

import argparse  # noqa: E402
import sys  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    from . import spec

    benchmark = spec()
    parser = argparse.ArgumentParser(
        prog="python -m bench", description="End-to-end, layer-by-layer benchmark (README.md)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one workload, one seed, this interpreter")
    run.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                     help="measuring time (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: record layer spans and print the per-layer metrics")
    run.add_argument("--trace-out", default=None,
                     help="write the spans as Chrome trace-event JSON (implies --trace 1)")

    series = sub.add_parser("series", help="repeat `run` in fresh interpreters, collect results")
    series.add_argument("--workload", required=True, help="comma-separated workload names")
    series.add_argument("--seeds", required=True, help="comma-separated seeds, or A-B")
    series.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    series.add_argument("--trace", type=int, choices=(0, 1), default=0)
    series.add_argument("--out", required=True, help="JSON file the runs are written to")

    compare = sub.add_parser("compare", help="judge series B against series A")
    compare.add_argument("a", help="parent series (JSON written by `series`)")
    compare.add_argument("b", help="change series")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        from . import run

        return run.main(args, T0)
    from . import compare

    if args.command == "series":
        return compare.series(args)
    return compare.compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
