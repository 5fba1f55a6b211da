"""Compare the compiled sieve kernel against the pure-Python fallback.

Times the operation that dominates real workloads: the mod-p sieve row (one
full B_k table per prime). Run from a checkout with the extension built:

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --primes 1009 4001 10007 --repeats 5
"""

import argparse
import statistics
import time

from bernpairs._kernels import _native, pure


def _best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def bench_sieve(primes, repeats):
    print(f"{'sieve p':>10} {'pure (s)':>10} {'native (s)':>11} {'speedup':>8}")
    for p in primes:
        pure_best, _ = _best_of(lambda: pure.bern_even_residues(p), repeats)
        native_best, _ = _best_of(lambda: _native.bern_even_residues(p), repeats)
        print(
            f"{p:>10} {pure_best:>10.4f} {native_best:>11.4f} "
            f"{pure_best / native_best:>7.1f}x"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--primes",
        type=int,
        nargs="+",
        default=[1009, 4001, 10007],
        help="sieve sizes to time",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if _native is None:
        raise SystemExit(
            "compiled extension not available; build it first "
            "(pip install -e . --no-build-isolation)"
        )
    bench_sieve(args.primes, args.repeats)


if __name__ == "__main__":
    main()
