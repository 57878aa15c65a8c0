"""False-alarm sweep of the Monte Carlo gates across seeds.

Runs validate.check_monte_carlo for every seed of a range and prints, per
gate, the seeds it fails on and the median and maximum of measured /
tolerance, then the seeds on which any gate fails.  A gate at 1.0 sits on
its tolerance.  Pytest does not collect this file.  From the repository root:

    PYTHONPATH=src python tests/false_alarm.py --tier quick --seeds 0:400 --jobs 2

With two jobs on a 2-core machine a quick-tier seed takes about half a second
and a full-tier seed about 90 s.
"""

import argparse
import multiprocessing
import statistics

from jacobi_heat.validate import TIERS, check_monte_carlo


def gate_ratios(tier, seed):
    """{gate name: measured / tolerance} of one seed's Monte Carlo checks."""
    return {c["check_name"]: c["measured"] / c["tolerance"] for c in check_monte_carlo(tier, seed)}


def summary(by_seed):
    """Lines tabulating each gate's failing seeds and ratio median and maximum."""
    seeds = sorted(by_seed)
    lines = [f"{'gate':26} {'fails':>5} {'median':>7} {'max':>7}  failing seeds"]
    for gate in by_seed[seeds[0]]:
        ratios = [by_seed[s][gate] for s in seeds]
        failing = [s for s in seeds if not by_seed[s][gate] <= 1.0]
        lines.append(
            f"{gate:26} {len(failing):5d} {statistics.median(ratios):7.3f} {max(ratios):7.3f}  {failing}"
        )
    any_fail = [s for s in seeds if not all(r <= 1.0 for r in by_seed[s].values())]
    lines.append(f"seeds with any failure: {len(any_fail)} of {len(seeds)} {any_fail}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="quick")
    parser.add_argument("--seeds", default="0:40", help="half-open range lo:hi")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split(":"))
    seeds = range(lo, hi)
    tasks = [(args.tier, s) for s in seeds]
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.starmap(gate_ratios, tasks)
    else:
        results = [gate_ratios(*task) for task in tasks]
    print(f"tier {args.tier}, seeds {lo}..{hi - 1}")
    print("\n".join(summary(dict(zip(seeds, results)))))


if __name__ == "__main__":
    main()
