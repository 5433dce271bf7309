"""Check that the speed factor (speed.py) does not depend on the op's own work.

Run from the repository root:

    python3 bench/speedcheck.py --rounds 10

It runs each certify op three times in a row, round after round: as it
is, with a cache-heavy slowdown (sweeps over a 64 MB array) added to every
joint-kernel build, and with a cache-light one (an interpreter loop). Ops
run as in a measured pass (run.py). Per rung and slowdown it prints the
median, over op instances, of the slowed op's raw CPU time, normalized
time and speed factor, each over the plain op's run just before it. If the
factor only follows the machine, the factor ratio is 1 and the normalized
ratio equals the raw one, for either kind of slowdown; a factor that the
op's working set moves would read below 1 for the cache-heavy slowdown.
`--cold` times the snippet without its warm-up run, to show what the
check catches.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
HEAVY_BYTES = 64 * 2**20
HEAVY_SWEEPS = 2
LIGHT_LOOPS = 200_000
RUNGS = ("n64", "n256", "n648")
AGREE = 0.03   # largest |factor ratio - 1| reported as agreeing


def _slowdowns():
    import numpy as np

    big = np.ones(HEAVY_BYTES // 8)

    def heavy():
        for _ in range(HEAVY_SWEEPS):
            np.add(big, 1.0, out=big)

    def light():
        acc = 0
        for i in range(LIGHT_LOOPS):
            acc += i & 7
        return acc

    return {"plain": None, "cache-heavy": heavy, "cache-light": light}


def _patched(extra):
    """Put a slowed build_joint_transition at every eee.* reference; returns an undo list."""
    from eee import chain_analysis

    original = chain_analysis.build_joint_transition

    def build(*args, **kwargs):
        extra()
        return original(*args, **kwargs)

    undo = []
    for name, mod in list(sys.modules.items()):
        if name == "eee" or name.startswith("eee."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, build)
                    undo.append((mod, attr, value))
    return undo


def _cold_sampler(speed):
    class ColdSampler(speed.SpeedSampler):
        def _sample(self, signum=None, frame=None):
            start = time.thread_time()
            speed.snippet()
            elapsed = time.thread_time() - start
            self.samples.append(elapsed)
            self.snippet_cpu += elapsed

    return ColdSampler()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cold", action="store_true", help="sample without the warm-up run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    import run

    run._pin_blas()
    run._import_program(Path.cwd())
    run._fix_mmap_threshold()
    import speed
    import workloads
    from eee import cli

    os.environ["EEE_LOG"] = "quiet"
    work = Path.cwd() / ".bench_work" / f"speedcheck-{os.getpid()}"
    slowdowns = _slowdowns()
    results = {name: [] for name in slowdowns}   # per variant: [OpResult], in step
    try:
        workloads.write_inputs("certify", args.seed, work / "in", passes=1)
        ops = [op for op in workloads.pass_ops("certify", args.seed, 0, work / "in")
               if op.rung in RUNGS]
        sampler = _cold_sampler(speed) if args.cold else speed.SpeedSampler()
        sampler.start()
        try:
            for _ in range(args.rounds):
                for op in ops:
                    for name, extra in slowdowns.items():
                        undo = _patched(extra) if extra else []
                        try:
                            results[name] += run._run_pass(cli, [op], work / "out", sampler)
                        finally:
                            for mod, attr, value in undo:
                                setattr(mod, attr, value)
                        shutil.rmtree(work / "out", ignore_errors=True)
        finally:
            sampler.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'slowdown':<13}{'rung':<6}{'raw ratio':>10}{'norm ratio':>11}{'factor ratio':>13}")
    worst = 0.0
    for name in list(slowdowns)[1:]:
        for rung in RUNGS:
            pairs = [(r, b) for r, b in zip(results[name], results["plain"]) if r.op.rung == rung]
            raw = statistics.median(r.cpu / b.cpu for r, b in pairs)
            norm = statistics.median(r.norm / b.norm for r, b in pairs)
            factor = statistics.median(r.factor / b.factor for r, b in pairs)
            worst = max(worst, abs(factor - 1))
            print(f"{name:<13}{rung:<6}{raw:>10.3f}{norm:>11.3f}{factor:>13.3f}")
    print(f"largest |factor ratio - 1| = {worst:.3f} "
          f"({'agree' if worst <= AGREE else 'disagree'} within {AGREE})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
