"""Micro timings for the traced run: single layers on fixed seeded pools."""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction as Q

import inputs
from refclock import timed

POOL = 256
REPEATS = 5
SCAN_K = 200_000  # per-k costs are measured over this many indices


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median time of fn() over `repeats` calls, each rescaled by refclock."""
    return statistics.median(timed(fn) for _ in range(repeats))


def _pool(xi, bits: int, rng: random.Random):
    def rat():
        if bits <= 10:
            return Q(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        return Q(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)

    return [xi.real(rat(), rat()) for _ in range(POOL)]


def exactnum_ns(seed: int) -> dict[str, tuple[float, str]]:
    """sign, floor and one multiply-add on small and on ~200-bit values."""
    from cutproject.exactnum import XiSpec

    g = inputs.GOLDEN
    xi = XiSpec(g.p, g.q, g.d)
    rng = random.Random(f"micro:{seed}")
    out = {}
    for label, bits in (("small", 10), ("big", 200)):
        pool = _pool(xi, bits, rng)
        pairs = list(zip(pool, pool[1:] + pool[:1]))
        reps = 20 if bits <= 10 else 4
        n = POOL * reps

        def sign():
            for _ in range(reps):
                for v in pool:
                    v.sign()

        def floor():
            for _ in range(reps):
                for v in pool:
                    v.floor()

        def arith():
            for _ in range(reps):
                for u, v in pairs:
                    u * v + u

        out[f"exactnum.sign_ns.{label}"] = (_median_time(sign) / n * 1e9, "ns")
        out[f"exactnum.floor_ns.{label}"] = (_median_time(floor) / n * 1e9, "ns")
        out[f"exactnum.arith_ns.{label}"] = (_median_time(arith) / n * 1e9, "ns")
    return out


def scale_system_us(seed: int) -> float:
    """Mean time to scale one of the enumerate workload's four systems."""
    from cutproject._scaled import scale_system

    systems = [inputs.program_system(s) for s in inputs.enumerate_systems(seed)]

    def run():
        for s in systems:
            scale_system(s.xi, s.basepoint, s.window.intervals)

    return _median_time(run, 20) / len(systems) * 1e6


def import_s(src: str, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import all seven modules."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import cutproject.exactnum, cutproject._scaled, cutproject.patterns, "
        "cutproject.discrepancy, cutproject.acceptance, cutproject.criteria, "
        "cutproject.bdmatch; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def scans(seed: int) -> dict[str, tuple[float, str]]:
    """Per-k costs of counting, enumeration and the profile, and the pool speed-up."""
    from cutproject.discrepancy import profile
    from cutproject.patterns import local_discrepancy, orbit_hits

    long_, three, short, _big = [inputs.program_system(s) for s in inputs.enumerate_systems(seed)]
    out = {}
    t = _median_time(lambda: local_discrepancy(long_, SCAN_K))
    out["patterns.count_ns_per_k"] = (t / SCAN_K * 1e9, "ns")
    for label, s in (("short", short), ("long", long_)):
        hits = len(orbit_hits(s, 0, SCAN_K))
        t = _median_time(lambda s=s: orbit_hits(s, 0, SCAN_K))
        out[f"patterns.enum_ns_per_k.{label}"] = (t / SCAN_K * 1e9, "ns")
        out[f"patterns.enum_ns_per_hit.{label}"] = (t / hits * 1e9, "ns")
    n = inputs.N_SCAN
    for label, s in (("1iv", long_), ("3iv", three)):
        t1 = _median_time(lambda s=s: profile(s, n, workers=1), 3)
        t2 = _median_time(lambda s=s: profile(s, n, workers=2), 3)
        out[f"discrepancy.pool_speedup.{label}"] = (t1 / t2, "ratio")
        if label == "1iv":
            out["discrepancy.profile_ns_per_k"] = (t1 / n * 1e9, "ns")
    out["host.nproc"] = (len(os.sched_getaffinity(0)), "count")
    return out


def all_metrics(seed: int, src: str) -> dict[str, tuple[float, str]]:
    """Every micro timing, as name -> (value, unit)."""
    out = exactnum_ns(seed)
    try:
        out["scaled.scale_system_us"] = (scale_system_us(seed), "us")
    except ImportError as exc:
        print(f"trace: not found, skipped: scaled.scale_system_us ({exc})", file=sys.stderr)
    out["package.import_s"] = (import_s(src), "s")
    out.update(scans(seed))
    return out
