"""Test of the benchmark's own checks.

    python3 perfbench/selftest.py [--seed N]

Runs every workload once at a small scan length and requires that each
output passes its check; then feeds the checks deliberately corrupted
outputs (a hit dropped, a colour swapped, a running sup off by one, a
verdict flipped, a witness offset shifted, and more) and requires that
each one is rejected.  Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace as NS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 3000


def val(a, b=0):
    return NS(a=Q(a), b=Q(b))


def plus(v, da=0, db=0):
    return val(v.a + da, v.b + db)


def fake_profile(prof, i, **change):
    samples = list(prof.samples)
    samples[i] = dataclasses.replace(samples[i], **change)
    return dataclasses.replace(prof, samples=tuple(samples))


def rounds(seed: int):
    """One round of each workload at tiny size: (workload, ops, outputs)."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed) if name == "exact" else cls(seed, n=TINY)
        _, ops, outputs = run.run_round(wl, 0)
        out[name] = (wl, ops, outputs)
    return out


def corruptions(data):
    """(label, thunk returning the problems a check finds in a corrupted output)."""
    enum_wl, enum_ops, enum_out = data["enumerate"]
    disc_wl, disc_ops, disc_out = data["discrepancy"]
    ex_wl, ex_ops, ex_out = data["exact"]

    def find(ops, outs, prefix, pred=lambda o: True):
        for op, o in zip(ops, outs):
            if op.kind.startswith(prefix) and pred(o):
                return op, o
        raise LookupError(prefix)

    op_h, hits = find(enum_ops, enum_out, "orbit_hits/long")
    op_c, col = find(enum_ops, enum_out, "colored_hits/three")
    op_ld, ld = find(disc_ops, disc_out, "local_discrepancy/long")
    op_p, prof = find(disc_ops, disc_out, "profile/long")
    op_pu, prof_u = find(disc_ops, disc_out, "profile/unbounded")
    op_csv, csv = find(disc_ops, disc_out, "profile_csv/long")
    op_v, rep = find(ex_ops, ex_out, "bd_verdict", lambda r: r.witness is not None)
    op_w, wit = find(ex_ops, ex_out, "build_witness")
    op_wc, wcsv = find(ex_ops, ex_out, "witness_csv")
    op_d, dom = find(ex_ops, ex_out, "acceptance_domain", lambda d: len(d.window) > 0)
    op_dens, dens = ex_ops[ex_ops.index(op_d) + 1], ex_out[ex_ops.index(op_d) + 1]
    op_co, co = find(ex_ops, ex_out, "cochain_discrepancy")

    pts = hits.points
    colors = list(col.colors)
    j = next(i for i, c in enumerate(colors) if c != 0)
    colors[j] = 1 + colors[j] % 3
    op_p_spec = disc_wl.specs[disc_ops.index(op_p) // 3]
    last = len(prof.samples) - 1
    mid = len(prof_u.samples) // 2
    lines = csv.splitlines()
    lines[7] = lines[7].replace(",", ",9", 1)
    flipped = "unbounded" if rep.verdict == "bounded" else "bounded"
    ks = list(rep.witness.ks)
    ks[0] += 1
    prov = list(dom.provenance)
    prov[0] = (prov[0][0], prov[0][1] + 1)
    wlines = wcsv[0].splitlines()
    y, lat, disp = wlines[9].split(",")
    wlines[9] = f"{int(y) + 1},{lat},{disp}"
    ivs = list(dom.window.intervals)
    lo, hi = ivs[0]
    shrunk = NS(window=NS(intervals=((lo, plus(hi, Q(-1, 10**9))), *ivs[1:])), provenance=dom.provenance)
    # provenance kept consistent, so only the occurrence recount can object
    dropped = NS(window=NS(intervals=tuple(ivs[1:])), provenance=dom.provenance[2:])

    return [
        ("one hit dropped", lambda: op_h.check(NS(points=pts[:5] + pts[6:], colors=None))),
        ("one hit added", lambda: op_h.check(NS(points=pts + (pts[-1] + 1,), colors=None))),
        ("one colour swapped", lambda: op_c.check(NS(points=col.points, colors=tuple(colors)))),
        ("three-gap property broken", lambda: checks.slater(np.array([0, 2, 5, 6, 9, 13]), "synthetic")),
        ("local discrepancy off by one", lambda: op_ld.check(plus(ld, 1))),
        ("running sup off by one", lambda: op_p.check(
            fake_profile(prof, last, running_sup=plus(prof.samples[last].running_sup, 1)))),
        ("running sup off by one (rational length)", lambda: op_pu.check(
            fake_profile(prof_u, mid, running_sup=plus(prof_u.samples[mid].running_sup, 1)))),
        ("one profile value off by one", lambda: op_p.check(
            fake_profile(prof, last, value=plus(prof.samples[last].value, -1)))),
        ("sup of a bounded window at its bound", lambda: op_p.check(
            dataclasses.replace(prof, sup_seen=val(sum(abs(k) for k in op_p_spec.ks) + 1)))),
        ("profile CSV digit changed", lambda: op_csv.check("\n".join(lines))),
        ("verdict flipped", lambda: op_v.check(dataclasses.replace(rep, verdict=flipped))),
        ("class count changed", lambda: op_v.check(dataclasses.replace(rep, n=rep.n + 1))),
        ("Oren witness k changed", lambda: op_v.check(dataclasses.replace(
            rep, witness=dataclasses.replace(rep.witness, ks=tuple(ks))))),
        ("witness offset shifted", lambda: op_w.check(dataclasses.replace(wit, offset=wit.offset + 1))),
        ("witness sup changed", lambda: op_w.check(dataclasses.replace(
            wit, sup_displacement=plus(wit.sup_displacement, 1)))),
        ("witness CSV row changed", lambda: op_wc.check(("\n".join(wlines) + "\n", wcsv[1]))),
        ("acceptance provenance shifted", lambda: op_d.check(dataclasses.replace(dom, provenance=tuple(prov)))),
        ("acceptance domain shrunk", lambda: op_d.check(shrunk)),
        ("acceptance domain interval dropped", lambda: op_d.check(dropped)),
        ("pattern density changed", lambda: op_dens.check(plus(dens, Q(1, 7)))),
        ("cochain discrepancy off by one", lambda: op_co.check(plus(co, 1))),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="test of the benchmark's output checks")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    data = rounds(args.seed)
    ok = True
    for name, (wl, ops, outputs) in data.items():
        ledger = run.Ledger(wl)
        ledger.add(ops, outputs)
        failed, notes, complete = ledger.check()
        good = failed == 0 and complete
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: {len(ops)} calls at tiny size, {failed} failed")
        for n in notes[:5]:
            print(f"     {n}")
    for label, thunk in corruptions(data):
        problems = thunk()
        ok &= bool(problems)
        print(f"{'ok  ' if problems else 'FAIL'} rejects {label}: {problems[0] if problems else 'accepted'}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
