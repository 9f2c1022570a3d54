"""The three workloads: inputs, one round of program calls, and checks.

A workload builds its program inputs once (``__init__``), then the
runner times whole rounds.  ``prepare`` makes round r's own inputs
outside the timed region; ``ops`` lists the round's calls in a fixed
order; each call's ``check`` returns the problems of its output.
Workloads with ``repeat = True`` feed the same inputs to every round,
so their later rounds only have to reproduce round 0's checked outputs.

Every call carries a ``kind``: calls of one kind do the same amount of
work.  The 10^6-index scans are made as CHUNKS consecutive calls of
10^6/CHUNKS indices each, so that every kind has many short calls and
the runner can take medians (see run.py).  local_discrepancy and profile
always start at k = 0, so chunk j runs on the system whose basepoint is
moved on by j*SPAN steps of xi: together the chunks scan the same 10^6
orbit points as one call at N = 10^6.

The program's functions are looked up on their modules at call time, so
that the traced run's wrappers (tracing.py) see every call.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass, field

import inputs
from inputs import N_SCAN

CHUNKS = 20
PROFILE_TRACE_LIMIT = 40  # 32 samples per chunk: 640 in all, as many as one 10^6 profile


@dataclass
class Op:
    kind: str
    call: object  # zero-argument callable into the program
    check: object  # output -> list of problems; runs after the timed phase


def _checks():
    """The checks module, imported only after the timed phase (it loads NumPy)."""
    import checks

    return checks


def _force_scaling(systems) -> None:
    from cutproject.patterns import orbit_hits

    for s in systems:
        orbit_hits(s, 0, 0)


class Enumerate:
    """orbit_hits and colored_hits over 10^6 indices on four systems."""

    name = "enumerate"
    repeat = True

    def __init__(self, seed: int, n: int = N_SCAN):
        from cutproject import patterns

        self.patterns = patterns
        self.span = n // CHUNKS
        self.specs = inputs.enumerate_systems(seed)
        self.systems = [inputs.program_system(s) for s in self.specs]
        _force_scaling(self.systems)
        self.refs: dict = {}

    def prepare(self, r: int):
        return None

    def _ref(self, i: int):
        if i not in self.refs:
            self.refs[i] = _checks().Reference(self.specs[i], self.span * CHUNKS - 1)
        return self.refs[i]

    def ops(self, _inputs) -> list[Op]:
        out = []
        for j in range(CHUNKS):
            k0, k1 = j * self.span, (j + 1) * self.span - 1
            for i, (spec, sys_) in enumerate(zip(self.specs, self.systems)):
                for name in ("orbit_hits", "colored_hits"):
                    out.append(Op(
                        f"{name}/{spec.name}",
                        lambda name=name, s=sys_, k0=k0, k1=k1: getattr(self.patterns, name)(s, k0, k1),
                        lambda p, i=i, k0=k0, k1=k1, name=name: getattr(
                            _checks(), f"check_{name}")(self._ref(i), k0, k1, p),
                    ))
        return out


class Discrepancy:
    """local_discrepancy, profile and its CSV over 10^6 indices on four systems."""

    name = "discrepancy"
    repeat = True

    def __init__(self, seed: int, n: int = N_SCAN):
        from cutproject import discrepancy, patterns

        self.modules = (discrepancy, patterns)
        self.last = n // CHUNKS - 1  # each chunk covers N = 0..last
        base = inputs.discrepancy_systems(seed)
        self.specs = [
            dataclasses.replace(s, base=(s.base[0], s.base[1] + j * (self.last + 1)))
            for j in range(CHUNKS)
            for s in base
        ]
        self.systems = [inputs.program_system(s) for s in self.specs]
        _force_scaling(self.systems)
        self.refs: dict = {}

    def prepare(self, r: int):
        return {}

    def _ref(self, i: int):
        if i not in self.refs:
            self.refs[i] = _checks().Reference(self.specs[i], self.last)
        return self.refs[i]

    def ops(self, box: dict) -> list[Op]:
        discrepancy, patterns = self.modules
        out = []
        n = self.last
        for i, (spec, sys_) in enumerate(zip(self.specs, self.systems)):

            def run_profile(s=sys_, i=i):
                box[i] = discrepancy.profile(s, n, trace_limit=PROFILE_TRACE_LIMIT, workers=1)
                return box[i]

            def run_csv(i=i):
                buf = io.StringIO()
                box[i].to_csv(buf)
                return buf.getvalue()

            out.append(Op(
                f"local_discrepancy/{spec.name}",
                lambda s=sys_: patterns.local_discrepancy(s, n),
                lambda v, i=i: _checks().check_local(self._ref(i), n, v),
            ))
            out.append(Op(
                f"profile/{spec.name}",
                run_profile,
                lambda p, i=i: _checks().check_profile(self._ref(i), n, p),
            ))
            out.append(Op(
                f"profile_csv/{spec.name}",
                run_csv,
                lambda t, i=i: _checks().check_profile_csv(self._ref(i), box[i], t),
            ))
        return out


@dataclass
class ExactRound:
    patterns: list
    cochains: list
    program_patterns: dict = field(default_factory=dict)


class Exact:
    """Verdicts, acceptance domains, densities, witnesses and cochains."""

    name = "exact"
    repeat = False

    def __init__(self, seed: int):
        from cutproject import acceptance, bdmatch, criteria, discrepancy
        from cutproject.exactnum import XiSpec

        self.seed = seed
        self.api = (acceptance, bdmatch, criteria, discrepancy)
        self.window_specs, self.specs, self.point_sets = inputs.exact_fixed(seed)
        self.windows = [
            inputs.program_window(XiSpec(w.field.p, w.field.q, w.field.d), w.intervals)
            for w in self.window_specs
        ]
        self.systems = [inputs.program_system(s) for s in self.specs]
        _force_scaling(self.systems)
        self.densities = [self.systems[ps.system].xi.real(*ps.density) for ps in self.point_sets]
        self.seen: set = set()
        self.rounds: dict[int, ExactRound] = {}
        self.refs: dict = {}
        self.prepare(0)

    def _ref(self, i: int):
        if i not in self.refs:
            self.refs[i] = _checks().Reference(self.specs[i], inputs.ANCHOR_HI + inputs.OFFSET_BOUND)
        return self.refs[i]

    def prepare(self, r: int) -> ExactRound:
        if r not in self.rounds:
            pats, cochains = inputs.exact_round(self.seed, r, len(self.specs), self.seen)
            rnd = ExactRound(pats, cochains)
            spec = self.api[0].PatternSpec
            for p in pats + [p for c in cochains for _, p in c.terms]:
                rnd.program_patterns[p] = spec(p.required, p.forbidden)
            self.rounds[r] = rnd
        return self.rounds[r]

    def ops(self, rnd: ExactRound) -> list[Op]:
        acceptance, bdmatch, criteria, discrepancy = self.api
        out = []
        for spec, w in zip(self.window_specs, self.windows):
            out.append(Op(
                f"bd_verdict/{spec.name}/{spec.verdict}/d{spec.field.d}",
                lambda w=w: criteria.bd_verdict(w),
                lambda rep, spec=spec: _checks().check_verdict(spec, rep),
            ))
        domains: dict = {}
        for p in rnd.patterns:
            sys_, ps = self.systems[p.system], rnd.program_patterns[p]
            tag = self.specs[p.system].name

            def domain(sys_=sys_, ps=ps, p=p):
                domains[p] = acceptance.acceptance_domain(sys_, ps)
                return domains[p]

            out.append(Op(
                f"acceptance_domain/{tag}",
                domain,
                lambda d, p=p: _checks().check_domain(self._ref(p.system), p, d),
            ))
            out.append(Op(
                f"pattern_density/{tag}",
                lambda sys_=sys_, ps=ps: acceptance.pattern_density(sys_, ps),
                lambda v, p=p: _checks().check_density(domains[p], v),
            ))
        for i, ps in enumerate(self.point_sets):
            wit: dict = {}
            tag = self.specs[ps.system].name

            def build(ps=ps, i=i, wit=wit):
                wit["w"] = bdmatch.build_witness(ps.points, self.densities[i])
                return wit["w"]

            def round_trip(wit=wit):
                buf = io.StringIO()
                wit["w"].to_csv(buf)
                text = buf.getvalue()
                return text, bdmatch.MatchingWitness.from_csv(io.StringIO(text))

            out.append(Op(
                f"build_witness/{tag}", build, lambda w, ps=ps: _checks().check_witness(ps, w)
            ))
            out.append(Op(
                f"witness_csv/{tag}",
                round_trip,
                lambda tp, ps=ps, wit=wit: _checks().check_witness_csv(ps, wit["w"], *tp),
            ))
        for cs in rnd.cochains:
            cochain = discrepancy.Cochain(
                tuple((coef, rnd.program_patterns[p]) for coef, p in cs.terms)
            )
            out.append(Op(
                f"cochain_discrepancy/{self.specs[cs.system].name}",
                lambda co=cochain, cs=cs: discrepancy.cochain_discrepancy(
                    co, self.systems[cs.system], cs.interval
                ),
                lambda v, cs=cs: self._check_cochain(rnd, cs, v),
            ))
        return out

    def _check_cochain(self, rnd: ExactRound, cs, value) -> list[str]:
        """The densities come from acceptance_domain, itself checked here first."""
        checks = _checks()
        ref = self._ref(cs.system)
        dens = []
        for _, p in cs.terms:
            dom = self.api[0].acceptance_domain(self.systems[cs.system], rnd.program_patterns[p])
            problems = checks.check_domain(ref, p, dom)
            if problems:
                return problems
            dens.append(checks.domain_length(dom))
        return checks.check_cochain(ref, cs, dens, value)


WORKLOADS = {w.name: w for w in (Enumerate, Discrepancy, Exact)}
