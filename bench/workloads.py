"""Seeded request plans for the benchmark workloads.

A plan is an endless stream of blocks; each block holds the workload's
mix of request kinds (for ``cli-readme``, each of the nine README commands
once), in an order the seed shuffles.  A run takes whole cycles of blocks,
so every run sees the same mix of kinds.

Parameters are stratified: each kind visits equal strata of its range in
an order where every prefix covers the range evenly, so the latency
median, tail and throughput of a run depend on the range, not on the luck
of a few draws, while each seed still gets its own parameters and order.
zenogate never sees the seed, only the generated arguments.
"""

from __future__ import annotations

import itertools
import random

# The README's `zenogate ...` commands, verbatim after the program name.
README_COMMANDS = {
    "rabi": ["rabi", "--t-max", "6.2832", "--steps", "1000", "--out", "rabi.csv"],
    "hom": ["hom", "--steps", "200"],
    "zeno-sweep-discrete": ["zeno-sweep", "--mode", "discrete", "--n-values", "1", "2", "5", "10", "20", "50"],
    "zeno-sweep-absorption": ["zeno-sweep", "--mode", "absorption", "--n-values", "10", "20", "50"],
    "gate-discrete": ["gate", "--n", "1000"],
    "gate-absorption": ["gate", "--tau-d", "0.000196"],
    "fermion-report": ["fermion-report", "--tau-d", "0.01", "--tau", "1.0", "--n", "1000"],
    "rate": ["rate", "--params", "demos/rate_params.txt"],
    "threshold": ["threshold", "--p-values", "0.05", "0.1", "0.2", "0.25", "0.3", "--trials", "100000", "--seed", "1"],
}

WORKLOADS = ("cli-readme", "zeno-protocols", "fermion-algebra", "curves-threshold")
CLI_WORKLOAD = "cli-readme"

PARAMS_FILE = "demos/rate_params.txt"

# A run holds at least this many requests, so the tail percentile (10
# samples above it) is always defined.
MIN_REQUESTS = 20

# Seconds one cycle takes at the commit that defined the benchmark (2 shared
# vCPUs, Python 3.11, numpy 2.4.6, scipy 1.17.1).  A cycle is STRATA blocks,
# which visits every stratum of every parameter once; for cli-readme it is
# one round of the nine commands.
CYCLE_SECONDS = {"cli-readme": 6.1, "zeno-protocols": 7.0, "fermion-algebra": 7.4, "curves-threshold": 1.33}

# A run stops early once it has taken this many times --seconds, so that a
# much slower commit still finishes in time.
STOP_AFTER = 4.0

# One fixed, cheap request per workload, run before timing starts; part of setup_s.
WARM_UP = {
    "cli-readme": {"kind": "cli", "name": "hom", "argv": README_COMMANDS["hom"]},
    "zeno-protocols": {"kind": "gate-absorption", "n": 10},
    "fermion-algebra": {"kind": "fermion-gap", "n": 10, "occ": (1, 1)},
    "curves-threshold": {"kind": "rabi", "points": 200},
}


STRATA = 8  # a power of two, so bit-reversed order spreads every prefix


class _Quantiles:
    """Points in [0, 1) for one parameter: one per stratum, strata in bit-reversed order.

    The seed rotates where the order starts and moves each point by at most
    1/32 of a stratum from its midpoint.  Latency grows steeply with most
    parameters, and the median and tail are single requests: a point free
    to move across its stratum moved them by 10-20% from seed to seed.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._count = itertools.count(rng.randrange(STRATA))

    def __call__(self) -> float:
        i = next(self._count) % STRATA
        stratum = int(f"{i:0{STRATA.bit_length() - 1}b}"[::-1], 2)
        return (stratum + 0.5 + self._rng.uniform(-1 / 32, 1 / 32)) / STRATA


def _log_int(q: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** q))


def _zeno_protocols(rng):
    ec_d, ec_a, g_d, g_a = (_Quantiles(rng) for _ in range(4))
    while True:
        block = [
            {"kind": "error-discrete", "n": _log_int(ec_d(), 100, 20000)},
            {"kind": "error-absorption", "n": _log_int(ec_a(), 10, 300)},
            {"kind": "gate-discrete", "n": _log_int(g_d(), 100, 5000)},
            {"kind": "gate-absorption", "n": _log_int(g_a(), 10, 1000)},
        ]
        rng.shuffle(block)
        yield block


def _fermion_algebra(rng):
    tau_d, n = _Quantiles(rng), _Quantiles(rng)
    occupations = []
    while True:
        if not occupations:
            occupations = [(1, 0), (0, 1), (1, 1)]
            rng.shuffle(occupations)
        # Two anticommutator reports per comparison: with equal shares the
        # median would fall in the gap between the two kinds' latencies.
        block = [
            {"kind": "anticommutator", "tau_d": 1e-3 * 10.0 ** tau_d()},
            {"kind": "anticommutator", "tau_d": 1e-3 * 10.0 ** tau_d()},
            {"kind": "fermion-gap", "n": _log_int(n(), 10, 10000), "occ": occupations.pop()},
        ]
        rng.shuffle(block)
        yield block


def _curves_threshold(rng):
    points, p, trials = _Quantiles(rng), _Quantiles(rng), _Quantiles(rng)
    curves = []
    while True:
        if not curves:
            curves = ["rabi", "hom"]
            rng.shuffle(curves)
        block = [
            {"kind": curves.pop(), "points": int(round(200 + 1800 * points()))},
            {
                "kind": "monte-carlo",
                "p": 0.01 + 0.29 * p(),
                "trials": _log_int(trials(), 100_000, 4_000_000),
                "seed": rng.randrange(2**32),
            },
            {"kind": "rate"},
        ]
        rng.shuffle(block)
        yield block


def _cli_readme(rng):
    names = list(README_COMMANDS)
    while True:
        rng.shuffle(names)
        yield [{"kind": "cli", "name": name, "argv": README_COMMANDS[name]} for name in names]


_PLANS = {
    "cli-readme": _cli_readme,
    "zeno-protocols": _zeno_protocols,
    "fermion-algebra": _fermion_algebra,
    "curves-threshold": _curves_threshold,
}


def plan(workload: str, seed: int):
    """Endless iterator of request blocks; the same (workload, seed) gives the same stream."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _PLANS[workload](random.Random(f"{workload}/{seed}"))


def requests(workload: str, seed: int, seconds: float) -> list[dict]:
    """A run's requests: whole cycles, about ``seconds`` of work at the defining commit.

    The list is fixed by (workload, seed, seconds), not by a deadline, so two
    commits, or one commit on a busier machine, are timed on the same
    requests and their medians and tails compare like for like.
    """
    blocks = plan(workload, seed)
    per_cycle = 1 if workload == CLI_WORKLOAD else STRATA
    specs: list[dict] = []
    for cycle in itertools.count():
        if cycle >= round(seconds / CYCLE_SECONDS[workload]) and len(specs) >= MIN_REQUESTS:
            return specs
        for block in itertools.islice(blocks, per_cycle):
            specs.extend(block)

