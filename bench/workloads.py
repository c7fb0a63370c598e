"""The benchmark's workloads: spec generation from the workload seed, and the
checks that keep each workload correct and non-vacuous.

A workload is a list of kplab experiment specs.  Every spec seed is derived
from the workload seed, so ``kplab`` itself only ever sees generated specs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 0

# kplab.config.gen_random_config seeds its point cloud with this mask.
POINT_SEED_MASK = 0x9E3779B9


@dataclass(frozen=True)
class Spec:
    """One generated spec.  The experiment kind names the spec and its output
    files; `num_points` is the promised |P| of each seeded configuration."""

    name: str
    text: str
    seeds: tuple
    num_points: Optional[int]
    side: Optional[str]  # incidence_count side: 'enum' when p^k <= |P|, else 'probe'


# Per workload: (experiment kind, fixed parameters, seeds per spec, work
# band).  Zero seeds means the spec takes the workload seed itself as `seed=`.
# A work band (proxy, low, high) keeps only seeds whose configuration has a
# work proxy in [low, high]; see `make_specs`.  The sizes keep a pass under
# about 1.5 s, so a run times dozens of passes.
WORKLOADS: Dict[str, List[Tuple[str, str, int, Optional[Tuple[str, int, int]]]]] = {
    "maximal": [
        ("maximal-ratio", "n=3 k=2 prime=7 p_exp=11/6 q_exp=22/5", 0, None),
    ],
    "simplex": [
        ("simplex-bounds", "n=3 k=2 prime=3 num_directions=13 density=2/3", 8,
         ("refined_bases", 244, 266)),
    ],
    "corpus": [
        ("incidence-bound", "n=4 k=2 prime=7 num_directions=200 density=1/64 p_exp=11/6 q_exp=22/5", 2, None),
        ("two-ends", "n=4 k=2 r=1 prime=7 num_directions=200 density=1/16", 2, None),
        ("refinement-chain", "n=4 k=2 prime=5 num_directions=20 density=1/2", 1,
         ("refined_incidences", 210, 220)),
    ],
}

# Seeds tried per spec before the workload is declared impossible to build.
MAX_CANDIDATES = 20_000


def work_proxy(name: str, cfg) -> int:
    """A configuration's work proxy, from its dyadic refinement.

    `refined_bases` is the number of (k+1)-point bases on the refined flats,
    which sets the size of the apex loop in `count_simplices`;
    `refined_incidences` is the refined incidence total, which sets the
    tuple loops of `build_refinement_chain`.  On random configurations of the
    sizes above, each tracks the profiled call count of its spec within a
    few percent.
    """
    from kplab.incidence import incidence_count, refine_dyadic

    index = incidence_count(cfg)
    if not index.total:
        return 0
    refined = refine_dyadic(cfg, index)
    if name == "refined_incidences":
        return refined.refined_total
    return sum(comb(index.per_flat[flat], cfg.k + 1) for flat in refined.flats)


def refined_simplices(cfg) -> int:
    """Simplices on the refined flats: the `simplices` column of the
    configuration's simplex-bounds row."""
    from kplab.incidence import incidence_count, refine_dyadic
    from kplab.simplex import count_simplices

    index = incidence_count(cfg)
    return count_simplices(cfg, flats=refine_dyadic(cfg, index).flats, index=index)


def make_specs(workload: str, seed: int) -> List[Spec]:
    """The workload's specs for this workload seed.

    Seeded specs draw their seeds from a stream keyed by workload, spec and
    seed, keeping only seeds whose point cloud has exactly floor(density*p^n)
    points and, where the spec has a work band, whose work proxy lies in it.
    Every configuration then has the stated input size and about the same
    amount of work, so the workload seed changes the configurations without
    changing how much work a pass does.  A simplex-bounds seed must also
    count at least one simplex, so no configuration times the apex loop
    without ever completing a simplex.
    """
    from kplab.config import gen_point_cloud, gen_random_config
    from kplab.field import Field

    specs = []
    for name, params, num_seeds, band in WORKLOADS[workload]:
        if not num_seeds:
            text = f"experiment={name} {params} seed={seed} out={name}.csv\n"
            specs.append(Spec(name, text, (seed,), None, None))
            continue
        p = dict(token.split("=", 1) for token in params.split())
        n, k, fld, density = int(p["n"]), int(p["k"]), Field(int(p["prime"])), Fraction(p["density"])
        target = floor(density * fld.p**n)
        rng = random.Random(f"kplab-bench/{workload}/{name}/{seed}")
        seeds: List[int] = []
        for tried in itertools.count():
            if len(seeds) == num_seeds:
                break
            if tried == MAX_CANDIDATES:
                raise RuntimeError(f"{workload}/{name}: no {num_seeds} seeds in {tried} candidates")
            candidate = rng.randrange(1, 1 << 30)
            cloud = gen_point_cloud(n, fld, density, candidate ^ POINT_SEED_MASK)
            if candidate in seeds or len(cloud) != target:
                continue
            if band is not None:
                proxy, low, high = band
                cfg = gen_random_config(n, k, int(p["num_directions"]), density, fld, candidate)
                if not low <= work_proxy(proxy, cfg) <= high:
                    continue
                if name == "simplex-bounds" and not refined_simplices(cfg):
                    continue
            seeds.append(candidate)
        text = f"experiment={name} {params} seeds={','.join(map(str, seeds))} out={name}.csv\n"
        side = "enum" if fld.p**k <= target else "probe"
        specs.append(Spec(name, text, tuple(seeds), target, side))
    return specs


# -- output checks ------------------------------------------------------------

# Verdict columns that are theorems (exact partitions, Hoelder and
# Cauchy-Schwarz lower bounds, |I| <= sum of sup coset counts), so they must
# hold on every input.
ALWAYS_TRUE = {
    "two-ends": ("verdict_partition", "verdict_stratum0"),
    "incidence-bound": ("verdict_sup_chain",),
    "refinement-chain": ("verdict_holder_lower", "verdict_cs_lower"),
}


def check_rows(spec: Spec, rows: List[dict]) -> List[str]:
    """Problems found in one spec's rows; an empty list means the rows pass."""
    if spec.name == "maximal-ratio":
        problems = _check_maximal(rows)
    elif len(rows) != len(spec.seeds):
        problems = [f"{spec.name}: {len(rows)} rows for {len(spec.seeds)} seeds"]
    else:
        problems = []
    for row in rows:
        for key in ALWAYS_TRUE.get(spec.name, ()):
            if row.get(key) is not True:
                problems.append(f"{spec.name} seed {row.get('seed')}: {key} is {row.get(key)!r}")
        if "num_points" in row and row["num_points"] != spec.num_points:
            problems.append(
                f"{spec.name} seed {row.get('seed')}: {row['num_points']} points, "
                f"spec derivation expects {spec.num_points}"
            )
    if spec.name == "simplex-bounds":
        # Non-vacuity: a configuration without simplices would time the apex
        # loop without ever completing a simplex.
        zero = [row.get("seed") for row in rows if not row.get("simplices")]
        if zero:
            problems.append(f"simplex-bounds: seeds {zero} count 0 simplices")
    return problems


def _check_maximal(rows: List[dict]) -> List[str]:
    """Exactly one best witness, and the two witnesses with a closed form
    (f = 1 and a point spike) agree with it."""
    import math

    from kplab.field import Field
    from kplab.flats import gaussian_binomial
    from kplab.maximal import constant_witness_ratio_exact

    problems = []
    if not rows:
        return ["maximal-ratio: no rows"]
    if sum(1 for row in rows if row["verdict_best"] is True) != 1:
        problems.append("maximal-ratio: verdict_best is not unique")
    row0 = rows[0]
    n, k, p = row0["n"], row0["k"], row0["prime"]
    p_exp, q_exp = Fraction(row0["p_exp"]), Fraction(row0["q_exp"])
    measure = gaussian_binomial(n, k, p) / p ** (k * (n - k))
    expected = {
        "constant": float(constant_witness_ratio_exact(n, k, Field(p), p_exp, q_exp)),
        # T(delta_0) = 1 on every direction and ||delta_0||_p = 1.
        "point": measure ** (1 / float(q_exp)),
    }
    ratios = {row["candidate"]: row["ratio"] for row in rows}
    for name, value in expected.items():
        got = ratios.get(name)
        if got is None or not math.isclose(got, value, rel_tol=1e-5):
            problems.append(f"maximal-ratio: {name} ratio {got}, closed form {value:.6g}")
    return problems

