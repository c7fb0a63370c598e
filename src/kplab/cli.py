"""Batch experiment runner: parses flat key=value experiment specs, drives
the generators and checkers, and writes CSV/JSON reports side by side.

Exit codes: 0 success, 1 spec error (a command-line usage error,
out-of-domain parameters, an unreadable spec or an unwritable output), 2 work refusal (the --budget estimate, made
before anything is generated), 3 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from . import exponents, incidence, maximal, simplex
from .config import gen_degenerate, gen_nk_set, gen_point_cloud, gen_random_config
from .field import Field, NotPrimeError
from .flats import (
    CosetKeys,
    coset_key,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    make_flat,
    unrank_grassmannian,
)

DEFAULT_BUDGET = 50_000_000
# Work units per rank test.  Every charged rank test is now a cached
# `linalg.span` lookup, not a 2x2 rref (about 9 us on a 2-CPU host, which
# set this value), so `_corpus_work` overshoots a refinement-chain run by
# about 3x and a two-ends run further; the value is recalibrated with the
# work model once a metrics sidecar measures rank tests (ROADMAP.md).
RANK_TEST_COST = 10
# The maximal-ratio terms charge each direction (n-k) steps per prefix of
# F^n, p + p^2 + ... + p^n of them, a proxy sized from the prefix walk that
# the key kernel no longer takes (`flats.CosetKeys` adds whole columns in
# byte lanes at p < 128 and p^(n-k) <= 2^64, and sums columns point by
# point otherwise), and its binned points, whichever kernel
# `flats.CosetSums` picks; and each run
# MAXIMAL_POINT_UNITS per point of F^n for building the witnesses there,
# which took 11-17 us a point at k = 0 and k = n, where a run has one
# direction.  On a 2-CPU host, with a unit taken as 0.9 us, G(4,2) at p=5
# estimates 0.64 s against a 0.07-0.12 s run, G(4,2) at p=7 6.1 s against
# 0.45-0.8 s and G(5,2) at p=5 71 s against 9.8 s: the estimate is 5-14x
# the run, until the work terms are recalibrated together (ROADMAP.md).
MAXIMAL_STEPS_PER_UNIT = 5
MAXIMAL_DIRECTION_STEPS = 1500
MAXIMAL_POINT_UNITS = 20

_INT_KEYS = {"n", "k", "r", "prime", "num_directions", "seed", "kmax", "slack"}
_RATIONAL_KEYS = {"density", "p_exp", "q_exp"}

_PREFIX_KEYS = ("n", "k", "r", "prime")


class SpecError(ValueError):
    pass


class BudgetError(incidence.SizeGuardError):
    pass


@dataclass
class ExperimentSpec:
    kind: str
    params: Dict[str, object]
    out: Optional[str] = None


def _parse_seeds(text: str) -> Sequence[int]:
    """`a..b` as a range, never listed, so the budget sees its length before
    anything is built; otherwise a comma-separated list of distinct seeds."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    seeds = [int(tok) for tok in text.split(",") if tok]
    if len(set(seeds)) < len(seeds):
        raise SpecError("duplicate seeds")
    return seeds


def parse_spec(text: str) -> ExperimentSpec:
    """Parse a flat key=value document; '#' starts a comment; unknown keys,
    duplicates and malformed values are rejected by name."""
    pairs: Dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if "=" not in token:
                raise SpecError(f"malformed token {token!r}: expected key=value")
            key, value = token.split("=", 1)
            if key in pairs:
                raise SpecError(f"duplicate key {key!r}")
            pairs[key] = value
    if "experiment" not in pairs:
        raise SpecError("missing mandatory key 'experiment'")
    kind = pairs.pop("experiment")
    if kind not in KINDS:
        raise SpecError(f"unknown experiment {kind!r}; known: {', '.join(KINDS)}")
    out = pairs.pop("out", None)
    required, optional = KINDS[kind].required, KINDS[kind].optional
    unknown = set(pairs) - required - optional
    if unknown:
        raise SpecError(f"unknown keys for {kind}: {', '.join(sorted(unknown))}")
    missing = required - set(pairs)
    if missing:
        raise SpecError(f"missing mandatory keys for {kind}: {', '.join(sorted(missing))}")
    params: Dict[str, object] = {}
    for key, value in pairs.items():
        try:
            if key == "seeds":
                params[key] = _parse_seeds(value)
            elif key in _INT_KEYS:
                params[key] = int(value)
            elif key in _RATIONAL_KEYS:
                params[key] = Fraction(value)
            else:
                params[key] = value
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"malformed value for {key!r}: {value!r} ({exc})") from exc
    if "prime" in params:
        try:
            Field(params["prime"])
        except NotPrimeError as exc:
            raise SpecError(f"invalid prime: {exc}") from exc
    _check_domain(kind, params)
    return ExperimentSpec(kind, params, out)


def _check_domain(kind: str, params: Dict[str, object]) -> None:
    """Reject out-of-domain values before any work starts."""
    if not KINDS[kind].in_domain(**params):
        keys = ("n", "k", "r", "kmax", "slack", "p_exp", "q_exp")
        got = ", ".join(f"{key}={_magnitude(params[key])}" for key in keys if key in params)
        raise SpecError(f"{kind} needs {KINDS[kind].domain}, got {got}")
    if "num_directions" in params:
        total = gaussian_binomial(params["n"], params["k"], params["prime"])
        if not 0 <= params["num_directions"] <= total:
            raise SpecError(f"num_directions must lie in [0, {_magnitude(total)}], the size of G(n,k)")
    if params.get("translate", "zero") not in ("zero", "random"):
        raise SpecError(f"translate must be 'zero' or 'random', got {params['translate']!r}")
    if "density" in params and not 0 < params["density"] <= 1:
        raise SpecError(f"density must lie in (0, 1], got {params['density']}")
    for key in ("p_exp", "q_exp"):
        if key in params and params[key] < 1:
            raise SpecError(f"{key} must be >= 1, got {params[key]}")
    if ("p_exp" in params) != ("q_exp" in params):
        raise SpecError("p_exp and q_exp must be given together")
    if "seeds" in params and not params["seeds"]:
        raise SpecError("empty seed list")


def estimate_work(spec: ExperimentSpec) -> int:
    """Estimated work units of a spec, the budget's one measure: its kind's
    per-seed `work` times the number of seeds.  A range is counted as
    stop - start, since len() refuses one longer than sys.maxsize."""
    seeds = spec.params.get("seeds", [0])
    count = seeds.stop - seeds.start if isinstance(seeds, range) else len(seeds)
    return KINDS[spec.kind].work(**spec.params) * count


def run_experiment(spec: ExperimentSpec, budget: int = DEFAULT_BUDGET) -> List[Dict[str, object]]:
    """The spec's rows: "experiment", the spec's n, k, r and prime, then (for
    the seeded corpus kinds) "seed", then the kind's own columns."""
    estimate = estimate_work(spec)
    if estimate > budget:
        raise BudgetError(f"estimated work {_magnitude(estimate)} exceeds budget {budget}")
    params, kind = spec.params, KINDS[spec.kind]
    prefix = {"experiment": spec.kind, **{key: params[key] for key in _PREFIX_KEYS if key in params}}
    if "num_directions" in kind.required:
        return [
            {**prefix, "seed": seed, **kind.rows(params, cfg, incidence.incidence_count(cfg))}
            for seed, cfg in _corpus(params)
        ]
    return [{**prefix, **columns} for columns in kind.rows(params)]


def _corpus(params):
    n, k, p = params["n"], params["k"], params["prime"]
    fld = Field(p)
    for seed in params.get("seeds", [0]):
        yield seed, gen_random_config(
            n, k, params["num_directions"], params["density"], fld, seed
        )


def _census_rows(params) -> List[Dict[str, object]]:
    n, k, p = params["n"], params["k"], params["prime"]
    enumerated = sum(1 for _ in enumerate_grassmannian(n, k, Field(p)))
    formula = gaussian_binomial(n, k, p)
    return [{"enumerated": enumerated, "formula": formula, "verdict_match": enumerated == formula}]


def _main_bound_columns(report) -> Dict[str, object]:
    return {
        "ratio_main_bound": _sig(report.ratios["main_bound"]),
        "dominant_term": report.notes["dominant_term"],
    }


def _degenerate_rows(params) -> List[Dict[str, object]]:
    n, k, r, p = params["n"], params["k"], params["r"], params["prime"]
    cfg = gen_degenerate(n, k, r, Field(p))
    index = incidence.incidence_count(cfg)
    row = {
        "num_points": len(cfg.points),
        "num_flats": len(cfg.flats),
        "incidences": index.total,
        "verdict_worst_case": index.total == len(cfg.points) * len(cfg.flats),
        "expected_flats": gaussian_binomial(n - r, k - r, p),
        "asymptotic_flats": p ** ((k - r) * (n - k)),
    }
    if 2 <= k <= n - 2:
        row.update(_main_bound_columns(incidence.check_main_bound(cfg, index)))
    return [row]


def _nk_set_rows(params) -> List[Dict[str, object]]:
    n, k, p = params["n"], params["k"], params["prime"]
    translate = params.get("translate", "random")
    slack = params.get("slack", 8)
    fld = Field(p)
    exponent = Fraction(k * n + k + 1, k + 1)
    rows = []
    for seed in params.get("seeds", [0]):
        size = len(gen_nk_set(n, k, fld, translate_rule=translate, seed=seed))
        rows.append(
            {
                "translate": translate,
                "seed": seed,
                "set_size": size,
                "bound_exponent": _num_den(exponent),
                "slack": slack,
                # |E| >= p^exponent / slack, cross-multiplied over integers.
                "verdict_lower_bound": (slack * size) ** exponent.denominator >= p**exponent.numerator,
            }
        )
    return rows


def _incidence_bound_row(params, cfg, index) -> Dict[str, object]:
    report = incidence.check_main_bound(cfg, index)
    row = {**report.counts, **_main_bound_columns(report)}
    if "p_exp" in params:
        mic = incidence.check_max_ic(cfg, index, params["p_exp"], params["q_exp"])
        row["ratio_max_ic"] = _sig(mic.ratio_float)
        row["verdict_sup_chain"] = mic.chain_holds
    return row


def _two_ends_row(params, cfg, index) -> Dict[str, object]:
    decomp = incidence.jr_decompose(cfg, params["r"], index)
    return {
        "incidences": index.total,
        "jr_total": decomp.total,
        "verdict_partition": sum(decomp.strata) == decomp.total,
        "verdict_stratum0": decomp.strata[0] == index.total,
        **{f"stratum_{j}": count for j, count in enumerate(decomp.strata)},
    }


def _refinement_chain_row(params, cfg, index) -> Dict[str, object]:
    if index.total == 0:
        return {"incidences": 0}
    chain = incidence.build_refinement_chain(cfg, index)
    return {
        "incidences": index.total,
        "refined_incidences": chain.refined.refined_total,
        "refined_flats": chain.refined.num_flats,
        **{name: getattr(chain, name) for name in ("ik_prime", "ik", "vk_prime", "vk", "vkp", "d_size")},
        "verdict_holder_lower": chain.holder_lower_holds,
        "verdict_cs_lower": chain.cs_lower_holds,
    }


def _simplex_bounds_row(params, cfg, index) -> Dict[str, object]:
    report = simplex.simplex_bound_report(cfg, index)
    return {
        **report.counts,
        **{f"ratio_{name}": _sig(value) for name, value in report.ratios.items()},
        **{f"verdict_{name}": value for name, value in report.verdicts.items()},
        **report.notes,
    }


def _maximal_ratio_rows(params) -> List[Dict[str, object]]:
    result = maximal.empirical_norm_search(
        params["n"], params["k"], Field(params["prime"]), params["p_exp"], params["q_exp"],
        seed=params.get("seed", 0),
    )
    return [
        {
            "p_exp": _num_den(params["p_exp"]),
            "q_exp": _num_den(params["q_exp"]),
            "candidate": name,
            "ratio": _sig(result.all_ratios[name]),
            "verdict_best": name == result.best_name,
        }
        for name in sorted(result.all_ratios)
    ]


def _exponent_identity_rows(params) -> List[Dict[str, object]]:
    rows = []
    for k in range(2, params["kmax"] + 1):
        rows.append({"k": k, "r": "", "verdict_main_identity": exponents.verify_identity_main(k), "chain_variant": ""})
        rows.extend(
            {"k": k, "r": r, "verdict_main_identity": "", "chain_variant": exponents.verify_identity_chain(k, r).value}
            for r in range(1, k - 1)
        )
    return rows


class Kind(NamedTuple):
    """One experiment kind.  `in_domain` and `work` (units per seed) take the
    spec's parameters as keywords; `domain` states the domain for errors.  A
    corpus kind (one needing `num_directions`) gives one seed's columns by
    `rows(params, cfg, index)`, from the seed's configuration and its
    incidence index; any other kind a list of column dicts by `rows(params)`."""

    required: set
    optional: set
    domain: str
    in_domain: Callable[..., bool]
    work: Callable[..., int]
    rows: Callable


_CORPUS_KEYS = {"n", "k", "prime", "num_directions", "density"}


def _corpus_work(subset_sizes: Callable[..., Sequence[int]], walks: int,
                 n, k, prime, num_directions, density, **params) -> int:
    """Per-seed work units of a corpus kind: p^n to generate, p^k per flat to
    count incidences, RANK_TEST_COST per rank test of an s-subset of a flat's
    points, s in `subset_sizes` (jr_decompose 3..r+1, the chain k,
    count_simplices k+1), one per step of each of `walks` walks over the
    points flats share (`incidence.common_points`: the chain walks once,
    and simplex-bounds feeds that one walk to count_simplices too), and,
    with a walk, one per step of the chain's extended-pair tally
    (|P ∩ pi| per ordered flat pair (pi, pi_0) sharing a kept k-subset).  A flat holds c ~ Bin(p^k, d)
    points, so E[C(c, s)] = C(p^k, s) d^s.  A common-point walk takes
    sum over x in P of deg(x)^2 steps, deg(x) ~ Bin(N, q) the flats through
    x with q = p^(k-n): d p^n (N q (1-q) + N^2 q^2) in expectation over all
    N flats, a bound for any sub-family.  Two sampled directions meet in
    dimension k-1 with probability p [k 1]_p [n-k 1]_p / (|G(n,k)|-1), their
    flats then with p^(k+1-n), and two meeting flats share a kept k-subset
    with probability at most min(1, C(p^(k-1), k) d^k), their expected
    number of shared k-subsets; at density 1 it is exactly 1."""
    tests = sum(math.comb(prime**k, s) * density**s for s in subset_sizes(k=k, **params))
    total = prime**n + num_directions * (prime**k + RANK_TEST_COST * tests)
    if walks:
        q = Fraction(prime**k, prime**n)
        total += walks * density * prime**n * (num_directions * q * (1 - q) + (num_directions * q) ** 2)
        if num_directions > 1:
            meets = prime * gaussian_binomial(k, 1, prime) * gaussian_binomial(n - k, 1, prime)
            pairs = Fraction(num_directions * (num_directions - 1) * meets, gaussian_binomial(n, k, prime) - 1)
            sharing = min(1, math.comb(prime ** (k - 1), k) * density**k)
            total += pairs * Fraction(prime) ** (k + 1 - n) * sharing * prime**k * density
    return math.ceil(total)


def _maximal_work(n, k, prime, **_) -> int:
    """Work units of `maximal-ratio`: for each direction of G(n,k), one step
    per annihilator row and prefix of F^n (p + p^2 + ... + p^n of them, about
    one per point; a proxy sized from the key kernel's former prefix walk,
    not a count of what either kernel does now), one per binned point (the
    default family bins about 2 p^n) and MAXIMAL_DIRECTION_STEPS for the
    direction itself, MAXIMAL_STEPS_PER_UNIT steps a unit; and once,
    MAXIMAL_POINT_UNITS per point of F^n for the witnesses, which a run
    builds on all of F^n however few directions it has (see the comment
    above MAXIMAL_STEPS_PER_UNIT)."""
    prefixes = sum(prime**i for i in range(1, n + 1))
    steps = (n - k) * prefixes + 2 * prime**n + MAXIMAL_DIRECTION_STEPS
    return gaussian_binomial(n, k, prime) * steps // MAXIMAL_STEPS_PER_UNIT + MAXIMAL_POINT_UNITS * prime**n


def _points_and_flats_work(n, k, prime, **_) -> int:
    return gaussian_binomial(n, k, prime) * prime**k + prime**n


KINDS: Dict[str, Kind] = {
    "grassmann-census": Kind({"n", "k", "prime"}, set(), "0 <= k <= n", lambda n, k, **_: 0 <= k <= n,
                             lambda n, k, prime, **_: gaussian_binomial(n, k, prime) * n * n, _census_rows),
    "degenerate": Kind({"n", "k", "r", "prime"}, set(), "1 <= r < k <= n-1",
                       lambda n, k, r, **_: 1 <= r < k <= n - 1, _points_and_flats_work, _degenerate_rows),
    "nk-set": Kind({"n", "k", "prime"}, {"translate", "seeds", "slack"}, "1 <= k <= n-1 and slack >= 1",
                   lambda n, k, slack=8, **_: 1 <= k <= n - 1 and slack >= 1, _points_and_flats_work, _nk_set_rows),
    "incidence-bound": Kind(_CORPUS_KEYS, {"seeds", "p_exp", "q_exp"}, "2 <= k <= n-2",
                            lambda n, k, **_: 2 <= k <= n - 2, partial(_corpus_work, lambda **_: (), 0),
                            _incidence_bound_row),
    "two-ends": Kind(_CORPUS_KEYS | {"r"}, {"seeds"}, "1 <= r <= k <= n", lambda n, k, r, **_: 1 <= r <= k <= n,
                     partial(_corpus_work, lambda r, **_: range(3, r + 2), 0), _two_ends_row),
    "refinement-chain": Kind(_CORPUS_KEYS, {"seeds"}, "1 <= k <= n", lambda n, k, **_: 1 <= k <= n,
                             partial(_corpus_work, lambda k, **_: (k,), 1), _refinement_chain_row),
    "simplex-bounds": Kind(_CORPUS_KEYS, {"seeds"}, "1 <= k <= n", lambda n, k, **_: 1 <= k <= n,
                           partial(_corpus_work, lambda k, **_: (k, k + 1), 1), _simplex_bounds_row),
    "maximal-ratio": Kind({"n", "k", "prime", "p_exp", "q_exp"}, {"seed"},
                          "0 <= k <= n and p_exp, q_exp at most the largest float",
                          lambda n, k, p_exp, q_exp, **_: 0 <= k <= n and max(p_exp, q_exp) <= sys.float_info.max,
                          _maximal_work, _maximal_ratio_rows),
    "exponent-identities": Kind({"kmax"}, set(), "kmax >= 2", lambda kmax, **_: kmax >= 2, lambda kmax, **_: kmax**2,
                                _exponent_identity_rows),
}


def _magnitude(value) -> str:
    """An integer or a rational for a message: in full below 10^18, else as
    a power of ten, since str() refuses integers of more than 4300 digits."""
    return str(value) if value < 10**18 else f"about 10^{math.floor(math.log10(math.floor(value)))}"


def _num_den(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _sig(value: Optional[float]) -> Optional[float]:
    """Render a ratio to 6 significant digits; exact verdicts live in their
    own columns."""
    if value is None:
        return None
    if value == 0:
        return 0.0
    return float(f"{value:.6g}")


def write_csv(rows: Sequence[Dict[str, object]], path: Path) -> None:
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with path.open("w", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(row.get(col)) for col in columns] for row in rows)


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def write_json(rows: Sequence[Dict[str, object]], path: Path) -> None:
    path.write_text(json.dumps(list(rows), indent=2, default=str) + "\n")


def _selftest() -> int:
    failures = 0

    def check(name: str, test: Callable[[], bool]):
        # A fast path's internal assertion is a FAIL, and later lines still run.
        nonlocal failures
        try:
            ok = test()
        except AssertionError:
            ok = False
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    def simplices_agree(cfg, index) -> bool:
        return simplex.count_simplices(cfg, index) == simplex.count_simplices_bruteforce(cfg)

    for n, k, p in ((3, 1, 2), (4, 2, 3), (2, 1, 5)):
        enumerated = sum(1 for _ in enumerate_grassmannian(n, k, Field(p)))
        check(f"grassmann census ({n},{k},{p})", lambda: enumerated == gaussian_binomial(n, k, p))
    check("exponent identities k<=12", lambda: all(exponents.verify_identity_main(k) for k in range(2, 13)))
    for seed in range(5):
        cfg = gen_random_config(3, 1, 4, Fraction(1, 3), Field(3), seed)
        index = incidence.incidence_count(cfg)
        check(f"simplex oracle seed {seed}", lambda: simplices_agree(cfg, index))
    # In F_3^4 (all 130 planes, at most 26 points) most pairs of planes meet
    # in a single point, so the counters skip partners sharing fewer than k
    # points, which never happens in F_3^3.
    for n, num_directions, density in ((3, 8, Fraction(1, 2)), (4, 130, Fraction(1, 3))):
        for seed in range(3):
            cfg = gen_random_config(n, 2, num_directions, density, Field(3), seed)
            index = incidence.incidence_count(cfg)
            check(
                f"refinement chain oracle ({n},2,3) seed {seed}",
                lambda: all(
                    getattr(incidence.build_refinement_chain(cfg, index), name) == value
                    for name, value in incidence.build_refinement_chain_bruteforce(cfg).items()
                ),
            )
            check(f"simplex oracle ({n},2,3) seed {seed}", lambda: simplices_agree(cfg, index))
    # All 16 points of F_2^4 and one 3-flat of each of the 15 directions of
    # G(4,3): the first k = 3 simplex counts.  Over GF(2) any three distinct
    # points span; in F_3^4 (40 3-flats, 20-26 points) three points on a
    # line do not, so those lines reach k-subsets `common_points` drops.
    for p, num_directions, density in ((2, 15, Fraction(1)), (3, 40, Fraction(1, 3))):
        for seed in range(3):
            cfg = gen_random_config(4, 3, num_directions, density, Field(p), seed)
            index = incidence.incidence_count(cfg)
            check(f"simplex oracle (4,3,{p}) seed {seed}", lambda: simplices_agree(cfg, index))
    # The first k = 4 count: 18 points of F_2^5 on 20 4-flats, one simplex.
    cfg = gen_random_config(5, 4, 20, Fraction(3, 4), Field(2), 2)
    index = incidence.incidence_count(cfg)
    check("simplex oracle (5,4,2) seed 2", lambda: simplices_agree(cfg, index))
    # Over GF(2) any three distinct points span; over GF(3) three points of
    # a plane can lie on a line, so the (4,2,3) lines reach every stratum.
    for label, n, k, p, num_directions, rs in (("", 5, 3, 2, 8, (1, 2, 3)), (" (4,2,3)", 4, 2, 3, 40, (2,))):
        for seed in range(3):
            cfg = gen_random_config(n, k, num_directions, Fraction(1, 2), Field(p), seed)
            index = incidence.incidence_count(cfg)
            check(
                f"two-ends oracle{label} seed {seed}",
                lambda: all(
                    incidence.jr_decompose(cfg, r, index) == incidence.jr_decompose_bruteforce(cfg, r) for r in rs
                ),
            )
    # Three seeded flats of each dimension 0..4 in F_7^4, each point the
    # representative plus sum c_i row_i over `itertools.product` coefficients.
    fld, rng, same = Field(7), random.Random(0), True
    for dim in range(5):
        for _ in range(3):
            direction = unrank_grassmannian(4, dim, fld, rng.randrange(gaussian_binomial(4, dim, 7)))
            flat = make_flat(direction, tuple(rng.randrange(7) for _ in range(4)), fld)
            rows = direction.basis.rows
            expected = [
                tuple(
                    (x + sum(c * row[j] for c, row in zip(coeffs, rows))) % 7
                    for j, x in enumerate(flat.representative)
                )
                for coeffs in itertools.product(range(7), repeat=dim)
            ]
            same = same and list(enumerate_points(flat, fld)) == expected
    check("flat points by definition (4,2,7)", lambda: same)
    cfg = gen_degenerate(4, 2, 1, Field(3))
    index = incidence.incidence_count(cfg)
    check("degenerate worst case (4,2,1,3)", lambda: index.total == 39 == len(cfg.points) * len(cfg.flats))
    fld = Field(3)
    kernel = CosetKeys(gen_point_cloud(4, fld, Fraction(1, 3), 0), fld)
    check(
        "coset keys oracle G(4,2) p=3",
        lambda: all(
            kernel.keys(pi) == [coset_key(x, pi, fld) for x in kernel.points]
            for pi in enumerate_grassmannian(4, 2, fld)
        ),
    )
    # The default witnesses, one function of mixed denominators and one
    # constant 3/2 on a point cloud, over lines (two annihilator rows) and
    # planes (one row, the path of the maximal-ratio benchmark).
    family = list(maximal.default_candidates(3, 1, fld, 0).values())
    cloud = sorted(gen_point_cloud(3, fld, Fraction(1, 2), 1))
    weights = {x: Fraction(1 + i % 3, 1 + i % 4) for i, x in enumerate(cloud)}
    family.append(maximal.GridFunction.from_dict(fld, 3, weights))
    family.append(maximal.GridFunction.from_dict(fld, 3, dict.fromkeys(cloud, Fraction(3, 2))))
    for k in (1, 2):
        check(
            f"maximal family oracle (3,{k},3)",
            lambda: maximal.apply_maximal_many(family, 3, k)
            == [maximal.apply_maximal_bruteforce(f, 3, k) for f in family],
        )
    return 3 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="kplab", description=__doc__)
    parser.add_argument("--threads", type=int, default=0, help="worker hint (results are identical for any value)")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="work guard in estimated operations")
    parser.add_argument("--json", action="store_true", dest="json_only", help="print rows as JSON to stdout")
    parser.add_argument("--seed", type=int, default=None, help="run this one seed instead of the spec's seed or seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec file")
    run_p.add_argument("specfile", type=Path)

    census_p = sub.add_parser("census", help="Grassmannian census")
    census_p.add_argument("-n", type=int, required=True)
    census_p.add_argument("-k", type=int, required=True)
    census_p.add_argument("-p", type=int, required=True)

    verify_p = sub.add_parser("verify-exponents", help="exponent identity audit")
    verify_p.add_argument("--kmax", type=int, default=50)

    sub.add_parser("selftest", help="run the oracle-equivalence suite")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        if args.command == "selftest":
            return _selftest()
        if args.command == "census":
            spec = parse_spec(f"experiment=grassmann-census n={args.n} k={args.k} prime={args.p}")
        elif args.command == "verify-exponents":
            spec = parse_spec(f"experiment=exponent-identities kmax={args.kmax}")
        else:
            spec = parse_spec(args.specfile.read_text())
        if args.seed is not None:
            optional = KINDS[spec.kind].optional
            if "seeds" in optional:
                spec.params["seeds"] = [args.seed]
            elif "seed" in optional:
                spec.params["seed"] = args.seed
        rows = run_experiment(spec, budget=args.budget)
        if args.json_only:
            print(json.dumps(rows, indent=2, default=str))
        if spec.out:
            out_path = Path(spec.out)
            write_csv(rows, out_path)
            write_json(rows, out_path.with_suffix(".json"))
        elif not args.json_only:
            for row in rows:
                print(row)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except incidence.SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as internal failure
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
