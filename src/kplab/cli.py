"""Batch experiment runner: parses flat key=value experiment specs, drives
the generators and checkers, and writes CSV/JSON reports side by side.

Exit codes: 0 success, 1 spec error (a command-line usage error,
out-of-domain parameters, an unreadable spec or an unwritable output), 2 work refusal (the --budget estimate, made
before anything is generated), 3 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from . import exponents, incidence, maximal, oracles, simplex
from ._value import _Value
from .config import TRANSLATE_RULES, gen_degenerate, gen_nk_set, gen_random_config
from .field import Field, NotPrimeError
from .flats import enumerate_grassmannian, gaussian_binomial

DEFAULT_BUDGET = 50_000_000
# Work units per rank test, fitted to the time of a 2x2 `rref`, which is
# dearer than the cached `linalg.span` lookup that a charged rank test is.
# The work model's recalibration (ROADMAP.md) refits it.
RANK_TEST_COST = 10
# The terms of `_maximal_work`, fitted to older kernel times, so its
# estimate is several times the run.  The recalibration refits them too.
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


class ExperimentSpec(_Value):
    __slots__ = ("kind", "params", "out")

    def __init__(self, kind: str, params: Dict[str, object], out: Optional[str] = None):
        self.kind, self.params, self.out = kind, params, out


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
        n, k, p, count = (params[key] for key in ("n", "k", "prime", "num_directions"))
        if count < 0:
            raise SpecError(f"num_directions must be >= 0, got {count}")
        # |G(n,k)| >= 2^_grassmannian_floor_bits: only a count past that needs the size itself.
        if count.bit_length() > _grassmannian_floor_bits(n, k, p) and count > (total := gaussian_binomial(n, k, p)):
            raise SpecError(f"num_directions must lie in [0, {_magnitude(total)}], the size of G(n,k)")
    if params.get("translate", "zero") not in TRANSLATE_RULES:
        rules = " or ".join(map(repr, TRANSLATE_RULES))
        raise SpecError(f"translate must be {rules}, got {params['translate']!r}")
    if "density" in params and not 0 < params["density"] <= 1:
        raise SpecError(f"density must lie in (0, 1], got {params['density']}")
    for key in ("p_exp", "q_exp"):
        if key in params and params[key] < 1:
            raise SpecError(f"{key} must be >= 1, got {params[key]}")
    if ("p_exp" in params) != ("q_exp" in params):
        raise SpecError("p_exp and q_exp must be given together")
    if "seeds" in params and not params["seeds"]:
        raise SpecError("empty seed list")


def _grassmannian_floor_bits(n: int, k: int, p: int) -> int:
    """A b with 2^b <= |G(n,k)| over GF(p), found without big ints:
    |G(n,k)| >= p^(k(n-k)), and p >= 2^(bits of p - 1)."""
    return k * (n - k) * (p.bit_length() - 1)


def _work_floor_bits(kind: str, params: Dict[str, object]) -> int:
    """A b with 2^b at most the spec's work per seed, found without big
    ints, so a spec far over the budget is refused before its exact
    estimate is computed: the census charges |G(n,k)| n^2 and every other
    kind with a prime at least p^n (its points, or F^n's)."""
    if "prime" not in params:
        return 0
    n, k, p = params["n"], params["k"], params["prime"]
    return _grassmannian_floor_bits(n, k, p) if kind == "grassmann-census" else n * (p.bit_length() - 1)


def estimate_work(spec: ExperimentSpec) -> int:
    """Estimated work units of a spec, the budget's one measure: its kind's
    per-seed `work` times the number of seeds.  A range is counted as
    stop - start, since len() refuses one longer than sys.maxsize."""
    seeds = spec.params.get("seeds", [0])
    count = seeds.stop - seeds.start if isinstance(seeds, range) else len(seeds)
    return KINDS[spec.kind].work(**spec.params) * count


def run_experiment(spec: ExperimentSpec, budget: int = DEFAULT_BUDGET) -> List[Dict[str, object]]:
    """The spec's rows: "experiment", the spec's n, k, r and prime, then (for
    the seeded corpus kinds) "seed", then the kind's own columns.  This is
    the one place a float is rendered, to 6 significant digits (`_sig`)."""
    floor = _work_floor_bits(spec.kind, spec.params)
    if floor > budget.bit_length():  # then 2^floor > budget
        raise BudgetError(f"estimated work at least 2^{floor} exceeds budget {budget}")
    estimate = estimate_work(spec)
    if estimate > budget:
        raise BudgetError(f"estimated work {_magnitude(estimate)} exceeds budget {budget}")
    params, kind = spec.params, KINDS[spec.kind]
    prefix = {"experiment": spec.kind, **{key: params[key] for key in _PREFIX_KEYS if key in params}}
    if "num_directions" in kind.required:
        rows = [
            {**prefix, "seed": seed, **kind.rows(params, cfg, incidence.incidence_count(cfg))}
            for seed, cfg in _corpus(params)
        ]
    else:
        rows = [{**prefix, **columns} for columns in kind.rows(params)]
    return [{key: _sig(value) if isinstance(value, float) else value for key, value in row.items()} for row in rows]


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


def _degenerate_rows(params) -> List[Dict[str, object]]:
    n, k, r, p = params["n"], params["k"], params["r"], params["prime"]
    cfg = gen_degenerate(n, k, r, Field(p))
    index = incidence.incidence_count(cfg)
    row = {
        **incidence._row_head(cfg, index),
        "verdict_worst_case": index.total == len(cfg.points) * len(cfg.flats),
        "expected_flats": gaussian_binomial(n - r, k - r, p),
        "asymptotic_flats": p ** ((k - r) * (n - k)),
    }
    if 2 <= k <= n - 2:
        bound = incidence.check_main_bound(cfg, index)
        row.update({key: bound[key] for key in ("ratio_main_bound", "dominant_term")})
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
    row = incidence.check_main_bound(cfg, index)
    if "p_exp" in params:
        mic = incidence.check_max_ic(cfg, index, params["p_exp"], params["q_exp"])
        row["ratio_max_ic"] = None if mic.ratio is None else float(mic.ratio)
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
            "ratio": result.all_ratios[name],
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
    per annihilator row and prefix of F^n (p + p^2 + ... + p^n of them, a
    proxy of about one step per point, not a count of what either coset
    kernel does), one per binned point (2 p^n, what the whole default
    family bins) and MAXIMAL_DIRECTION_STEPS for the direction itself,
    MAXIMAL_STEPS_PER_UNIT steps a unit; and once, MAXIMAL_POINT_UNITS per
    point of F^n for the witnesses, which a run draws on all of F^n however
    few directions it has.  The search now walks only the random witnesses,
    about 7/8 p^n binned points, and builds no constant on F^n, so both
    terms overstate it; the work model's recalibration refits them."""
    prefixes = (prime ** (n + 1) - prime) // (prime - 1)
    steps = (n - k) * prefixes + 2 * prime**n + MAXIMAL_DIRECTION_STEPS
    return gaussian_binomial(n, k, prime) * steps // MAXIMAL_STEPS_PER_UNIT + MAXIMAL_POINT_UNITS * prime**n


def _flats_work(n, k, prime, r=0, translate="random", **_) -> int:
    """Per seed, p^n for the points and p^k for each flat built: one per
    direction of G(n-r, k-r), the degenerate flats (nk-set's random rule
    at r = 0); the zero rule of nk-set builds none, its set being F^n."""
    flats = 0 if translate == "zero" else gaussian_binomial(n - r, k - r, prime)
    return flats * prime**k + prime**n


KINDS: Dict[str, Kind] = {
    "grassmann-census": Kind({"n", "k", "prime"}, set(), "0 <= k <= n", lambda n, k, **_: 0 <= k <= n,
                             lambda n, k, prime, **_: gaussian_binomial(n, k, prime) * n * n, _census_rows),
    "degenerate": Kind({"n", "k", "r", "prime"}, set(), "1 <= r < k <= n-1",
                       lambda n, k, r, **_: 1 <= r < k <= n - 1, _flats_work, _degenerate_rows),
    "nk-set": Kind({"n", "k", "prime"}, {"translate", "seeds", "slack"}, "1 <= k <= n-1 and slack >= 1",
                   lambda n, k, slack=8, **_: 1 <= k <= n - 1 and slack >= 1, _flats_work, _nk_set_rows),
    "incidence-bound": Kind(_CORPUS_KEYS, {"seeds", "p_exp", "q_exp"}, "2 <= k <= n-2",
                            lambda n, k, **_: 2 <= k <= n - 2, partial(_corpus_work, lambda **_: (), 0),
                            _incidence_bound_row),
    "two-ends": Kind(_CORPUS_KEYS | {"r"}, {"seeds"}, "1 <= r <= k <= n", lambda n, k, r, **_: 1 <= r <= k <= n,
                     partial(_corpus_work, lambda r, **_: range(3, r + 2), 0), _two_ends_row),
    "refinement-chain": Kind(_CORPUS_KEYS, {"seeds"}, "1 <= k <= n", lambda n, k, **_: 1 <= k <= n,
                             partial(_corpus_work, lambda k, **_: (k,), 1), _refinement_chain_row),
    "simplex-bounds": Kind(_CORPUS_KEYS, {"seeds"}, "1 <= k <= n", lambda n, k, **_: 1 <= k <= n,
                           partial(_corpus_work, lambda k, **_: (k, k + 1), 1),
                           lambda params, cfg, index: simplex.simplex_bound_report(cfg, index)),
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


def _sig(value: float) -> float:
    """Render a ratio to 6 significant digits; exact verdicts live in their
    own columns, all but `maximal-ratio`'s `verdict_best`, which compares
    the unrendered float ratios."""
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first `main` call and kept:
    building it costs about 20 times what parsing one command line does,
    and a process running many specs calls `main` once per spec.  Parsing
    leaves the parser as it was, so the calls share nothing through it."""
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        if args.command == "selftest":
            return oracles.selftest()
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
