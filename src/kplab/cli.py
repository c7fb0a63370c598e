"""Batch experiment runner: parses flat key=value experiment specs, drives
the generators and checkers, and writes CSV/JSON reports side by side.

Exit codes: 0 success, 1 spec error (including out-of-domain parameters),
2 work refusal (the --budget estimate or a library size guard), 3 internal
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import exponents, incidence, maximal, simplex
from .config import gen_degenerate, gen_nk_set, gen_random_config
from .field import Field, NotPrimeError
from .flats import enumerate_grassmannian, gaussian_binomial

DEFAULT_BUDGET = 50_000_000

EXPERIMENT_KINDS = (
    "grassmann-census",
    "degenerate",
    "nk-set",
    "incidence-bound",
    "two-ends",
    "refinement-chain",
    "simplex-bounds",
    "maximal-ratio",
    "exponent-identities",
)

# Per-kind parameter schema: (required, optional).
_SCHEMAS: Dict[str, tuple] = {
    "grassmann-census": ({"n", "k", "prime"}, set()),
    "degenerate": ({"n", "k", "r", "prime"}, set()),
    "nk-set": ({"n", "k", "prime"}, {"translate", "seeds", "slack"}),
    "incidence-bound": (
        {"n", "k", "prime", "num_directions", "density"},
        {"seeds", "p_exp", "q_exp"},
    ),
    "two-ends": ({"n", "k", "r", "prime", "num_directions", "density"}, {"seeds"}),
    "refinement-chain": ({"n", "k", "prime", "num_directions", "density"}, {"seeds"}),
    "simplex-bounds": ({"n", "k", "prime", "num_directions", "density"}, {"seeds"}),
    "maximal-ratio": ({"n", "k", "prime", "p_exp", "q_exp"}, {"seed"}),
    "exponent-identities": ({"kmax"}, set()),
}

_INT_KEYS = {"n", "k", "r", "prime", "num_directions", "seed", "kmax", "slack"}
_RATIONAL_KEYS = {"density", "p_exp", "q_exp"}

# Per-kind domain of the dimensions (n, k, r): what the generators and
# checkers of that kind accept.
_DIMENSIONS: Dict[str, tuple] = {
    "grassmann-census": ("0 <= k <= n", lambda n, k, r: 0 <= k <= n),
    "degenerate": ("1 <= r < k <= n-1", lambda n, k, r: 1 <= r < k <= n - 1),
    "nk-set": ("1 <= k <= n-1", lambda n, k, r: 1 <= k <= n - 1),
    "incidence-bound": ("2 <= k <= n-2", lambda n, k, r: 2 <= k <= n - 2),
    "two-ends": ("1 <= r <= k <= n", lambda n, k, r: 1 <= r <= k <= n),
    "refinement-chain": ("1 <= k <= n", lambda n, k, r: 1 <= k <= n),
    "simplex-bounds": ("1 <= k <= n", lambda n, k, r: 1 <= k <= n),
    "maximal-ratio": ("0 <= k <= n", lambda n, k, r: 0 <= k <= n),
}


class SpecError(ValueError):
    pass


class BudgetError(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(f"estimated work {estimate} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


@dataclass
class ExperimentSpec:
    kind: str
    params: Dict[str, object]
    out: Optional[str] = None

    def render(self) -> str:
        lines = [f"experiment={self.kind}"]
        for key in sorted(self.params):
            lines.append(f"{key}={_render_value(self.params[key])}")
        if self.out:
            lines.append(f"out={self.out}")
        return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_seeds(text: str) -> List[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


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
    if kind not in _SCHEMAS:
        raise SpecError(f"unknown experiment {kind!r}; known: {', '.join(EXPERIMENT_KINDS)}")
    out = pairs.pop("out", None)
    required, optional = _SCHEMAS[kind]
    allowed = required | optional
    unknown = set(pairs) - allowed
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
    if kind in _DIMENSIONS:
        n, k, r = params["n"], params["k"], params.get("r")
        text, ok = _DIMENSIONS[kind]
        if not ok(n, k, r):
            got = f"n={n}, k={k}" + (f", r={r}" if r is not None else "")
            raise SpecError(f"{kind} needs {text}, got {got}")
    if "num_directions" in params:
        total = gaussian_binomial(params["n"], params["k"], params["prime"])
        if not 0 <= params["num_directions"] <= total:
            raise SpecError(f"num_directions must lie in [0, {total}], the size of G(n,k)")
    if params.get("translate", "zero") not in ("zero", "random"):
        raise SpecError(f"translate must be 'zero' or 'random', got {params['translate']!r}")
    if "density" in params and not 0 < params["density"] <= 1:
        raise SpecError(f"density must lie in (0, 1], got {params['density']}")
    for key in ("p_exp", "q_exp"):
        if key in params and params[key] < 1:
            raise SpecError(f"{key} must be >= 1, got {params[key]}")
    if params.get("seeds") == []:
        raise SpecError("empty seed list")


def estimate_work(spec: ExperimentSpec) -> int:
    """Rough operation-count estimate used by the budget guard."""
    params = spec.params
    if spec.kind == "exponent-identities":
        return int(params["kmax"]) ** 2
    if spec.kind == "grassmann-census":
        p, n, k = params["prime"], params["n"], params["k"]
        return gaussian_binomial(n, k, p) * n * n
    p = params.get("prime", 2)
    n = params.get("n", 2)
    k = params.get("k", 1)
    num_flats = params.get("num_directions", gaussian_binomial(n, k, p))
    num_seeds = len(params.get("seeds", [0]))
    per_seed = num_flats * p**k + p**n
    if spec.kind in ("refinement-chain", "simplex-bounds"):
        per_seed += num_flats * p ** (k * k)
    if spec.kind == "maximal-ratio":
        per_seed = gaussian_binomial(n, k, p) * p**n * 10
    return per_seed * num_seeds


def run_experiment(spec: ExperimentSpec, budget: int = DEFAULT_BUDGET) -> List[Dict[str, object]]:
    estimate = estimate_work(spec)
    if estimate > budget:
        raise BudgetError(estimate, budget)
    handler = _HANDLERS[spec.kind]
    return handler(spec.params)


def _run_grassmann_census(params) -> List[Dict[str, object]]:
    n, k, p = params["n"], params["k"], params["prime"]
    fld = Field(p)
    enumerated = sum(1 for _ in enumerate_grassmannian(n, k, fld))
    formula = gaussian_binomial(n, k, p)
    return [
        {
            "experiment": "grassmann-census",
            "n": n,
            "k": k,
            "prime": p,
            "enumerated": enumerated,
            "formula": formula,
            "verdict_match": enumerated == formula,
        }
    ]


def _run_degenerate(params) -> List[Dict[str, object]]:
    n, k, r, p = params["n"], params["k"], params["r"], params["prime"]
    fld = Field(p)
    cfg = gen_degenerate(n, k, r, fld)
    index = incidence.incidence_count(cfg)
    row = {
        "experiment": "degenerate",
        "n": n,
        "k": k,
        "r": r,
        "prime": p,
        "num_points": len(cfg.points),
        "num_flats": len(cfg.flats),
        "incidences": index.total,
        "verdict_worst_case": index.total == len(cfg.points) * len(cfg.flats),
        "expected_flats": gaussian_binomial(n - r, k - r, p),
        "asymptotic_flats": p ** ((k - r) * (n - k)),
    }
    if 2 <= k <= n - 2:
        report = incidence.check_main_bound(cfg)
        row["ratio_main_bound"] = _sig(report.ratios["main_bound"])
        row["dominant_term"] = report.notes["dominant_term"]
    return [row]


def _run_nk_set(params) -> List[Dict[str, object]]:
    n, k, p = params["n"], params["k"], params["prime"]
    translate = params.get("translate", "random")
    seeds = params.get("seeds", [0])
    slack = params.get("slack", 8)
    fld = Field(p)
    exponent = Fraction(k * n + k + 1, k + 1)
    rows = []
    for seed in seeds:
        e = gen_nk_set(n, k, fld, translate_rule=translate, seed=seed)
        size = len(e)
        # |E| >= p^exponent / slack, cross-multiplied over integers.
        holds = (slack * size) ** exponent.denominator >= p**exponent.numerator
        rows.append(
            {
                "experiment": "nk-set",
                "n": n,
                "k": k,
                "prime": p,
                "translate": translate,
                "seed": seed,
                "set_size": size,
                "bound_exponent": f"{exponent.numerator}/{exponent.denominator}",
                "slack": slack,
                "verdict_lower_bound": holds,
            }
        )
    return rows


def _corpus(params):
    n, k, p = params["n"], params["k"], params["prime"]
    fld = Field(p)
    for seed in params.get("seeds", [0]):
        yield seed, gen_random_config(
            n, k, params["num_directions"], params["density"], fld, seed
        )


def _run_incidence_bound(params) -> List[Dict[str, object]]:
    rows = []
    for seed, cfg in _corpus(params):
        report = incidence.check_main_bound(cfg)
        row = {
            "experiment": "incidence-bound",
            "n": cfg.n,
            "k": cfg.k,
            "prime": cfg.field.p,
            "seed": seed,
        }
        row.update(report.counts)
        row["ratio_main_bound"] = _sig(report.ratios["main_bound"])
        row["dominant_term"] = report.notes.get("dominant_term")
        if "p_exp" in params and "q_exp" in params:
            mic = incidence.check_max_ic(cfg, params["p_exp"], params["q_exp"])
            row["ratio_max_ic"] = _sig(mic.ratio_float)
            row["verdict_sup_chain"] = mic.chain_holds
        rows.append(row)
    return rows


def _run_two_ends(params) -> List[Dict[str, object]]:
    r = params["r"]
    rows = []
    for seed, cfg in _corpus(params):
        index = incidence.incidence_count(cfg)
        decomp = incidence.jr_decompose(cfg, r, index)
        row = {
            "experiment": "two-ends",
            "n": cfg.n,
            "k": cfg.k,
            "r": r,
            "prime": cfg.field.p,
            "seed": seed,
            "incidences": index.total,
            "jr_total": decomp.total,
            "verdict_partition": sum(decomp.strata) == decomp.total,
            "verdict_stratum0": decomp.strata[0] == index.total,
        }
        for j, count in enumerate(decomp.strata):
            row[f"stratum_{j}"] = count
        rows.append(row)
    return rows


def _run_refinement_chain(params) -> List[Dict[str, object]]:
    rows = []
    for seed, cfg in _corpus(params):
        base = {
            "experiment": "refinement-chain",
            "n": cfg.n,
            "k": cfg.k,
            "prime": cfg.field.p,
            "seed": seed,
        }
        index = incidence.incidence_count(cfg)
        if index.total == 0:
            base["incidences"] = 0
            rows.append(base)
            continue
        chain = incidence.build_refinement_chain(cfg)
        base.update(
            {
                "incidences": index.total,
                "refined_incidences": chain.refined.refined_total,
                "refined_flats": chain.refined.num_flats,
                "ik_prime": chain.ik_prime,
                "ik": chain.ik,
                "vk_prime": chain.vk_prime,
                "vk": chain.vk,
                "vkp": chain.vkp,
                "d_size": chain.d_size,
                "verdict_holder_lower": chain.holder_lower_holds,
                "verdict_cs_lower": chain.cs_lower_holds,
            }
        )
        rows.append(base)
    return rows


def _run_simplex_bounds(params) -> List[Dict[str, object]]:
    rows = []
    for seed, cfg in _corpus(params):
        report = simplex.simplex_bound_report(cfg)
        row = {
            "experiment": "simplex-bounds",
            "n": cfg.n,
            "k": cfg.k,
            "prime": cfg.field.p,
            "seed": seed,
        }
        row.update(report.counts)
        for name, value in report.ratios.items():
            row[f"ratio_{name}"] = _sig(value)
        for name, value in report.verdicts.items():
            row[f"verdict_{name}"] = value
        row.update(report.notes)
        rows.append(row)
    return rows


def _run_maximal_ratio(params) -> List[Dict[str, object]]:
    n, k, p = params["n"], params["k"], params["prime"]
    fld = Field(p)
    result = maximal.empirical_norm_search(
        n, k, fld, params["p_exp"], params["q_exp"], seed=params.get("seed", 0)
    )
    rows = []
    for name in sorted(result.all_ratios):
        rows.append(
            {
                "experiment": "maximal-ratio",
                "n": n,
                "k": k,
                "prime": p,
                "p_exp": _render_value(params["p_exp"]),
                "q_exp": _render_value(params["q_exp"]),
                "candidate": name,
                "ratio": _sig(result.all_ratios[name]),
                "verdict_best": name == result.best_name,
            }
        )
    return rows


def _run_exponent_identities(params) -> List[Dict[str, object]]:
    kmax = params["kmax"]
    rows = []
    for k in range(2, kmax + 1):
        rows.append(
            {
                "experiment": "exponent-identities",
                "k": k,
                "r": "",
                "verdict_main_identity": exponents.verify_identity_main(k),
                "chain_variant": "",
            }
        )
        for r in range(1, k - 1):
            rows.append(
                {
                    "experiment": "exponent-identities",
                    "k": k,
                    "r": r,
                    "verdict_main_identity": "",
                    "chain_variant": exponents.verify_identity_chain(k, r).value,
                }
            )
    return rows


_HANDLERS = {
    "grassmann-census": _run_grassmann_census,
    "degenerate": _run_degenerate,
    "nk-set": _run_nk_set,
    "incidence-bound": _run_incidence_bound,
    "two-ends": _run_two_ends,
    "refinement-chain": _run_refinement_chain,
    "simplex-bounds": _run_simplex_bounds,
    "maximal-ratio": _run_maximal_ratio,
    "exponent-identities": _run_exponent_identities,
}


def _sig(value: Optional[float], digits: int = 6) -> Optional[float]:
    """Render a ratio to 6 significant digits; exact verdicts live in their
    own columns."""
    if value is None:
        return None
    if value == 0:
        return 0.0
    return float(f"{value:.{digits}g}")


def write_csv(rows: Sequence[Dict[str, object]], path: Path) -> None:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_json(rows: Sequence[Dict[str, object]], path: Path) -> None:
    path.write_text(json.dumps(list(rows), indent=2, default=str) + "\n")


def _selftest() -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    for n, k, p in ((3, 1, 2), (4, 2, 3), (2, 1, 5)):
        fld = Field(p)
        enumerated = sum(1 for _ in enumerate_grassmannian(n, k, fld))
        check(f"grassmann census ({n},{k},{p})", enumerated == gaussian_binomial(n, k, p))
    check("exponent identities k<=12", all(exponents.verify_identity_main(k) for k in range(2, 13)))
    for seed in range(5):
        cfg = gen_random_config(3, 1, 4, Fraction(1, 3), Field(3), seed)
        fast = simplex.count_simplices(cfg)
        brute = simplex.count_simplices_bruteforce(cfg)
        check(f"simplex oracle seed {seed}", fast == brute)
    cfg = gen_degenerate(4, 2, 1, Field(3))
    index = incidence.incidence_count(cfg)
    check("degenerate worst case (4,2,1,3)", index.total == 39 == len(cfg.points) * len(cfg.flats))
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

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _selftest()
        if args.command == "census":
            spec = parse_spec(f"experiment=grassmann-census n={args.n} k={args.k} prime={args.p}")
        elif args.command == "verify-exponents":
            spec = parse_spec(f"experiment=exponent-identities kmax={args.kmax}")
        else:
            try:
                spec = parse_spec(args.specfile.read_text())
            except OSError as exc:
                print(f"spec error: {exc}", file=sys.stderr)
                return 1
        if args.seed is not None:
            allowed = _SCHEMAS[spec.kind][0] | _SCHEMAS[spec.kind][1]
            if "seeds" in allowed:
                spec.params["seeds"] = [args.seed]
            elif "seed" in allowed:
                spec.params["seed"] = args.seed
        rows = run_experiment(spec, budget=args.budget)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, incidence.SizeGuardError, simplex.SizeError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as internal failure
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3

    if args.json_only:
        print(json.dumps(rows, indent=2, default=str))
    if spec.out:
        out_path = Path(spec.out)
        write_csv(rows, out_path)
        write_json(rows, out_path.with_suffix(".json"))
    elif not args.json_only:
        for row in rows:
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
