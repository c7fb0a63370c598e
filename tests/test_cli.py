import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kplab import cli, maximal

# One small spec per experiment kind and the SHA-256 of its rows rendered as
# the `.json` mirror renders them.  The incidence-bound seeds include one with
# no incidences, and the simplex-bounds seeds both zero and nonzero simplex
# counts.
PINNED_ROWS = {
    "grassmann-census": (
        "experiment=grassmann-census n=4 k=2 prime=3",
        "db633dfbd60a511d238f9d3564882db20e2ff413a0b997cb3ef2d842c59879d9",
    ),
    "degenerate": (
        "experiment=degenerate n=4 k=2 r=1 prime=3",
        "1dfd90dc247f7aa8b51b356fbf55f23512f479b2983508c00b77ea993afc0347",
    ),
    "nk-set": (
        "experiment=nk-set n=3 k=1 prime=3 seeds=0..2",
        "448cd1e1c9461e2293227d8d1a7f251bba7fab3531e1711d506bf875506a8851",
    ),
    "incidence-bound": (
        "experiment=incidence-bound n=4 k=2 prime=3 num_directions=6 density=1/9 "
        "p_exp=11/6 q_exp=22/5 seeds=0..5",
        "dafaa71ebc5e3eabe3e317513c41b03cdc5e37614539ef45b9563c35c14517cd",
    ),
    # 23, 32 and 26 points, fewer than 7^2: the probe side of incidence_count,
    # and CosetKeys in 2-byte lanes (7^3 = 343 cosets a plane) for the max IC.
    "incidence-bound lanes": (
        "experiment=incidence-bound n=5 k=2 prime=7 num_directions=60 density=1/512 "
        "p_exp=13/6 q_exp=39/7 seeds=0..2",
        "f14f9e40a8987d2cedd68b55ff07ebe0151c3825e72cb5d5b1695459579b8064",
    ),
    "two-ends": (
        "experiment=two-ends n=4 k=2 r=2 prime=3 num_directions=6 density=1/2 seeds=0..3",
        "e495797d52771a1fa1de6753003946c2329d2fadc852c31e5989d856fe4d5835",
    ),
    # Strata 2 and 3 are nonzero on every seed, so 4-point subsets reach the rows.
    "two-ends r=3": (
        "experiment=two-ends n=5 k=3 r=3 prime=2 num_directions=8 density=1/2 seeds=0..2",
        "af60f7c63030e790e161746b951962fccf3fe5deab4503227b72a828bfff3043",
    ),
    "refinement-chain": (
        "experiment=refinement-chain n=3 k=2 prime=3 num_directions=6 density=1/2 seeds=0..3",
        "411ea6825c7ad1c0ef84c0b391c9ea714a923ad5b822bd82543c7778e18bdf9d",
    ),
    "simplex-bounds": (
        "experiment=simplex-bounds n=3 k=2 prime=3 num_directions=13 density=2/3 seeds=0..5",
        "3e305ab437a78ccc0d422da041de4d42c169923332f455eec3821f25c34c85e0",
    ),
    # n > k+1, so each refined plane lies in six 3-flats and λ varies.
    "simplex-bounds n=4": (
        "experiment=simplex-bounds n=4 k=2 prime=5 num_directions=300 density=1/2 seeds=0",
        "c137adffafa01dd2985c68fd59372cfc77bd2e1223cbd3d8ec2a8cc3c1385cde",
    ),
    "maximal-ratio": (
        "experiment=maximal-ratio n=3 k=1 prime=3 p_exp=3/2 q_exp=3",
        "9c7b20224a6c1a2ee37b665db045a875f8fef3a43a2cd37a433d55b3fffe58cc",
    ),
    # Five candidates print the same ratio and `point` alone is best: the
    # verdict sits on a float tie, so a reordered or rescaled norm shows here.
    "maximal-ratio tie": (
        "experiment=maximal-ratio n=3 k=2 prime=5 p_exp=3/2 q_exp=3 seed=1",
        "bb7595510a3fcc8349fe3c11c48b20ab637369331830e2245288cbdd25a3614c",
    ),
    # 2^2000 overflows a float, so the norms take the largest value out.
    "maximal-ratio large q": (
        "experiment=maximal-ratio n=2 k=1 prime=2 p_exp=2 q_exp=2000",
        "3c7d5b0894f1de49fced23d8fcfe5b12d5e0ccb6b0f94953d2bee37b42c53ece",
    ),
    "exponent-identities": (
        "experiment=exponent-identities kmax=6",
        "9dbb5433f980c2529c11384f8b5909c65d0f94be4b7bc61e1cc7454d3311984d",
    ),
}

# The kinds whose rows are a library function's row.
BOUND_KINDS = ("degenerate", "incidence-bound", "simplex-bounds")


# The lines `kplab selftest` prints, in order.
SELFTEST_LINES = [
    "grassmann census (3,1,2)",
    "grassmann census (4,2,3)",
    "grassmann census (2,1,5)",
    "exponent identities k<=12",
    "simplex oracle seed 0",
    "simplex oracle seed 1",
    "simplex oracle seed 2",
    "simplex oracle seed 3",
    "simplex oracle seed 4",
    "refinement chain oracle (3,2,3) seed 0",
    "simplex oracle (3,2,3) seed 0",
    "refinement chain oracle (3,2,3) seed 1",
    "simplex oracle (3,2,3) seed 1",
    "refinement chain oracle (3,2,3) seed 2",
    "simplex oracle (3,2,3) seed 2",
    "refinement chain oracle (4,2,3) seed 0",
    "simplex oracle (4,2,3) seed 0",
    "refinement chain oracle (4,2,3) seed 1",
    "simplex oracle (4,2,3) seed 1",
    "refinement chain oracle (4,2,3) seed 2",
    "simplex oracle (4,2,3) seed 2",
    "simplex oracle (4,3,2) seed 0",
    "simplex oracle (4,3,2) seed 1",
    "simplex oracle (4,3,2) seed 2",
    "simplex oracle (4,3,3) seed 0",
    "simplex oracle (4,3,3) seed 1",
    "simplex oracle (4,3,3) seed 2",
    "simplex oracle (5,4,2) seed 2",
    "two-ends oracle seed 0",
    "two-ends oracle seed 1",
    "two-ends oracle seed 2",
    "two-ends oracle (4,2,3) seed 0",
    "two-ends oracle (4,2,3) seed 1",
    "two-ends oracle (4,2,3) seed 2",
    "flat points by definition (4,2,7)",
    "degenerate worst case (4,2,1,3)",
    "coset keys oracle G(4,2) p=3",
    "design moments G(3,2) p=5",
    "maximal family oracle (3,1,3)",
    "maximal family oracle (3,2,3)",
]


class TestParseSpec:
    def test_minimal_valid(self):
        spec = cli.parse_spec("experiment=degenerate n=4 k=2 r=1 prime=3 out=deg.csv")
        assert spec.kind == "degenerate"
        assert spec.params == {"n": 4, "k": 2, "r": 1, "prime": 3}
        assert spec.out == "deg.csv"

    def test_one_key_per_line_with_comments(self):
        text = """
        # census of the Grassmannian
        experiment=grassmann-census
        n=4
        k=2   # ambient pair
        prime=3
        """
        spec = cli.parse_spec(text)
        assert spec.kind == "grassmann-census"
        assert spec.params == {"n": 4, "k": 2, "prime": 3}

    def test_rational_values(self):
        spec = cli.parse_spec(
            "experiment=maximal-ratio n=4 k=2 prime=3 p_exp=11/6 q_exp=22/5"
        )
        assert spec.params["p_exp"] == Fraction(11, 6)
        assert spec.params["q_exp"] == Fraction(22, 5)

    def test_seed_range(self):
        spec = cli.parse_spec(
            "experiment=two-ends n=4 k=2 r=1 prime=3 num_directions=4 density=1/2 seeds=1..5"
        )
        # A range, not a list, so a huge one is refused before it is built.
        assert isinstance(spec.params["seeds"], range)
        assert list(spec.params["seeds"]) == [1, 2, 3, 4, 5]

    def test_exponent_past_float_named(self):
        # 10^400 has 401 digits, so the message gives its power of ten.
        with pytest.raises(cli.SpecError, match=r"got n=2, k=1, p_exp=about 10\^400, q_exp=2$"):
            cli.parse_spec("experiment=maximal-ratio n=2 k=1 prime=2 p_exp=1e400 q_exp=2")

    def test_non_prime_rejected(self):
        with pytest.raises(cli.SpecError, match="prime"):
            cli.parse_spec("experiment=grassmann-census n=4 k=2 prime=9")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.SpecError, match="duplicate"):
            cli.parse_spec("experiment=degenerate n=4 n=5 k=2 r=1 prime=3")

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.SpecError, match="unknown keys"):
            cli.parse_spec("experiment=degenerate n=4 k=2 r=1 prime=3 shape=round")

    def test_missing_experiment_rejected(self):
        with pytest.raises(cli.SpecError, match="experiment"):
            cli.parse_spec("n=4 k=2")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(cli.SpecError, match="unknown experiment"):
            cli.parse_spec("experiment=frobnicate n=4")

    def test_missing_required_key_rejected(self):
        with pytest.raises(cli.SpecError, match="missing mandatory"):
            cli.parse_spec("experiment=degenerate n=4 k=2 prime=3")


class TestRunExperiment:
    def test_census_row(self):
        spec = cli.parse_spec("experiment=grassmann-census n=4 k=2 prime=3")
        rows = cli.run_experiment(spec)
        assert rows == [
            {
                "experiment": "grassmann-census",
                "n": 4,
                "k": 2,
                "prime": 3,
                "enumerated": 130,
                "formula": 130,
                "verdict_match": True,
            }
        ]

    def test_degenerate_row(self):
        spec = cli.parse_spec("experiment=degenerate n=4 k=2 r=1 prime=3")
        (row,) = cli.run_experiment(spec)
        assert row["num_points"] == 3
        assert row["num_flats"] == 13
        assert row["incidences"] == 39
        assert row["verdict_worst_case"] is True
        assert row["dominant_term"] == "Pi_F"

    def test_exponent_identity_rows(self):
        spec = cli.parse_spec("experiment=exponent-identities kmax=6")
        rows = cli.run_experiment(spec)
        main_rows = [r for r in rows if r["verdict_main_identity"] != ""]
        assert len(main_rows) == 5 and all(r["verdict_main_identity"] for r in main_rows)
        chain_rows = [r for r in rows if r["chain_variant"] != ""]
        assert all(
            r["chain_variant"] == "holds_with_corrected_denominator" for r in chain_rows
        )

    def test_budget_refusal(self):
        spec = cli.parse_spec("experiment=grassmann-census n=4 k=2 prime=3")
        with pytest.raises(cli.BudgetError):
            cli.run_experiment(spec, budget=1)

    def test_two_ends_estimate_counts_tuples(self):
        # jr_decompose counts 35 294 700 (r+1)-tuples on this spec.
        spec = cli.parse_spec(
            "experiment=two-ends n=4 k=2 r=2 prime=7 num_directions=300 density=1"
        )
        assert cli.estimate_work(spec) >= 35_294_700

    @pytest.mark.parametrize(
        "text",
        [
            "experiment=two-ends n=4 k=2 r=2 prime=7 num_directions=200 density=1/4 seeds=0..19",
            "experiment=two-ends n=4 k=2 r=2 prime=5 num_directions=20 density=1/2 seeds=0..19",
        ],
        ids=["p7_density_quarter", "p5_density_half"],
    )
    def test_two_ends_estimate_charges_rank_tests(self, text):
        # The estimate charges the expected number of subsets that
        # jr_decompose rank-tests; the mean over 20 seeds lies within 10 %.
        from kplab.incidence import incidence_count

        spec = cli.parse_spec(text)
        n, k, p, r = (spec.params[key] for key in ("n", "k", "prime", "r"))
        flats_and_points = p**n + spec.params["num_directions"] * p**k
        seeds = spec.params["seeds"]
        charged = (cli.estimate_work(spec) / len(seeds) - flats_and_points) / cli.RANK_TEST_COST
        measured = [
            sum(math.comb(c, s) for c in incidence_count(cfg).per_flat.values() for s in range(3, r + 2))
            for _, cfg in cli._corpus(spec.params)
        ]
        assert abs(sum(measured) / len(measured) - charged) <= charged / 10

    def test_chain_estimate_charges_extended_pair_tally(self):
        # With n = k+1 any two planes of distinct directions meet in a line,
        # and at density 1 every pair of points on it is a kept spine, so the
        # charged tally steps, |P ∩ pi| for each ordered flat pair (pi, pi_0)
        # sharing a kept k-subset, are exact on every seed.
        from kplab.incidence import build_refinement_chain, incidence_count

        spec = cli.parse_spec(
            "experiment=refinement-chain n=3 k=2 prime=3 num_directions=13 density=1 seeds=0..2"
        )
        # The common-point walk is charged 27 (13 q (1-q) + (13 q)^2) = 585
        # steps, q = 1/3.
        untallied = 27 + 13 * (9 + cli.RANK_TEST_COST * math.comb(9, 2)) + 585
        for _, cfg in cli._corpus(spec.params):
            index = incidence_count(cfg)
            chain = build_refinement_chain(cfg, index)
            pairs = [*chain.shared_pairs, *((b, a) for a, b in chain.shared_pairs)]
            steps = sum(index.per_flat[chain.refined.flats[pi]] for pi, _ in pairs)
            assert steps == cli.estimate_work(spec) / 3 - untallied

    @pytest.mark.parametrize(
        "params",
        [
            "n=4 k=2 prime=5 num_directions=300 density=1/2",
            "n=5 k=3 prime=3 num_directions=1210 density=1",
            "n=3 k=2 prime=3 num_directions=13 density=2/3",
        ],
    )
    def test_simplex_estimate_adds_only_base_rank_tests(self, params):
        # simplex-bounds walks common points once, as refinement-chain does,
        # so its estimate exceeds the chain's only by the rank tests of the
        # (k+1)-subsets of each flat's points, up to the two ceilings.
        chain = cli.parse_spec(f"experiment=refinement-chain {params}")
        bound = cli.parse_spec(f"experiment=simplex-bounds {params}")
        n, k, p = (chain.params[key] for key in ("n", "k", "prime"))
        density, num_directions = chain.params["density"], chain.params["num_directions"]
        tests = math.comb(p**k, k + 1) * density ** (k + 1)
        extra = num_directions * cli.RANK_TEST_COST * tests
        assert abs(cli.estimate_work(bound) - cli.estimate_work(chain) - extra) <= 1

    @pytest.mark.parametrize(
        "text",
        [
            "experiment=refinement-chain n=4 k=2 prime=3 num_directions=20 density=1/2 seeds=0..19",
            "experiment=refinement-chain n=4 k=1 prime=3 num_directions=40 density=1/2 seeds=0..19",
            "experiment=refinement-chain n=4 k=2 prime=5 num_directions=200 density=1/4 seeds=0..9",
        ],
        ids=["4-2-3", "4-1-3", "4-2-5"],
    )
    def test_walk_charge_bounds_common_points(self, text):
        # One common-point walk is charged the expected sum over x in P of
        # deg(x)^2 over all flats: their mean lies within 10 % of it, and
        # the refined family's walk, over a sub-family, within the charge.
        from kplab.incidence import incidence_count, refine_dyadic

        spec = cli.parse_spec(text)
        params = {key: value for key, value in spec.params.items() if key != "seeds"}
        charged = cli._corpus_work(lambda **_: (), 2, **params) - cli._corpus_work(lambda **_: (), 1, **params)
        all_flats, refined = [], []
        for _, cfg in cli._corpus(spec.params):
            index = incidence_count(cfg)
            degrees = Counter(x for pts in index.points.values() for x in pts)
            all_flats.append(sum(d**2 for d in degrees.values()))
            degrees = Counter(x for flat in refine_dyadic(cfg, index).flats for x in index.points[flat])
            refined.append(sum(d**2 for d in degrees.values()))
        assert abs(sum(all_flats) / len(all_flats) - charged) <= charged / 10
        assert sum(refined) / len(refined) <= charged

    def test_maximal_estimate_follows_prefix_walk(self, monkeypatch):
        # The estimate charges each direction its steps over the prefixes of
        # F^n and each run its witnesses on F^n.  One walk over G(4,2) at p=7
        # runs in about 0.5-0.8 s (estimated 6.8 M units, 6.1 s at 0.9 us a
        # unit, 8-14x over); G(5,2) at p=7 has 140 050 directions of 16 807
        # points and is refused.  At k = 0 and k = n a run has one direction
        # but still builds its witnesses on all 28.6 M points of F_31^5: both
        # are refused before any witness is built.
        monkeypatch.setattr(maximal, "default_candidates", None)
        text = "experiment=maximal-ratio n={} k={} prime={} p_exp=11/6 q_exp=22/5"
        assert cli.estimate_work(cli.parse_spec(text.format(4, 2, 7))) <= cli.DEFAULT_BUDGET
        for n, k, p in [(5, 2, 7), (5, 5, 31), (5, 0, 31)]:
            with pytest.raises(cli.BudgetError):
                cli.run_experiment(cli.parse_spec(text.format(n, k, p)))

    @pytest.mark.parametrize("kind", sorted(PINNED_ROWS))
    def test_pinned_specs_within_default_budget(self, kind):
        assert cli.estimate_work(cli.parse_spec(PINNED_ROWS[kind][0])) < cli.DEFAULT_BUDGET

    def test_degenerate_charges_the_flats_it_builds(self):
        # The 20 306 flats of (6,3,1,5) come from G(5,2), so the estimate
        # charges them and not the 2 558 556 directions of G(6,3): the spec
        # runs at the default budget, and its row is the one that filtering
        # G(6,3) gave at a raised budget.
        rows = cli.run_experiment(cli.parse_spec("experiment=degenerate n=6 k=3 r=1 prime=5"))
        assert rows[0]["num_flats"] == 20306
        digest = hashlib.sha256(json.dumps(rows, indent=2, default=str).encode()).hexdigest()
        assert digest == "f80a6e68e7cbed7ba507ca38368a34d2ef02061de7184d900681690f8f71446e"

    @pytest.mark.parametrize(
        "text,num_rows",
        [
            ("experiment=degenerate n=4 k=2 r=1 prime=3", 1),
            (
                "experiment=incidence-bound n=4 k=2 prime=3 num_directions=6 density=1/2 "
                "p_exp=11/6 q_exp=22/5 seeds=0..3",
                4,
            ),
            ("experiment=two-ends n=3 k=2 r=1 prime=3 num_directions=6 density=1/2 seeds=0..3", 4),
            ("experiment=refinement-chain n=3 k=2 prime=3 num_directions=6 density=1/2 seeds=0..3", 4),
            ("experiment=simplex-bounds n=3 k=2 prime=3 num_directions=6 density=1/2 seeds=0..3", 4),
        ],
        ids=["degenerate", "incidence-bound", "two-ends", "refinement-chain", "simplex-bounds"],
    )
    def test_one_incidence_index_per_row(self, monkeypatch, text, num_rows):
        from kplab import incidence

        calls = []
        original = incidence.incidence_count

        def counted(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(incidence, "incidence_count", counted)
        rows = cli.run_experiment(cli.parse_spec(text))
        assert all(row["incidences"] > 0 for row in rows)
        assert len(calls) == len(rows) == num_rows

    @pytest.mark.parametrize(
        "text,columns",
        [
            (
                "experiment=grassmann-census n=3 k=1 prime=2",
                "n k prime enumerated formula verdict_match",
            ),
            (
                "experiment=degenerate n=4 k=2 r=1 prime=3",
                "n k r prime num_points num_flats incidences verdict_worst_case expected_flats "
                "asymptotic_flats ratio_main_bound dominant_term",
            ),
            (
                "experiment=nk-set n=3 k=1 prime=3",
                "n k prime translate seed set_size bound_exponent slack verdict_lower_bound",
            ),
            (
                "experiment=incidence-bound n=4 k=2 prime=3 num_directions=4 density=1/2 "
                "p_exp=11/6 q_exp=22/5",
                "n k prime seed num_points num_flats incidences refined_incidences refined_flats "
                "bucket_level ratio_main_bound dominant_term ratio_max_ic verdict_sup_chain",
            ),
            (
                "experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2",
                "n k r prime seed incidences jr_total verdict_partition verdict_stratum0 "
                "stratum_0 stratum_1",
            ),
            (
                "experiment=refinement-chain n=3 k=1 prime=3 num_directions=4 density=1/2",
                "n k prime seed incidences refined_incidences refined_flats ik_prime ik vk_prime "
                "vk vkp d_size verdict_holder_lower verdict_cs_lower",
            ),
            (
                "experiment=simplex-bounds n=3 k=2 prime=3 num_directions=6 density=1/2",
                "n k prime seed num_points num_flats incidences simplices simplices_ordered vk "
                "vk_del refined_incidences refined_flats ratio_upper ratio_lower ratio_heuristic "
                "verdict_spine_deletion_lower lambda_max_flats",
            ),
            (
                "experiment=maximal-ratio n=3 k=1 prime=3 p_exp=3/2 q_exp=3",
                "n k prime p_exp q_exp candidate ratio verdict_best",
            ),
            (
                "experiment=exponent-identities kmax=3",
                "k r verdict_main_identity chain_variant",
            ),
        ],
        ids=[
            "grassmann-census", "degenerate", "nk-set", "incidence-bound", "two-ends",
            "refinement-chain", "simplex-bounds", "maximal-ratio", "exponent-identities",
        ],
    )
    def test_column_layout(self, text, columns):
        rows = cli.run_experiment(cli.parse_spec(text))
        assert list(rows[0]) == ["experiment"] + columns.split()

    @pytest.mark.parametrize("kind", sorted(PINNED_ROWS))
    def test_rows_match_pinned_digest(self, kind):
        text, digest = PINNED_ROWS[kind]
        rows = cli.run_experiment(cli.parse_spec(text))
        assert hashlib.sha256(json.dumps(rows, indent=2, default=str).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind", [kind for kind in sorted(PINNED_ROWS) if kind.split()[0] in BOUND_KINDS]
    )
    def test_bound_rows_are_the_library_rows(self, kind):
        # Each row is its prefix, then the library's row in the library's
        # column order, with every float rendered by `cli._sig` alone.
        from kplab.config import gen_degenerate, gen_random_config
        from kplab.field import Field
        from kplab.incidence import _row_head, check_main_bound, check_max_ic, incidence_count
        from kplab.simplex import simplex_bound_report

        spec = cli.parse_spec(PINNED_ROWS[kind][0])
        params = spec.params
        n, k, fld = params["n"], params["k"], Field(params["prime"])
        prefix = {"experiment": spec.kind, **{key: params[key] for key in ("n", "k", "r", "prime") if key in params}}
        rows = cli.run_experiment(spec)
        if spec.kind == "degenerate":
            # The row's own columns sit between the head and the main bound's.
            cfg = gen_degenerate(n, k, params["r"], fld)
            index = incidence_count(cfg)
            bound = check_main_bound(cfg, index)
            own = ("verdict_worst_case", "expected_flats", "asymptotic_flats")
            expected = [
                {
                    **prefix,
                    **_row_head(cfg, index),
                    **{key: rows[0][key] for key in own},
                    **{key: bound[key] for key in ("ratio_main_bound", "dominant_term")},
                }
            ]
        else:
            expected = []
            for seed in params["seeds"]:
                cfg = gen_random_config(n, k, params["num_directions"], params["density"], fld, seed)
                index = incidence_count(cfg)
                if spec.kind == "simplex-bounds":
                    library = simplex_bound_report(cfg, index)
                else:
                    library = check_main_bound(cfg, index)
                    mic = check_max_ic(cfg, index, params["p_exp"], params["q_exp"])
                    library["ratio_max_ic"] = None if mic.ratio is None else float(mic.ratio)
                    library["verdict_sup_chain"] = mic.chain_holds
                expected.append({**prefix, "seed": seed, **library})
        assert [list(row) for row in rows] == [list(row) for row in expected]
        floats = 0
        for row, want in zip(rows, expected):
            for key, value in want.items():
                if isinstance(value, float):
                    floats += 1
                    assert row[key] == cli._sig(value)
                else:
                    assert row[key] == value
        assert floats > 0



class TestMainEntryPoint:
    def test_census_subcommand(self, capsys):
        assert cli.main(["census", "-n", "3", "-k", "1", "-p", "2"]) == 0
        assert "7" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert cli.main(["--json", "census", "-n", "3", "-k", "1", "-p", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["enumerated"] == 7

    def test_missing_spec_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.spec")]) == 1

    def test_invalid_spec_exits_1(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("experiment=grassmann-census n=4 k=2 prime=9\n")
        assert cli.main(["run", str(spec)]) == 1

    @pytest.mark.parametrize(
        "text,code",
        [
            ("experiment=degenerate n=2 k=3 r=1 prime=3", 1),
            ("experiment=nk-set n=3 k=1 prime=3 translate=bogus", 1),
            ("experiment=incidence-bound n=4 k=2 prime=3 num_directions=4 density=0", 1),
            ("experiment=maximal-ratio n=3 k=1 prime=3 p_exp=0 q_exp=2", 1),
            ("experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2 seeds=5..1", 1),
            ("experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2 seeds=1,1", 1),
            # |G(400,200)| over GF(2) and the census estimate have over
            # 12 000 digits, more than str() converts by default.
            ("experiment=refinement-chain n=400 k=200 prime=2 num_directions=-1 density=1", 1),
            ("experiment=grassmann-census n=400 k=200 prime=2", 2),
            ("experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2 seeds=1..100000000", 2),
            # Longer than sys.maxsize, so len() of the range overflows.
            ("experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2 "
             "seeds=0..1000000000000000000000000000000", 2),
            # The budget estimate charges its 5.5 M rank tests and refuses it.
            ("experiment=two-ends n=4 k=2 r=2 prime=7 num_directions=300 density=1", 2),
            ("experiment=exponent-identities kmax=1", 1),
            ("experiment=nk-set n=3 k=1 prime=3 slack=0", 1),
            ("experiment=incidence-bound n=4 k=2 prime=3 num_directions=4 density=1/2 p_exp=11/6", 1),
            ("experiment=incidence-bound n=4 k=2 prime=3 num_directions=4 density=1/2 q_exp=22/5", 1),
            # The norms are floats, and float() refuses an exponent of 10^400.
            ("experiment=maximal-ratio n=2 k=1 prime=2 p_exp=1e400 q_exp=2", 1),
            ("experiment=maximal-ratio n=2 k=1 prime=2 p_exp=2 q_exp=1e400", 1),
            # Inside float range, but v^q overflows for v >= 2.
            ("experiment=maximal-ratio n=2 k=1 prime=2 p_exp=2 q_exp=2000", 0),
            ("experiment=maximal-ratio n=2 k=1 prime=2 p_exp=2 q_exp=1e300", 0),
        ],
        ids=[
            "k_above_n", "bogus_translate", "zero_density", "p_exp_below_1", "empty_seeds", "duplicate_seeds",
            "huge_num_directions", "huge_estimate", "huge_seed_range", "seed_range_past_maxsize", "tuple_guard",
            "kmax_below_2", "zero_slack", "p_exp_without_q_exp", "q_exp_without_p_exp",
            "p_exp_past_float", "q_exp_past_float", "q_exp_2000", "q_exp_1e300",
        ],
    )
    def test_domain_and_guard_exit_codes(self, tmp_path, text, code):
        spec = tmp_path / "s.spec"
        spec.write_text(text + "\n")
        assert cli.main(["run", str(spec)]) == code

    @pytest.mark.parametrize("q_exp", ["2000", "1e300"])
    def test_large_q_exp_closed_forms(self, q_exp):
        # Over F_2^2 with k = 1: the constant and the point spike have Tf
        # constant on the 3 lines of weight 1/2, so both ratios are
        # (3/2)^(1/q); the line's Tf is 2 on its own direction and 1 on the
        # other two, so its ratio is 2 (1/2 + 2^(1-q))^(1/q) / sqrt(2).
        q = float(Fraction(q_exp))
        rows = cli.run_experiment(cli.parse_spec(f"experiment=maximal-ratio n=2 k=1 prime=2 p_exp=2 q_exp={q_exp}"))
        ratios = {row["candidate"]: row["ratio"] for row in rows}
        expected = {"constant": 1.5 ** (1 / q), "point": 1.5 ** (1 / q), "flat_dim_1": math.sqrt(2) * 0.5 ** (1 / q)}
        for name, value in expected.items():
            assert ratios[name] == cli._sig(value)
        assert [row["candidate"] for row in rows if row["verdict_best"]] == ["flat_dim_1"]

    def test_seed_flag_replaces_seed_list(self, tmp_path, capsys):
        spec = tmp_path / "s.spec"
        spec.write_text(
            "experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 density=1/2 seeds=1..3\n"
        )
        assert cli.main(["--seed", "9", "--json", "run", str(spec)]) == 0
        assert [row["seed"] for row in json.loads(capsys.readouterr().out)] == [9]

    @pytest.mark.parametrize(
        "argv,code",
        [(["--bogus", "selftest"], 1), (["census", "-n", "x", "-k", "1", "-p", "2"], 1), ([], 1), (["--help"], 0)],
        ids=["unknown_option", "non_integer", "no_command", "help"],
    )
    def test_usage_exit_codes(self, capsys, argv, code):
        # A usage error is a spec error: argparse's own code, 2, means a
        # work refusal here.
        assert cli.main(argv) == code
        assert "usage:" in "".join(capsys.readouterr())

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "experiment=maximal-ratio n=20000 k=1 prime=65521 p_exp=2 q_exp=2"],
            ["run", "experiment=maximal-ratio n=60000 k=1 prime=65521 p_exp=2 q_exp=2"],
            ["census", "-n", "1000", "-k", "500", "-p", "65521"],
            ["census", "-n", "600", "-k", "300", "-p", "65521"],
            ["run", "experiment=incidence-bound n=1000 k=500 prime=65521 num_directions=1 density=1"],
            ["run", "experiment=refinement-chain n=60000 k=1 prime=65521 num_directions=70000 density=1"],
            ["run", "experiment=degenerate n=1000 k=500 r=1 prime=65521"],
            ["run", "experiment=nk-set n=20000 k=1 prime=65521"],
        ],
        ids=["maximal_20000", "maximal_60000", "census_1000", "census_600", "corpus_1000", "corpus_60000",
             "degenerate_1000", "nk_set_20000"],
    )
    def test_far_over_budget_is_refused_cheaply(self, tmp_path, argv):
        # Specs whose exact estimates are integers of a million bits and more
        # are refused from a lower bound on their work, in a fresh process,
        # well within the timeout: the exact estimates took 44 s and more.
        if argv[0] == "run":
            spec = tmp_path / "s.spec"
            spec.write_text(argv[1] + "\n")
            argv = ["run", str(spec)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        done = subprocess.run(
            [sys.executable, "-m", "kplab.cli", *argv], env=env, capture_output=True, text=True, timeout=10
        )
        assert done.returncode == 2, done.stderr
        assert "exceeds budget" in done.stderr

    def test_work_floor_is_at_most_the_estimate(self):
        # The cheap refusal changes no exit code only if 2^floor is at most
        # the exact per-seed work: checked on every pinned spec and on each
        # kind over small n, k and primes on both sides of a power of two.
        specs = [cli.parse_spec(text) for text, _ in PINNED_ROWS.values()]
        for n, k, p in itertools.product(range(1, 6), range(0, 6), (2, 3, 5, 7, 31, 127, 131, 257)):
            if k <= n:
                specs.append(cli.parse_spec(f"experiment=grassmann-census n={n} k={k} prime={p}"))
                specs.append(cli.parse_spec(f"experiment=maximal-ratio n={n} k={k} prime={p} p_exp=2 q_exp=2"))
            if 1 <= k <= n - 1:
                specs.append(cli.parse_spec(f"experiment=nk-set n={n} k={k} prime={p}"))
                specs.append(cli.parse_spec(f"experiment=refinement-chain n={n} k={k} prime={p} "
                                            "num_directions=1 density=1/64"))
        for spec in specs:
            assert 2 ** cli._work_floor_bits(spec.kind, spec.params) <= cli.KINDS[spec.kind].work(**spec.params)

    def test_budget_exits_2(self, tmp_path):
        spec = tmp_path / "census.spec"
        spec.write_text("experiment=grassmann-census n=4 k=2 prime=3\n")
        assert cli.main(["--budget", "1", "run", str(spec)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "experiment=two-ends n=4 k=2 r=2 prime=7 num_directions=300 density=1",
            # Per seed, 3.35 M spanning tests and about 8.9 M extended-pair
            # tally steps (182 K meeting flat pairs times 49 points): 42.6 M,
            # so two seeds exceed the budget.
            "experiment=refinement-chain n=4 k=2 prime=7 num_directions=2850 density=1 seeds=0..1",
        ],
        ids=["tuple_guard", "holder_guard"],
    )
    def test_budget_refuses_before_generating(self, tmp_path, monkeypatch, capsys, text):
        def generate(*args):
            raise AssertionError("configuration generated")

        monkeypatch.setattr(cli, "gen_random_config", generate)
        spec = tmp_path / "s.spec"
        spec.write_text(text + "\n")
        assert cli.main(["run", str(spec)]) == 2
        assert "exceeds budget" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        spec = tmp_path / "s.spec"
        spec.write_text(f"experiment=grassmann-census n=3 k=1 prime=3 out={out}\n")
        assert cli.main(["run", str(spec)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and len(err.splitlines()) == 1

    def test_verify_exponents(self, capsys):
        assert cli.main(["verify-exponents", "--kmax", "8"]) == 0

    def test_verify_exponents_kmax_below_2_exits_1(self, capsys):
        assert cli.main(["verify-exponents", "--kmax", "1"]) == 1

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert out.splitlines() == [f"PASS  {name}" for name in SELFTEST_LINES]

    def test_run_writes_csv_and_json(self, tmp_path):
        out = tmp_path / "deg.csv"
        spec = tmp_path / "deg.spec"
        spec.write_text(f"experiment=degenerate n=4 k=2 r=1 prime=3 out={out}\n")
        assert cli.main(["run", str(spec)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert "incidences" in lines[1]
        mirrored = json.loads(out.with_suffix(".json").read_text())
        assert mirrored[0]["incidences"] == 39

    def test_csv_determinism_excluding_timestamp(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            spec = tmp_path / f"{out.stem}.spec"
            spec.write_text(
                "experiment=two-ends n=3 k=1 r=1 prime=3 num_directions=4 "
                f"density=1/2 seeds=0..4 out={out}\n"
            )
            threads = "1" if out is out_a else "8"
            assert cli.main(["--threads", threads, "run", str(spec)]) == 0
        body_a = out_a.read_text().splitlines()[1:]
        body_b = out_b.read_text().splitlines()[1:]
        assert body_a == body_b
        assert out_a.with_suffix(".json").read_bytes() == out_b.with_suffix(".json").read_bytes()
