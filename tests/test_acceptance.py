"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line (run with output capture disabled to see them all)."""

import itertools
from fractions import Fraction

from conftest import random_corpus
from kplab import cli
from kplab.config import Configuration, gen_degenerate, gen_nk_set, gen_random_config
from kplab.exponents import (
    ChainIdentityResult,
    PowerProduct,
    alpha,
    main_term_abc,
    max_ick_derive,
    theorem_exponents,
    verify_identity_chain,
    verify_identity_main,
)
from kplab.field import Field
from kplab.flats import (
    enumerate_grassmannian,
    gaussian_binomial,
    make_flat,
)
from kplab.incidence import (
    check_main_bound,
    cs_holder_count,
    incidence_count,
    jr_decompose,
)
from kplab.maximal import GridFunction, apply_maximal, constant_witness_ratio_exact
from kplab.oracles import count_simplices_bruteforce, enumerate_coset_representatives
from kplab.simplex import count_simplices


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_grassmannian_census():
    failures = []
    for n in range(1, 5):
        for k in range(n + 1):
            for p in (2, 3, 5):
                enumerated = sum(1 for _ in enumerate_grassmannian(n, k, Field(p)))
                if enumerated != gaussian_binomial(n, k, p):
                    failures.append((n, k, p))
    big = sum(1 for _ in enumerate_grassmannian(5, 2, Field(3)))
    if big != 1210:
        failures.append((5, 2, 3))
    report(1, "grassmannian census", not failures, f"violations={failures}")


def test_criterion_02_degenerate_worst_case():
    failures = []
    for n, k, p in ((4, 2, 3), (4, 2, 5), (5, 2, 3), (5, 3, 3)):
        cfg = gen_degenerate(n, k, 1, Field(p))
        if incidence_count(cfg).total != len(cfg.points) * len(cfg.flats):
            failures.append((n, k, p))
    report(2, "degenerate worst case", not failures, f"violations={failures}")


def _acceptance_corpus(n, k, p, count=200):
    return random_corpus(n, k, p, count)


def test_criterion_03_set_cauchy_schwarz_holder():
    violations = 0
    for n, k, p in ((3, 1, 3), (4, 2, 3)):
        for _, cfg in _acceptance_corpus(n, k, p):
            index = incidence_count(cfg)
            num_flats = len(cfg.flats)
            for m in (2, 3, 4):
                count = cs_holder_count(cfg, m, index)
                if count * num_flats ** (m - 1) < index.total**m:
                    violations += 1
    report(3, "set Cauchy-Schwarz / Hoelder", violations == 0, f"violations={violations}")


def test_criterion_04_two_ends_decomposition():
    violations = 0
    for n, k, p in ((3, 1, 3), (4, 2, 3)):
        for _, cfg in _acceptance_corpus(n, k, p):
            index = incidence_count(cfg)
            for r in range(1, min(2, k) + 1):
                decomp = jr_decompose(cfg, r, index)
                if sum(decomp.strata) != decomp.total or decomp.strata[0] != index.total:
                    violations += 1
    report(4, "two-ends decomposition", violations == 0, f"violations={violations}")


def test_criterion_05_simplex_oracle_equivalence():
    # Six directions at density 1/4 almost never hold a simplex (1 of the
    # first 150 configurations), so three denser cases follow, the last
    # over GF(3) with k = 3, where k points of a flat need not span.
    cases = [
        (3, 1, 2, 6, Fraction(1, 4), 50),
        (3, 1, 3, 6, Fraction(1, 4), 50),
        (4, 2, 3, 6, Fraction(1, 4), 50),
        (3, 2, 3, 13, Fraction(2, 3), 10),
        (4, 2, 2, 35, Fraction(1), 10),
        (4, 3, 3, 40, Fraction(1, 5), 10),
    ]
    mismatches = []
    nonzero = []
    for n, k, p, num_directions, density, count in cases:
        fld = Field(p)
        checked = 0
        seed = 0
        nonzero.append(0)
        while checked < count:
            cfg = gen_random_config(n, k, num_directions, density, fld, seed)
            seed += 1
            if len(cfg.points) > 20:
                continue
            checked += 1
            simplices = count_simplices(cfg, incidence_count(cfg))
            if simplices != count_simplices_bruteforce(cfg):
                mismatches.append((n, k, p, seed - 1))
            nonzero[-1] += simplices > 0
    # The 4-point plane over F_2 with all six lines has exactly 4 triangles.
    f2 = Field(2)
    flats = tuple(
        make_flat(pi, rep, f2)
        for pi in enumerate_grassmannian(2, 1, f2)
        for rep in enumerate_coset_representatives(pi, f2)
    )
    plane = Configuration(f2, 2, 1, frozenset(itertools.product(range(2), repeat=2)), flats)
    triangle_ok = count_simplices(plane, incidence_count(plane)) == 4
    report(
        5,
        "simplex oracle equivalence",
        not mismatches and triangle_ok and nonzero == [1, 0, 0, 9, 10, 8],
        f"mismatches={mismatches} triangles_ok={triangle_ok} nonzero={nonzero}",
    )


def test_criterion_06_exponent_identities():
    main_ok = all(verify_identity_main(k) for k in range(2, 51))
    grid_ok = all(
        max_ick_derive(*main_term_abc(k), n, k) == theorem_exponents(n, k)
        for n in range(4, 13)
        for k in range(2, n - 1)
    )
    alpha_ok = alpha(2) == 0 and alpha(3) == Fraction(10, 17)
    report(
        6,
        "exponent identities",
        main_ok and grid_ok and alpha_ok,
        f"main={main_ok} grid={grid_ok} alpha={alpha_ok}",
    )


def test_criterion_07_chain_identity_audit():
    at_3_2 = verify_identity_chain(3, 2)
    pinned_ok = at_3_2 == ChainIdentityResult.HOLDS_WITH_CORRECTED_DENOMINATOR
    grid = {
        verify_identity_chain(k, r)
        for k in range(2, 11)
        for r in range(1, k - 1)
    }
    consistent = grid == {ChainIdentityResult.HOLDS_WITH_CORRECTED_DENOMINATOR}
    report(
        7,
        "chain-identity audit",
        pinned_ok and consistent,
        f"(3,2)={at_3_2.value} grid={[v.value for v in grid]}",
    )


def test_criterion_08_maximal_operator_exactness():
    n, k = 4, 2
    f3 = Field(3)
    tf = apply_maximal(GridFunction.constant(f3, n), n, k)
    constant_ok = len(tf) == gaussian_binomial(n, k, 3) and all(
        v == 3**k for v in tf.values()
    )
    factor_ok = True
    for p in (3, 5, 7):
        q = Fraction(4)
        ratio = constant_witness_ratio_exact(n, k, Field(p), Fraction(n, k), q)
        # At p_exp = n/k the pure p-power factor cancels exactly, leaving
        # only the Grassmannian measure part.
        measure_part = PowerProduct(
            [(gaussian_binomial(n, k, p), 1 / q), (p, Fraction(-k * (n - k)) / q)]
        )
        if ratio.compare(measure_part) != 0:
            factor_ok = False
    report(
        8,
        "maximal-operator exactness",
        constant_ok and factor_ok,
        f"constant={constant_ok} p_power_factor={factor_ok}",
    )


def test_criterion_09_main_bound_desk_check():
    max_ratio = {}
    findings = []
    for p in (3, 5, 7):
        fld = Field(p)
        ratios = []
        configs = [cfg for _, cfg in random_corpus(4, 2, p, 30)]
        configs.append(gen_degenerate(4, 2, 1, fld))
        for cfg in configs:
            ratio = check_main_bound(cfg, incidence_count(cfg))["ratio_main_bound"]
            if ratio is None:
                continue
            ratios.append(ratio)
            if ratio > 8:
                findings.append(
                    {"p": p, "ratio": ratio, "points": sorted(cfg.points), "flats": cfg.flats}
                )
        max_ratio[p] = max(ratios)
    growth_ok = max_ratio[7] <= 2 * max_ratio[3]
    for finding in findings:
        print(f"FINDING criterion 9 violation: {finding}")
    report(
        9,
        "main-bound desk check",
        not findings and growth_ok,
        f"max_ratio={ {p: round(r, 4) for p, r in max_ratio.items()} } growth_ok={growth_ok}",
    )


def test_criterion_10_nk_set_lower_bound():
    failures = []
    for p in (3, 5, 7):
        fld = Field(p)
        for seed in (1, 2, 3):
            size = len(gen_nk_set(4, 2, fld, translate_rule="random", seed=seed))
            # |E| >= p^{11/3} / 8, cross-multiplied: 8^3 |E|^3 >= p^11.
            if (8 * size) ** 3 < p**11:
                failures.append((p, seed, size))
    report(10, "(n,k)-set lower bound", not failures, f"violations={failures}")


def test_criterion_11_determinism(tmp_path):
    bodies = []
    for run, threads in enumerate(("1", "4")):
        out = tmp_path / f"run{run}.csv"
        spec = tmp_path / f"run{run}.spec"
        spec.write_text(
            "experiment=incidence-bound n=4 k=2 prime=3 num_directions=6 "
            f"density=1/2 seeds=0..9 out={out}\n"
        )
        code = cli.main(["--threads", threads, "run", str(spec)])
        assert code == 0
        bodies.append(out.read_text().splitlines()[1:])
    report(11, "determinism", bodies[0] == bodies[1])
