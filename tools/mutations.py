"""Replayable mutation checks: each mutation breaks the library on purpose and
names the tests that must catch it.

For each mutation the script copies `src/`, `tests/`, `bench/`, `tools/` and
`pyproject.toml` into a temporary directory (the surface test reads the
benchmark and the tools), replaces one exact snippet of one source file
there with a broken one, and runs the mutation's pytest node ids against
that copy.  The mutation is killed when every one of its tests fails, and
survives when any of them passes.  The named tests first run once on the
unmutated copy, where all of them must pass.  The working tree is never
written.

    python3 tools/mutations.py             # every mutation
    python3 tools/mutations.py membership  # only the mutations named

Exit status: 0 when every mutation is killed, 1 when any survives, 2 when
a snippet no longer matches its file or a named test fails unmutated.
This is not part of the tier-1 suite; it runs the named tests once per
mutation, about a minute in all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: Sequence[str]  # pytest node ids, every one of which must fail


MUTATIONS = [
    Mutation(
        "eliminate-no-back-substitution",
        "src/kplab/linalg.py",
        "        for i in range(len(rows)):\n            if i != rank and rows[i][col] != 0:\n",
        "        for i in range(rank + 1, len(rows)):\n            if rows[i][col] != 0:\n",
        [
            "tests/test_linalg.py::test_rref_canonicity_under_shuffle_and_rescale[3-3]",
            "tests/test_linalg.py::test_solve_affine_system_consistent",
            "tests/test_flats.py::test_packed_key_matches_canonical_representative[5]",
            "tests/test_incidence.py::test_chain_oracle_equivalence[4-2-3-8-14]",
            "tests/test_simplex.py::test_oracle_equivalence_planted[3-2-3-6-10]",
            "tests/test_acceptance.py::test_criterion_05_simplex_oracle_equivalence",
            "tests/test_cli.py::TestMainEntryPoint::test_selftest",
        ],
    ),
    Mutation(
        "membership-first-row-only",
        "src/kplab/flats.py",
        "    for row, digit in rows_and_digits:\n",
        "    for row, digit in rows_and_digits[:1]:\n",
        [
            "tests/test_flats.py::test_membership_stops_only_at_a_differing_digit",
            "tests/test_flats.py::test_membership_matches_span_definition",
            "tests/test_incidence.py::TestIncidenceCount::test_marginals_agree",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[incidence-bound]",
            "tests/test_simplex.py::test_oracle_equivalence_planted[5-3-3-20-12]",
        ],
    ),
    Mutation(
        "span-modulo-2^31-1",
        "src/kplab/linalg.py",
        "for q in points[1:]], p)\n",
        "for q in points[1:]], 2**31 - 1)\n",
        [
            "tests/test_linalg.py::test_hyperplane_against_rref[3-3]",
            "tests/test_linalg.py::test_span_cache_is_keyed_by_p",
            "tests/test_incidence.py::test_jr_oracle_equivalence[4-2-3]",
            "tests/test_incidence.py::test_chain_oracle_equivalence[3-2-3-6-10]",
            "tests/test_simplex.py::test_oracle_equivalence_k4",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[two-ends]",
        ],
    ),
    # A fast module reaching into the reference layer, inside a function so
    # the package still imports and only the boundary test can catch it.
    Mutation(
        "incidence-imports-oracles",
        "src/kplab/incidence.py",
        "\n\ndef jr_decompose(",
        "\n\ndef _reference():\n    from .oracles import jr_decompose_bruteforce\n\n"
        "    return jr_decompose_bruteforce\n\n\ndef jr_decompose(",
        ["tests/test_oracles.py::test_fast_modules_neither_import_nor_define_oracles"],
    ),
    # The one pigeonhole rule of `refine_dyadic` and the chain's tally.
    Mutation(
        "heaviest-level-ties-to-smaller",
        "src/kplab/incidence.py",
        "key=lambda lvl: (mass[lvl], lvl)",
        "key=lambda lvl: (mass[lvl], -lvl)",
        [
            "tests/test_incidence.py::TestRefineDyadic::test_tied_levels_go_to_the_larger_level",
            "tests/test_incidence.py::test_chain_oracle_equivalence[4-2-3-8-14]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[incidence-bound]",
        ],
    ),
    # The one seeded keep-draw of point clouds and random-density witnesses,
    # in the keep table of the densities below 1/255, which every pinned
    # spec draws through.
    Mutation(
        "keep-draw-less-or-equal",
        "src/kplab/config.py",
        "t >> shift < numerator for t",
        "t >> shift <= numerator for t",
        [
            "tests/test_config.py::test_kept_points_replay_randrange[16]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[incidence-bound]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[two-ends]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[maximal-ratio]",
        ],
    ),
    # The byte lanes' reduction before a carry.  Lanes of p - 1 or less add
    # up past 255 only at large p: of the lane tests only p = 127 gets there.
    Mutation(
        "lanes-carry-unreduced",
        "src/kplab/flats.py",
        "            if top + p > 256:  # the next column could carry: reduce first\n",
        "            if False:\n",
        [
            "tests/test_flats.py::test_enumerate_points_lanes_match_expansion[127-2]",
            "tests/test_flats.py::test_enumerate_points_lanes_match_expansion[127-3]",
            "tests/test_flats.py::test_coset_keys_lanes_match_coset_key[4-2-127-2]",
            "tests/test_flats.py::test_column_sum_matches_entry_by_entry[127]",
            "tests/test_flats.py::test_coset_kernels_meet_design_moments[3-2-127-40-keys]",
        ],
    ),
    # The column sum entry by entry, at p >= 128, with each column added
    # once whatever its coefficient.
    Mutation(
        "column-sum-entries-drop-coefficient",
        "src/kplab/flats.py",
        "                sums = map(add, sums, map(mul, itertools.repeat(a), column))\n",
        "                sums = map(add, sums, column)\n",
        [
            "tests/test_flats.py::test_column_sum_matches_entry_by_entry[131]",
            "tests/test_flats.py::test_column_sum_matches_entry_by_entry[257]",
            "tests/test_flats.py::test_enumerate_points_lanes_match_expansion[131-2]",
            "tests/test_flats.py::test_coset_keys_lanes_match_coset_key[3-1-131-2]",
            "tests/test_flats.py::test_coset_keys_lanes_match_coset_key[3-1-257-None]",
            "tests/test_flats.py::test_coset_kernels_meet_design_moments[2-1-257-60-keys]",
        ],
    ),
    # A lane width too narrow for its keys: two bytes for up to 2^17 cosets.
    # Only a walk with p^(n-k) in (2^16, 2^17] reaches it, and of the tests
    # only the design-moment walk over G(4,1) of F_41 (41^3 = 68 921) does.
    Mutation(
        "lane-width-two-bytes-past-2^16",
        "src/kplab/flats.py",
        "2 if cosets <= 1 << 16 else",
        "2 if cosets <= 1 << 17 else",
        ["tests/test_flats.py::test_coset_kernels_meet_design_moments[4-1-41-12-keys]"],
    ),
    # The one coordinate flat.  Counts and maximal ratios are invariant under
    # permuting coordinates, so only a test of its points can catch this.
    Mutation(
        "coordinate-flat-shifted",
        "src/kplab/flats.py",
        "for j in range(n)) for i in range(r)]\n",
        "for j in range(n)) for i in range(1, r + 1)]\n",
        [
            "tests/test_flats.py::test_coordinate_flat_is_span_of_first_unit_vectors[3-1-7]",
            "tests/test_flats.py::test_coordinate_flat_is_span_of_first_unit_vectors[4-2-3]",
            "tests/test_flats.py::test_coordinate_flat_is_span_of_first_unit_vectors[5-3-2]",
        ],
    ),
    # The one rendering site of row floats.
    Mutation(
        "rows-not-rendered",
        "src/kplab/cli.py",
        "{key: _sig(value) if isinstance(value, float) else value for key, value in row.items()}",
        "{key: value for key, value in row.items()}",
        [
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[simplex-bounds]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[incidence-bound]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[maximal-ratio]",
        ],
    ),
    # The one row head of the degenerate and refined rows.
    Mutation(
        "row-head-flats-first",
        "src/kplab/incidence.py",
        '{"num_points": len(config.points), "num_flats": len(config.flats),',
        '{"num_flats": len(config.flats), "num_points": len(config.points),',
        [
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[degenerate]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[incidence-bound]",
            "tests/test_cli.py::TestRunExperiment::test_rows_match_pinned_digest[simplex-bounds]",
        ],
    ),
    # The one scale of a grid function's value classes.  Every default
    # witness has one class, so only functions of mixed denominators can
    # catch this.
    Mutation(
        "maximal-scale-first-class-only",
        "src/kplab/maximal.py",
        "scales = [math.lcm(*(v.denominator for v, _ in f.classes)) for f in distinct]",
        "scales = [f.classes[0][0].denominator if f.classes else 1 for f in distinct]",
        [
            "tests/test_maximal.py::test_oracle_equivalence_mixed_denominators[2-1-5]",
            "tests/test_maximal.py::test_oracle_equivalence_mixed_denominators[3-2-3]",
            "tests/test_maximal.py::test_many_matches_oracle_per_function[4-2-3]",
            "tests/test_maximal.py::test_mixed_denominators_sum_exactly",
        ],
    ),
    # The resumed fold of the coset masks: a walk resumes where its steps
    # first differ from the last direction's, and a meet must match only a
    # meet.  Taken as matching any step, as if every walk met at the same
    # places, it reuses folds of another dimension k.  Within one k the
    # meets fall at the same places, and in enumeration order the last
    # direction of one k and the first of the next differ at their first
    # step, so only directions of mixed k asked out of order catch it.
    Mutation(
        "masks-meet-matches-any-step",
        "src/kplab/flats.py",
        "            if step != kept:\n",
        "            if step != kept and None not in (step, kept):\n",
        [
            "tests/test_flats.py::test_coset_masks_answer_in_any_order[2]",
            "tests/test_flats.py::test_coset_masks_answer_in_any_order[3]",
            "tests/test_flats.py::test_coset_masks_answer_in_any_order[5]",
        ],
    ),
    # The one grouping of a grid function's values.
    Mutation(
        "grid-function-keeps-zero-class",
        "src/kplab/maximal.py",
        "            if v:\n                classes.setdefault(v, []).append(pt)\n",
        "            classes.setdefault(v, []).append(pt)\n",
        [
            "tests/test_maximal.py::test_from_dict_groups_each_value_into_one_class",
            "tests/test_maximal.py::test_indicator_and_constant_match_from_dict",
        ],
    ),
    # The one power sum and Hoelder verdict: jr_decompose's tuple total, the
    # chain's Hoelder verdict and cs_holder_count all read it.
    Mutation(
        "holder-sum-power-off-by-one",
        "src/kplab/incidence.py",
        "power_sum = sum(c**m for c in counts)",
        "power_sum = sum(c ** (m - 1) for c in counts)",
        [
            "tests/test_incidence.py::TestJrDecompose::test_degenerate_pinned",
            "tests/test_incidence.py::test_chain_oracle_equivalence[4-2-3-8-14]",
            "tests/test_acceptance.py::test_criterion_03_set_cauchy_schwarz_holder",
        ],
    ),
    # The degenerate directions without span(e_1, ..., e_r): (k-r)-subspaces
    # of the last n-r coordinates alone.
    Mutation(
        "degenerate-drops-sigma-rows",
        "src/kplab/config.py",
        "span_of(lead + tuple(map(pad.__add__, w.basis.rows)), n, fld)",
        "span_of(tuple(map(pad.__add__, w.basis.rows)), n, fld)",
        [
            "tests/test_config.py::test_degenerate_flats_are_the_filtered_grassmannian[4-2-1-3]",
            "tests/test_config.py::test_degenerate_flats_are_the_filtered_grassmannian[6-4-2-3]",
        ],
    ),
    # A public function that nothing reads: only the surface test sees it.
    Mutation(
        "public-name-without-reader",
        "src/kplab/flats.py",
        "    return tuple([tuple([x[j] for j in pivots]) for x in points])\n",
        "    return tuple([tuple([x[j] for j in pivots]) for x in points])\n\n\n"
        "def flat_count(flats):\n    return len(flats)\n",
        ["tests/test_oracles.py::test_every_public_name_has_a_reader"],
    ),
]


def copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for tree in ("tests", "bench", "tools"):
        shutil.copytree(ROOT / tree, into / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def mutated(mutation: Mutation) -> str:
    """The mutated text of the mutation's file, from the working tree."""
    text = (ROOT / mutation.path).read_text()
    found = text.count(mutation.old)
    if found != 1:
        print(f"{mutation.name}: snippet found {found} times in {mutation.path}, expected once")
        raise SystemExit(2)
    return text.replace(mutation.old, mutation.new)


def run_tests(where: Path, tests: Sequence[str]) -> Dict[str, str]:
    """Outcome of each node id run under `where`, read from pytest's
    summary: PASSED, FAILED or ERROR.  A test that did not run, for
    instance because collection failed, is absent."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=where, env=env, capture_output=True, text=True)
    outcomes = {}
    for line in done.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        for test in tests:
            # A failure's node id is followed by " - " and its message.
            if outcome in ("PASSED", "FAILED", "ERROR") and (rest == test or rest.startswith(test + " - ")):
                outcomes[test] = outcome
    return outcomes


def main(argv: List[str]) -> int:
    chosen = [m for m in MUTATIONS if not argv or any(word in m.name for word in argv)]
    if not chosen:
        print(f"no mutation matches {argv}; known: {', '.join(m.name for m in MUTATIONS)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="kplab-mutations-") as scratch:
        texts = [mutated(mutation) for mutation in chosen]
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        outcomes = run_tests(clean, tests)
        broken = [t for t in tests if outcomes.get(t) != "PASSED"]
        if broken:
            print("unmutated copy: these named tests do not pass:", *broken, sep="\n  ")
            return 2
        survivors = 0
        for mutation, text in zip(chosen, texts):
            where = Path(scratch) / mutation.name
            copy_tree(where)
            (where / mutation.path).write_text(text)
            outcomes = run_tests(where, mutation.tests)
            passed = [t for t in mutation.tests if outcomes.get(t) == "PASSED"]
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8}  {mutation.name}: {len(mutation.tests) - len(passed)} of {len(mutation.tests)} named tests fail")
            for test in passed:
                print(f"          still passes: {test}")
            survivors += bool(passed)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
