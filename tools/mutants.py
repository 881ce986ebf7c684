"""Mutant register: each listed mutant must make its named tests fail.

Usage, from anywhere:

    python3 tools/mutants.py [name ...]

Each entry of MUTANTS names a file, a piece of its text, the text that
replaces it, and the test ids that must fail once it does.  For each
mutant (all of them, or the names given) the script copies the
repository, without ``.git`` and caches, into a temporary directory,
checks that the named tests pass there, applies the mutant, and runs them
again.  The mutant is killed when pytest reports failed tests; it
survives when they all pass.  The script prints one line per mutant and
exits 1 when a mutant survives, its text does not occur exactly once, or
a run errs, 2 for a name not in the register, else 0.  It needs only the
standard library and the test suite's own dependencies.  It is not part
of the test suite, since each mutant runs pytest twice;
``tests/test_mutant_register.py`` checks that every old text still occurs
exactly once and every named test exists.
"""

import collections
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = collections.namedtuple("Mutant", "name path old new tests")

MUTANTS = [
    Mutant(
        "c1-numpy-hypot",
        "src/skewlab/skew.py",
        "fm.elementwise(math.hypot, du, dv)",
        "np.hypot(du, dv)",
        ["tests/test_skew.py::test_c1_sups_match_each_one_point_gap_on_holder_pairs"],
    ),
    Mutant(  # the values of an array that is not 1-D taken column by column
        "elementwise-column-major",
        "src/skewlab/fiber_maps.py",
        "a.ravel().tolist() for a in arrays",
        'a.ravel(order="F").tolist() for a in arrays',
        [
            "tests/test_fiber_maps.py::test_elementwise_keeps_the_shape_and_the_bits_of_math",
            "tests/test_criterion.py::test_check_twisting_matches_scalar_transport",
        ],
    ),
    Mutant(  # every step through apply: the same values, more twist calls
        "keyed-no-plans",
        "src/skewlab/skew.py",
        "map(_step_plan, self._maps)",
        "((None, None, None, None, None, f) for f in self._maps)",
        [
            "tests/test_skew.py::test_keyed_cocycle_matches_accumulate_cocycle_per_orbit",
            "tests/test_skew.py::test_step_plans_cover_toral_maps_and_toral_after_twist",
        ],
    ),
    Mutant(
        "keyed-twist-never-applied",
        "src/skewlab/skew.py",
        "            if y1 * y1 + y2 * y2 > near:\n",
        "            if True:\n",
        [
            "tests/test_skew.py::test_keyed_cocycle_matches_accumulate_cocycle_per_orbit",
            "tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk",
        ],
    ),
    Mutant(  # the transposed matrix: the cat map is symmetric, the shears are not
        "keyed-transposed-step",
        "src/skewlab/skew.py",
        "u, v = (a * u + b * v) % 1.0, (c * u + d * v) % 1.0",
        "u, v = (a * u + c * v) % 1.0, (b * u + d * v) % 1.0",
        ["tests/test_skew.py::test_keyed_cocycle_matches_accumulate_cocycle_per_orbit"],
    ),
    Mutant(  # the walk's own defect: the table product keeps its own
        "keyed-defect-dropped",
        "src/skewlab/skew.py",
        "            defect = abs(a * d - b * c - 1.0)\n",
        "            defect = 0.0\n",
        [
            "tests/test_skew.py::test_keyed_cocycle_keeps_the_det_defect_of_an_unplanned_matrix",
            "tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk",
        ],
    ),
    Mutant(  # a matrix with a float det defect planned, so its defect is lost
        "keyed-det-guard-dropped",
        "src/skewlab/skew.py",
        "        if a * d - b * c == 1.0:\n",
        "        if True:\n",
        [
            "tests/test_skew.py::test_step_plans_cover_toral_maps_and_toral_after_twist",
            "tests/test_skew.py::test_keyed_cocycle_keeps_the_det_defect_of_an_unplanned_matrix",
        ],
    ),
    Mutant(  # the walk's product, which both sides of the per-orbit test share
        "walk-product-row",
        "src/skewlab/skew.py",
        "\n        p, q, r, s = a * p + b * r, a * q + b * s,",
        "\n        p, q, r, s = a * p + b * r, a * q + b * r,",
        ["tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk"],
    ),
    Mutant(  # the standard-map walk counting its steps from 1 in each row
        "stdmap-count-per-row",
        "src/skewlab/skew.py",
        "(Ks / two_pi).tolist()), k + 1)",
        "(Ks / two_pi).tolist()), 1)",
        ["tests/test_skew.py::test_standard_map_cocycle_matches_accumulate_cocycle_per_orbit"],
    ),
    Mutant(  # K / 2pi as K times the rounded 1 / 2pi, off in the last bit for some K
        "stdmap-reciprocal-kick",
        "src/skewlab/skew.py",
        "(Ks / two_pi).tolist()",
        "(Ks * (1 / two_pi)).tolist()",
        [
            "tests/test_skew.py::test_standard_map_cocycle_matches_accumulate_cocycle_per_orbit",
            "tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk",
        ],
    ),
    Mutant(  # the standard-map walk's det defect, which the family's estimate reports
        "stdmap-defect-dropped",
        "src/skewlab/skew.py",
        "defect = abs(a - c - 1.0)",
        "defect = 0.0",
        [
            "tests/test_skew.py::test_standard_map_cocycle_matches_accumulate_cocycle_per_orbit",
            "tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk",
        ],
    ),
    Mutant(  # the product's lower row taking the upper row's second entry
        "stdmap-product-row",
        "src/skewlab/skew.py",
        "c * p + r, c * q + s",
        "c * p + s, c * q + s",
        [
            "tests/test_skew.py::test_standard_map_cocycle_matches_accumulate_cocycle_per_orbit",
            "tests/test_lyapunov.py::test_integrated_exponent_matches_point_walk",
        ],
    ),
    Mutant(  # Markov rows at other offsets join a group and read its window
        "markov-group-any-first",
        "src/skewlab/base_shift.py",
        "walks.setdefault((id(tape.measure), first, b), ([], []))",
        "walks.setdefault(next((k for k in walks if k[0] == id(tape.measure) and k[2] == b),"
        " (id(tape.measure), first, b)), ([], []))",
        [
            "tests/test_base_shift.py::test_stepped_markov_rows_match_each_window",
            "tests/test_base_shift.py::test_stepped_markov_rows_resume_from_their_checkpoints",
        ],
    ),
    Mutant(  # Markov rows resume from the checkpoint block of their group's first tape
        "markov-group-any-checkpoint",
        "src/skewlab/base_shift.py",
        "walks.setdefault((id(tape.measure), first, b), ([], []))",
        "walks.setdefault(next((k for k in walks if k[:2] == (id(tape.measure), first)),"
        " (id(tape.measure), first, b)), ([], []))",
        [
            "tests/test_base_shift.py::"
            "test_stepped_rows_of_one_window_resume_from_each_tapes_own_checkpoint",
        ],
    ),
    Mutant(  # m(A) as 1 / ||A||, dropping the rounding of det A
        "bunching-conorm-det-one",
        "src/skewlab/holonomy.py",
        "abs(a * d - b * c), norms, out=",
        "1.0, norms, out=",
        ["tests/test_holonomy.py::test_bunching_row_sups_match_each_base_points_scalar_sups"],
    ),
    Mutant(  # the worst margin of f alone, forgetting f^-1
        "bunching-margin-f-only",
        "src/skewlab/holonomy.py",
        "(sups[:, 0] / sups[:, 1] * sys",
        "(sups[0, 0] / sups[0, 1] * sys",
        [
            "tests/test_holonomy.py::test_bunching_margin_matches_scalar_reference",
            "tests/test_holonomy.py::test_bunching_margin_bounds_every_pair_of_fibre_points",
        ],
    ),
    Mutant(  # the running bound of m(Df) a supremum, as before the bunching fix
        "bunching-conorm-running-sup",
        "src/skewlab/holonomy.py",
        "np.minimum(inf, conorms, out=inf)",
        "np.maximum(inf, conorms, out=inf)",
        [
            "tests/test_holonomy.py::test_bunching_margin_matches_scalar_reference",
            "tests/test_holonomy.py::test_bunching_margin_bounds_every_pair_of_fibre_points",
        ],
    ),
    Mutant(  # each chunk's bound of m(Df) its largest conorm
        "bunching-conorm-row-max",
        "src/skewlab/holonomy.py",
        "conorms.min(axis=1)",
        "conorms.max(axis=1)",
        [
            "tests/test_holonomy.py::test_bunching_row_sups_match_each_base_points_scalar_sups",
            "tests/test_holonomy.py::test_bunching_margin_bounds_every_pair_of_fibre_points",
        ],
    ),
    Mutant(  # j_t set only on a first return, never at a later separating one
        "twisting-first-return-only",
        "src/skewlab/criterion.py",
        "        j_t[active[separated]] = j + 1 + last[separated]\n",
        "",
        ["tests/test_criterion.py::test_check_twisting_matches_scalar_transport"],
    ),
    Mutant(  # min_sep the latest block's best separation, not the best one
        "twisting-latest-separation",
        "src/skewlab/criterion.py",
        "np.maximum(min_sep[active], sep.max(axis=0, initial=0.0, where=upto))",
        "sep.max(axis=0, initial=0.0, where=upto)",
        ["tests/test_criterion.py::test_check_twisting_matches_scalar_transport"],
    ),
    Mutant(  # min_sep the best over the whole block, past the first separating return
        "twisting-block-max",
        "src/skewlab/criterion.py",
        "sep.max(axis=0, initial=0.0, where=upto)",
        "sep.max(axis=0, initial=0.0)",
        [
            "tests/test_criterion.py::"
            "test_check_twisting_takes_the_best_separation_up_to_the_first_separating_return",
        ],
    ),
    Mutant(  # a point that never separates keeps the best up to its first return only
        "twisting-unseparated-first",
        "src/skewlab/criterion.py",
        "len(block) - 1",
        "returned.argmax(axis=0)",
        [
            "tests/test_criterion.py::"
            "test_check_twisting_takes_the_best_separation_over_all_returns_when_none_separates",
        ],
    ),
    Mutant(  # a failure within a block propagates before the block is settled
        "twisting-no-retry",
        "src/skewlab/criterion.py",
        "                if not block:  # no point here has separated: the error stands\n"
        "                    raise\n"
        "                break\n",
        "                raise\n",
        [
            "tests/test_criterion.py::"
            "test_check_twisting_settles_a_block_when_a_separated_point_fails",
        ],
    ),
    Mutant(  # the probe's score without the last point's defect
        "probe-last-point-dropped",
        "src/skewlab/criterion.py",
        ".sum(axis=1).max()",
        ".sum(axis=1)[:-1].max()",
        ["tests/test_criterion.py::test_su_state_probe_matches_scalar_reference"],
    ),
    Mutant(  # bins pushed to one bin overwrite each other's mass
        "probe-push-assigns",
        "src/skewlab/criterion.py",
        "np.add.at(pushed, (np.arange(n)[:, None], to), hists[:n])",
        "pushed[np.arange(n)[:, None], to] = hists[:n]",
        ["tests/test_criterion.py::test_su_state_probe_matches_scalar_reference"],
    ),
]


def occurrences(mutant, root=ROOT):
    """How many times the mutant's old text occurs in its file under root."""
    with open(os.path.join(root, mutant.path)) as fh:
        return fh.read().count(mutant.old)


def _pytest(root, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True).returncode


def run(mutant):
    """'killed', 'survived', or an error message."""
    if occurrences(mutant) != 1:
        return "error: old text occurs %d times in %s" % (occurrences(mutant), mutant.path)
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        code = _pytest(copy, mutant.tests)
        if code != 0:
            return "error: the named tests exit %d before the mutation" % code
        path = os.path.join(copy, mutant.path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        code = _pytest(copy, mutant.tests)
    if code == 0:
        return "survived"
    # pytest exits 1 when tests failed; other codes mean the run itself failed
    return "killed" if code == 1 else "error: pytest exited %d after the mutation" % code


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        result = run(mutant)
        bad += result != "killed"
        print("%-28s %s" % (mutant.name, result), flush=True)
    print("%d of %d mutants killed" % (len(chosen) - bad, len(chosen)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
