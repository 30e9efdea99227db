"""Golden corpus: exact stdout bytes and exit codes of the CLI on fixed inputs.

Each case replays one argv through `rggames.cli.main` inside tests/golden/
and compares stdout, byte for byte, with `<name>.out`.  To rewrite the
expected files after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import os
import sys

import pytest

from rggames.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    ("readme_solve", ["solve", "readme_game.json"], 0),
    ("readme_dynamics", ["solve", "readme_game.json", "--method", "dynamics", "--seed", "7"], 0),
    ("readme_dynamics_capped",
     ["solve", "readme_game.json", "--method", "dynamics", "--max-iters", "0"], 1),
    ("readme_verify", ["verify", "readme_game.json", "--profile", "readme_profile.json"], 0),
    ("readme_potential", ["potential", "readme_game.json", "--profile", "readme_profile.json"], 0),
    ("readme_characterize", ["characterize", "readme_game.json"], 0),
    ("readme_characterize_weighted", ["characterize", "readme_game.json", "--weighted"], 0),
    ("spl_dynamics", ["solve", "spl_game.json", "--method", "dynamics", "--seed", "3"], 0),
    ("spl_solve", ["solve", "spl_game.json"], 0),
    ("spl_verify", ["verify", "spl_game.json", "--profile", "spl_profile.json"], 1),
    ("spl_potential", ["potential", "spl_game.json", "--profile", "spl_profile.json"], 0),
    ("weighted_verify", ["verify", "weighted_game.json", "--profile", "weighted_profile.json"], 1),
    ("weighted_potential",
     ["potential", "weighted_game.json", "--profile", "weighted_profile.json"], 0),
    ("tabulated_solve", ["solve", "tabulated_game.json"], 0),
    ("exponential_solve", ["solve", "exponential_game.json"], 0),
    ("exponential_verify",
     ["verify", "exponential_game.json", "--profile", "exponential_profile.json"], 1),
    ("player_specific_solve", ["solve", "player_specific_game.json"], 0),
    ("player_specific_dynamics",
     ["solve", "player_specific_game.json", "--method", "dynamics"], 0),
    ("bilevel_theorem3", ["solve", "bilevel_game.json", "--method", "theorem3"], 0),
    ("bilevel_dynamics", ["solve", "bilevel_game.json", "--method", "dynamics"], 0),
    ("bilevel_solve", ["solve", "bilevel_game.json"], 0),
    ("interleaved_solve", ["solve", "interleaved_game.json"], 0),
    ("late_gadget_solve", ["solve", "late_gadget_game.json"], 1),
    ("asym_characterize", ["characterize", "asym_affine_cost.json"], 1),
    ("asym_characterize_weighted", ["characterize", "asym_affine_cost.json", "--weighted"], 1),
    ("asym_gadget_L3", ["gadget", "asym_affine_cost.json", "--lemma", "L3", "--point", "0,0",
                        "--resources", "1,2", "--confirm"], 1),
    ("asym_gadget_weighted_eps",
     ["gadget", "asym_affine_cost.json", "--lemma", "weighted-eps", "--point", "1,0",
      "--resources", "1,2", "--epsilon", "1/2", "--confirm"], 1),
    ("spl_characterize", ["characterize", "spl_cost.json", "--L", "2"], 0),
    ("spl_characterize_weighted", ["characterize", "spl_cost.json", "--weighted"], 1),
    ("spl_asym_characterize", ["characterize", "spl_asym_cost.json"], 1),
    ("spl_diag_characterize", ["characterize", "spl_diag_cost.json"], 0),
    ("cross_characterize", ["characterize", "cross_cost.json"], 1),
    ("cross_gadget_L4", ["gadget", "cross_cost.json", "--lemma", "L4", "--point", "0,1",
                         "--resources", "2,1", "--confirm"], 1),
    ("crossb_characterize", ["characterize", "crossb_cost.json"], 1),
    ("partial_characterize", ["characterize", "partial_cost.json"], 0),
    ("partial_read_characterize", ["characterize", "partial_read_cost.json"], 2),
    ("triple_characterize", ["characterize", "triple_cost.json"], 1),
    ("triple_gadget_L5", ["gadget", "triple_cost.json", "--lemma", "L5", "--point", "0,0,1",
                          "--resources", "3,1,2", "--confirm"], 1),
    ("spl_gadget_L3", ["gadget", "spl_cost.json", "--lemma", "L3", "--point", "0,0,0",
                       "--resources", "1,2", "--confirm"], 0),
    ("exponential_gadget_L3", ["gadget", "exponential_cost.json", "--lemma", "L3",
                               "--point", "0,0", "--resources", "1,2", "--confirm"], 0),
    ("quadratic_characterize_weighted", ["characterize", "quadratic_cost.json", "--weighted"], 1),
    ("noise_characterize_weighted", ["characterize", "noise_cost.json", "--weighted"], 1),
    ("exponential_characterize_weighted",
     ["characterize", "exponential_cost.json", "--weighted"], 0),
    ("exponential_characterize", ["characterize", "exponential_cost.json"], 2),
    ("bilevel_characterize", ["characterize", "bilevel_cost.json"], 1),
    ("bilevel_characterize_weighted", ["characterize", "bilevel_cost.json", "--weighted"], 1),
    ("reduce_sat", ["reduce", "sat", "sat.cnf"], 0),
    ("reduce_pairs", ["reduce", "pairs", "pairs.json"], 0),
    # the 6-clause game of sat6.cnf at a cost-0 profile, and at a cost-2 profile whose
    # first improving deviation is strategy 408 of 729
    ("sat_verify_pne", ["verify", "sat6_game.json", "--profile", "sat6_pne_profile.json"], 0),
    ("sat_verify_not_pne",
     ["verify", "sat6_game.json", "--profile", "sat6_not_pne_profile.json"], 1),
]


def replay(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code):
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        expected = fh.read()
    assert replay(argv) == (code, expected)


if __name__ == "__main__":
    for name, argv, code in CASES:
        got, stdout = replay(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
            fh.write(stdout)
        flag = "" if got == code else f"  (exit {got}, table says {code})"
        print(f"{name}: {len(stdout)} bytes{flag}", file=sys.stderr)
