import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selcalc

from selcalc.cli import main
from selcalc.properties import suites
from selcalc.selection import observe
from selcalc.strategies import select_program
from selcalc.syntax import (
    BOOL, UNIT, Arrow, Prod, Program, parse_program, pretty_program, typecheck,
)
from selcalc.testgen import GenConfig, gen_program


@pytest.fixture
def sel(tmp_path):
    def write(src, name="prog.sel"):
        f = tmp_path / name
        f.write_text(src)
        return str(f)
    return write


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


E1 = "(5 . tt) or (6 . ff)"
E2 = "mode prob;\n(5 . tt) or ((5 . tt) +[1/2] (6 . ff))"


def test_eval_selection_example(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "selection", sel(E1))
    assert rc == 0
    assert out.strip() == "reward 6, value ff"


def test_eval_selection_json_schema(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "selection", "--json",
                     sel(E2))
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == "1"
    assert doc["outcome"] == [
        {"prob": "1/2", "reward": "5", "value": "tt"},
        {"prob": "1/2", "reward": "6", "value": "ff"},
    ]


def test_eval_selection_rewards_json_prob_one(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "selection", "--json",
                     sel(E1))
    assert json.loads(out)["outcome"][0]["prob"] == "1"


def test_eval_oracle_agrees(sel, capsys):
    f = sel(E2)
    rc1, out1, _ = run(capsys, "eval", "--semantics", "selection", f)
    rc2, out2, _ = run(capsys, "eval", "--semantics", "selection",
                       "--oracle", f)
    assert (rc1, out1) == (rc2, out2)


def test_eval_ordinary_and_trace(sel, capsys):
    f = sel("(fun (x:Bool) -> 1 . x) tt")
    rc, out, _ = run(capsys, "eval", "--semantics", "ordinary", f)
    assert rc == 0
    assert out.strip() == "1 . tt"
    rc, out, _ = run(capsys, "eval", "--semantics", "ordinary", "--trace", f)
    assert rc == 0
    assert len(out.splitlines()) > 1
    assert out == TRACE_GOLDEN[0][1]
    f = sel(TRACE_GOLDEN[1][0])
    rc, out, _ = run(capsys, "eval", "--semantics", "ordinary", "--trace", f)
    assert (rc, out) == (0, TRACE_GOLDEN[1][1])


# (program, exact stdout of ``eval --semantics ordinary --trace``): the
# snapshots indented two spaces per branch depth, then the effect value
TRACE_GOLDEN = [
    ("(fun (x:Bool) -> 1 . x) tt", """\
(fun (x:Bool) -> 1 . x) tt
1 . tt
  tt
1 . tt
"""),
    ("mode prob;\nlet f : Bool -> Bool = fun (x:Bool) -> if x then 1 . ff "
     "else 2 . tt in\nf (tt +[1/3] (3 . (tt or ff)))", """\
(fun (f:(Bool -> Bool)) -> f (tt +[1/3] 3 . (tt or ff))) (fun (x:Bool) -> if x then 1 . ff else 2 . tt)
(fun (x:Bool) -> if x then 1 . ff else 2 . tt) (tt +[1/3] 3 . (tt or ff))
  (fun (x:Bool) -> if x then 1 . ff else 2 . tt) tt
  if tt then 1 . ff else 2 . tt
  1 . ff
    ff
  (fun (x:Bool) -> if x then 1 . ff else 2 . tt) (3 . (tt or ff))
    (fun (x:Bool) -> if x then 1 . ff else 2 . tt) (tt or ff)
      (fun (x:Bool) -> if x then 1 . ff else 2 . tt) tt
      if tt then 1 . ff else 2 . tt
      1 . ff
        ff
      (fun (x:Bool) -> if x then 1 . ff else 2 . tt) ff
      if ff then 1 . ff else 2 . tt
      2 . tt
        tt
1 . ff +[1/3] 3 . (1 . ff or 2 . tt)
"""),
]


def test_eval_denotational_defaults(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational", sel(E1))
    assert rc == 0
    assert out.strip() == "reward 6, value ff"


def test_eval_denotational_t3_json(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational",
                     "--monad", "T3", "--json", sel(E2))
    doc = json.loads(out)
    assert doc["monad"] == "T3"
    assert doc["reward"] == "11/2"


# The program behind the "DW (Bool -> Bool) 0" line of
# tests/test_denote_golden.py.  Its condition is a two-atom distribution and
# each branch makes a function value.  The atoms print in atom_key order,
# whatever order DW bind's outer loop merged them in (the 2/3 atom was
# merged first).
FN_ORDER = ("mode prob; if oplus[1/3]((-1/2 + -1) . 1, -1) . (ff +[2/3] tt)"
            " then fun (v1:Bool) -> tt else if tt then fun (v2:Bool) -> ff"
            " else fun (v3:Bool) -> ff")


def test_function_values_print_in_atom_order(sel, capsys):
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational", "--json",
                     "--monad", "DW", sel(FN_ORDER))
    assert rc == 0
    assert out == (
        '{"version": "1", "monad": "DW", "outcome": ['
        '{"prob": "1/3", "reward": "-11/6", "value": "<function>"}, '
        '{"prob": "2/3", "reward": "-11/6", "value": "<function>"}]}\n')


# A selection whose condition is an ``or``: choosing between the two
# branches takes the expectation of each, and that expectation's valuation
# runs the continuation, which makes the function values.  They print in
# atom_key order too, whatever order expect ran the valuation in.
OR_FN_ORDER = ("mode prob; if ((ff +[2/3] tt) or (ff +[2/3] tt))"
               " then fun (v1:Bool) -> tt else fun (v2:Bool) -> ff")


@pytest.mark.parametrize("monad", ["DW", "T2", "T3"])
def test_or_condition_prints_functions_in_atom_order(sel, capsys, monad):
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational", "--json",
                     "--monad", monad, sel(OR_FN_ORDER))
    assert rc == 0
    doc = json.loads(out)
    atoms = doc["outcome"] if monad == "DW" else doc["dist"]
    assert [a["prob"] for a in atoms] == ["1/3", "2/3"]


# Two equal closures are one value in both semantics, as the two equal
# lambdas are one outcome of the selection semantics.
EQUAL_FNS = "mode prob; (fun (y:Bool) -> y) +[1/2] (fun (y:Bool) -> y)"


@pytest.mark.parametrize("monad, want", [
    ("DW", "1: reward 0, value <function>"),
    ("T2", "dist: 1 <function>; rewards: <function> -> 0"),
    ("T3", "dist: 1 <function>; reward 0"),
], ids=["DW", "T2", "T3"])
def test_equal_function_values_are_one_atom(sel, capsys, monad, want):
    f = sel(EQUAL_FNS)
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational",
                     "--monad", monad, f)
    assert (rc, out) == (0, want + "\n")
    rc, out, _ = run(capsys, "eval", f)
    assert (rc, out) == (0, "1: reward 0, value fun (y:Bool) -> y\n")


def _outcome_atoms(doc):
    """The outcome atoms of an ``eval --json`` answer; a W value is one
    atom of probability 1."""
    if "outcome" in doc:
        return doc["outcome"]
    return [{"prob": "1", "reward": doc["reward"], "value": doc["value"]}]


@pytest.mark.parametrize("ty", [BOOL, UNIT, Prod(BOOL, UNIT)], ids=str)
@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_eval_adequacy_at_the_command_line(sel, capsys, mode, ty):
    # the selected outcome and the denotation at the zero table print alike
    for seed in range(40):
        cfg = GenConfig(seed=seed, max_term_size=20, mode=mode)
        config = cfg.lang()
        f = sel(pretty_program(Program(config, gen_program(cfg, ty,
                                                            config=config))))
        text = [run(capsys, "eval", *sem, f)
                for sem in ([], ["--semantics", "denotational"])]
        assert text[0][0] == 0 and text[0] == text[1], (seed, text)
        docs = [json.loads(run(capsys, "eval", "--json", *sem, f)[1])
                for sem in ([], ["--semantics", "denotational"])]
        assert _outcome_atoms(docs[0]) == _outcome_atoms(docs[1]), seed


def test_eval_gamma_file(sel, capsys, tmp_path):
    g = tmp_path / "gamma.json"
    g.write_text(json.dumps({"tt": "2", "ff": "0"}))
    rc, out, _ = run(capsys, "eval", "--semantics", "denotational",
                     "--gamma", str(g), sel(E1))
    assert rc == 0
    assert out.strip() == "reward 5, value tt"


def test_eval_gamma_unknown_constant(sel, capsys, tmp_path):
    g = tmp_path / "gamma.json"
    g.write_text(json.dumps({"zz": "1"}))
    rc, _, err = run(capsys, "eval", "--semantics", "denotational",
                     "--gamma", str(g), sel(E1))
    assert rc == 3
    assert "zz" in err


def test_monad_mode_mismatch(sel, capsys):
    rc, _, err = run(capsys, "eval", "--semantics", "denotational",
                     "--monad", "T2", sel(E1))
    assert rc == 3


@pytest.mark.parametrize("command", [["eval", "--semantics", "denotational"],
                                     ["canon"], ["pure"], ["equiv"]])
def test_monad_structure_mismatch_is_a_usage_error(sel, capsys, command):
    # T3 pools rewards, which a multiplicative structure does not mix
    f = sel("mode prob; structure MulPositiveRationals;\n(2 . tt) +[1/2] ff")
    files = [f, f] if command == ["equiv"] else [f]
    rc, out, err = run(capsys, *command, "--monad", "T3", *files)
    assert rc == 3 and out == ""
    assert "Error: monad T3: structure MulPositiveRationals does not mix" in err


PROB_ONLY = "--monad applies to probabilistic mode"


@pytest.mark.parametrize("command, want", [
    ("eval", "monad DW does not fit mode rewards"), ("canon", PROB_ONLY),
    ("equiv", PROB_ONLY), ("distinguish", PROB_ONLY), ("pure", PROB_ONLY)])
def test_prob_monad_on_a_rewards_program_is_a_usage_error(sel, capsys,
                                                          command, want):
    f = sel(E1)
    files = [f, f] if command in ("equiv", "distinguish") else [f]
    flags = ["--semantics", "denotational"] if command == "eval" else []
    rc, out, err = run(capsys, command, *flags, "--monad", "DW", *files)
    assert (rc, out, err.splitlines()[-1]) == (3, "", f"Error: {want}")


@pytest.mark.parametrize("command", ["equiv", "distinguish"])
def test_equiv_bases_declared_differently_is_a_usage_error(sel, capsys, command):
    # A's h is B's t by index, so comparing the terms would mix them up
    a = sel("base Coin = {h, t};\n(1 . h) or t", "a.sel")
    b = sel("base Coin = {t, h};\n(1 . h) or t", "b.sel")
    rc, out, err = run(capsys, command, a, b)
    assert rc == 3 and out == ""
    assert "Error: the two programs declare base Coin differently" in err
    assert run(capsys, command, a, a)[0] == {"equiv": 0, "distinguish": 1}[command]


def test_flag_combination_validated(sel, capsys):
    rc, _, err = run(capsys, "eval", "--semantics", "ordinary", "--oracle",
                     sel(E1))
    assert rc == 3


def test_mode_conflict_exit_3(sel, capsys):
    f = sel("mode prob;\ntt or ff")
    rc, _, err = run(capsys, "eval", "--semantics", "selection",
                     "--mode", "rewards", f)
    assert rc == 3


def test_parse_error_exit_3(sel, capsys):
    rc, _, err = run(capsys, "eval", "--semantics", "selection",
                     sel("(5 . tt) or"))
    assert rc == 3
    assert err


def test_missing_file_exit_3(capsys):
    rc, _, _ = run(capsys, "eval", "--semantics", "selection", "/no/such.sel")
    assert rc == 3


def test_unreadable_files_exit_3(sel, capsys, tmp_path):
    bad = str(tmp_path / "bad.sel")
    Path(bad).write_bytes(b"\xff\xfe tt")
    not_text = f"Error: Could not open file {bad!r}: not UTF-8 text"
    gamma = ["eval", "--semantics", "denotational", "--gamma"]
    for args, want in (
            (["eval", bad], not_text),
            (gamma + [bad, sel(E1)], not_text),
            (gamma + ["/no/such.json", sel(E1)], "Error: Could not open file "
             "'/no/such.json': No such file or directory")):
        rc, out, err = run(capsys, *args)
        assert (rc, out, err.strip()) == (3, "", want), args


def test_canon(sel, capsys):
    rc, out, _ = run(capsys, "canon", sel("(5 . tt) or (6 . ff) or (4 . tt)"))
    assert rc == 0
    assert out.strip() == "5 . tt or 6 . ff"


def test_equiv_positive(sel, capsys):
    rc, out, _ = run(capsys, "equiv", sel("(2 . tt) or (2 . tt)", "a.sel"),
                     sel("2 . tt", "b.sel"))
    assert rc == 0
    assert out.strip() == "equivalent"


def test_equiv_negative_shows_context(sel, capsys):
    rc, out, _ = run(capsys, "equiv", sel("tt or ff", "a.sel"),
                     sel("ff or tt", "b.sel"))
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "inequivalent"
    assert any(l.startswith("context:") for l in lines)


def test_equiv_prob_negative_kappa_context(sel, capsys):
    rc, out, _ = run(capsys, "equiv",
                     sel("mode prob;\n(1 . tt) +[1/2] ff", "a.sel"),
                     sel("mode prob;\ntt +[1/2] ff", "b.sel"))
    assert rc == 1
    assert "inequivalent" in out


def test_equiv_prob_negative_output_is_pinned(sel, capsys):
    # equal at the zero table; the first separating table is the second one
    a = sel("mode prob;\n(tt +[1/2] ff) or tt", "a.sel")
    b = sel("mode prob;\ntt +[1/2] ff", "b.sel")
    context = "(fun (x:Bool) -> if x == tt then 3 . tt else 1 . ff) [-]"
    rc, out, _ = run(capsys, "equiv", a, b)
    assert rc == 1
    assert out == f"""inequivalent
context: {context}
gamma: {{"tt": "3", "ff": "1"}}
context[A]: 1: reward 3, value tt
context[B]: 1/2: reward 1, value ff; 1/2: reward 3, value tt
"""
    rc, out, _ = run(capsys, "equiv", "--json", a, b)
    assert rc == 1
    assert out == (
        '{"version": "1", "equivalent": false, "context": "' + context + '", '
        '"gamma": {"tt": "3", "ff": "1"}, '
        '"left": {"outcome": [{"prob": "1", "reward": "3", "value": "tt"}]}, '
        '"right": {"outcome": [{"prob": "1/2", "reward": "1", "value": "ff"}, '
        '{"prob": "1/2", "reward": "3", "value": "tt"}]}}\n')


def test_equiv_json(sel, capsys):
    rc, out, _ = run(capsys, "equiv", "--json",
                     sel("tt or ff", "a.sel"), sel("ff or tt", "b.sel"))
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert "context" in doc


def test_pure_positive(sel, capsys):
    rc, out, _ = run(capsys, "pure", sel("if tt == tt then tt else ff"))
    assert rc == 0
    assert out.strip() == "pure: tt"


def test_pure_negative_with_witness(sel, capsys):
    rc, out, _ = run(capsys, "pure", sel("ff or ((-1) . (tt or ff))"))
    assert rc == 1
    assert out.splitlines()[0] == "impure"
    assert "witness" in out


def test_pure_canonicalises_an_impure_program_once(sel, capsys, monkeypatch):
    # the verdict and the witness both read the form the program keeps,
    # so the canonicalising fold runs once
    import selcalc.equations
    real, calls = selcalc.equations.best_outcomes, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(selcalc.equations, "best_outcomes", counting)
    rc, out, _ = run(capsys, "pure", sel("ff or ((-1) . (tt or ff))"))
    assert rc == 1 and "witness" in out
    assert len(calls) == 1


def test_pure_monad_relative(sel, capsys):
    f = sel("mode prob;\n(1 . tt) +[1/2] ((-1) . tt)")
    rc, out, _ = run(capsys, "pure", f)
    assert rc == 1
    rc, out, _ = run(capsys, "pure", "--monad", "T2", f)
    assert rc == 0
    assert out.strip() == "pure: tt"


def test_distinguish_flips_exit(sel, capsys):
    rc, _, _ = run(capsys, "distinguish", sel("tt or ff", "a.sel"),
                   sel("ff or tt", "b.sel"))
    assert rc == 0
    rc, _, _ = run(capsys, "distinguish", sel("2 . tt", "c.sel"),
                   sel("(2 . tt) or (2 . tt)", "d.sel"))
    assert rc == 1


def test_gen_outputs_parse(sel, capsys, tmp_path):
    rc, out, _ = run(capsys, "gen", "--seed", "9", "--count", "3",
                     "--mode", "prob")
    assert rc == 0
    from selcalc.syntax import parse_program, typecheck, BOOL
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        p = parse_program(line, mode="prob")
        assert typecheck(p.term, config=p.config) == BOOL


def test_gen_deterministic(capsys):
    rc, out1, _ = run(capsys, "gen", "--seed", "4", "--count", "2")
    rc, out2, _ = run(capsys, "gen", "--seed", "4", "--count", "2")
    assert out1 == out2


def test_check_small_suite(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "argmax-lemmas",
                     "--cases", "25")
    assert rc == 0
    assert out.strip() == "25/25 OK"


def test_check_shorthand_resolution(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "adequacy",
                     "--mode", "rewards", "--cases", "5")
    assert rc == 0
    assert out.strip() == "5/5 OK"


def test_check_t1_alias(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "adequacy", "--mode", "prob",
                     "--monad", "T1", "--cases", "4", "--json")
    doc = json.loads(out)
    assert doc["suite"] == "adequacy-prob-T1"
    assert doc["ok"] is True


@pytest.mark.parametrize("args, suite", [
    (("adequacy-prob-T2", "--monad", "T3"), "adequacy-prob-T2"),
    (("adequacy-rewards", "--mode", "prob"), "adequacy-rewards"),
    (("monad-laws", "--monad", "T2"), "monad-laws"),
    (("purity-rewards", "--monad", "T3"), "purity-rewards"),
    (("argmax-lemmas", "--mode", "prob"), "argmax-lemmas"),
    (("axioms", "--mode", "prob", "--monad", "T2"), "axioms-fig4"),
])
def test_check_refuses_options_that_contradict_the_suite(capsys, args, suite):
    rc, out, err = run(capsys, "check", "--suite", *args, "--cases", "1",
                       "--json")
    assert (rc, out) == (3, "")
    assert f"suite {suite} does not" in err


@pytest.mark.parametrize("args, suite", [
    (("adequacy-prob-T2", "--monad", "T2"), "adequacy-prob-T2"),
    (("adequacy-prob-T1", "--monad", "T1", "--mode", "prob"),
     "adequacy-prob-T1"),
    (("adequacy", "--mode", "prob", "--monad", "T3"), "adequacy-prob-T3"),
    (("purity", "--mode", "prob", "--monad", "T2"), "purity-prob"),
    (("purity-prob", "--monad", "T3"), "purity-prob"),
    (("purity-rewards", "--mode", "rewards"), "purity-rewards"),
])
def test_check_accepts_options_that_fit_the_suite(capsys, args, suite):
    rc, out, _ = run(capsys, "check", "--suite", *args, "--cases", "1",
                     "--json")
    assert rc == 0
    assert json.loads(out)["suite"] == suite


@pytest.mark.parametrize("suite", ["equiv-roundtrip", "mr-fullab"])
def test_check_rewards_only_suites_take_mode_rewards(capsys, suite):
    rc, out, _ = run(capsys, "check", "--suite", suite, "--mode", "rewards",
                     "--cases", "2", "--json")
    assert rc == 0
    assert json.loads(out)["suite"] == suite
    rc, out, err = run(capsys, "check", "--suite", suite, "--mode", "prob",
                       "--cases", "1")
    assert (rc, out) == (3, "")
    assert f"suite {suite} does not run in mode prob" in err


@pytest.mark.parametrize("suite, monad", [("adequacy-prob-T2", "T3"),
                                          ("monad-laws", "T2")])
def test_run_suite_refuses_a_monad_the_suite_does_not_declare(suite, monad):
    from selcalc.properties import run_suite
    with pytest.raises(ValueError, match=f"suite {suite} does not take"):
        run_suite(suite, cases=1, monad=monad, jobs=1)


def test_run_suite_refuses_a_negative_case_count():
    from selcalc.properties import run_suite
    with pytest.raises(ValueError, match="cases must be nonnegative, got -3"):
        run_suite("argmax-lemmas", cases=-3, jobs=1)
    assert run_suite("argmax-lemmas", cases=0, jobs=1).total == 0


def test_run_suite_refuses_an_unknown_suite_and_names_the_known_ones():
    from selcalc.properties import SUITES, run_suite
    with pytest.raises(ValueError, match="unknown suite 'nope'; known: ") as e:
        run_suite("nope", cases=1, jobs=1)
    assert all(name in str(e.value) for name in SUITES)


def test_run_suite_resolves_the_declared_default_monad():
    from selcalc.properties import suite_monad
    assert suite_monad("purity-prob") == "DW"
    assert suite_monad("purity-prob", "T3") == "T3"
    assert suite_monad("adequacy-rewards") == "W"
    assert suite_monad("monad-laws") is None


def test_check_zero_cases_warns(capsys):
    rc, out, err = run(capsys, "check", "--suite", "monad-laws", "--cases", "0")
    assert rc == 0
    assert out.strip() == "0/0 OK"
    assert "warning" in err


def test_check_unknown_suite(capsys):
    rc, _, err = run(capsys, "check", "--suite", "bogus")
    assert rc == 3
    assert "bogus" in err


def test_check_json_schema(capsys):
    rc, out, _ = run(capsys, "check", "--suite", "char-bool", "--cases", "3",
                     "--json")
    doc = json.loads(out)
    assert doc == {"version": "1", "suite": "char-bool", "passed": 3,
                   "total": 3, "ok": True, "failures": []}


def test_suites_registry():
    names = suites()
    assert "adequacy-rewards" in names
    assert "mr-fullab" in names
    assert len(names) == 19


# name: (default case count, total at cases=2)
SUITE_SIZES = {
    "adequacy-rewards": (500, 2), "adequacy-prob-T1": (300, 2),
    "adequacy-prob-T2": (300, 2), "adequacy-prob-T3": (300, 2),
    "local-vs-brute": (300, 2), "monad-laws": (1000, 10),
    "theta-morphism": (500, 2), "axioms-fig3": (100, 20),
    "axioms-fig4": (50, 36), "genax-or": (200, 2), "distributivity": (200, 2),
    "canon-sound": (300, 2), "equiv-roundtrip": (200, 2),
    "purity-rewards": (200, 2), "purity-prob": (200, 2),
    "k-gamma-injective": (500, 2), "char-bool": (200, 2), "mr-fullab": (300, 2),
    "argmax-lemmas": (500, 2),
}


def test_suites_registry_pins_sizes():
    from selcalc.properties import SUITES, run_suite
    assert suites() == list(SUITE_SIZES)
    for name, (default, total) in SUITE_SIZES.items():
        assert SUITES[name][1] == default, name
        res = run_suite(name, seed=0, cases=2, jobs=1)
        assert (res.passed, res.total) == (total, total), name


@pytest.mark.parametrize("src", ["mode prob;\ntt +[1/0] ff", "(1/0) . tt",
                                 "mode prob;\noplus[1/0](1, 2) . tt"])
def test_zero_denominator_is_a_syntax_error(sel, capsys, src):
    rc, _, err = run(capsys, "eval", "--semantics", "selection", sel(src))
    assert rc == 3
    assert "zero denominator" in err and "internal error" not in err


@pytest.mark.parametrize("table", [[1, 2], "tt", 3, None])
def test_eval_gamma_must_be_an_object(sel, capsys, tmp_path, table):
    g = tmp_path / "gamma.json"
    g.write_text(json.dumps(table))
    rc, _, err = run(capsys, "eval", "--semantics", "denotational",
                     "--gamma", str(g), sel(E1))
    assert rc == 3
    assert "JSON object" in err and "internal error" not in err


def test_eval_gamma_zero_denominator(sel, capsys, tmp_path):
    g = tmp_path / "gamma.json"
    g.write_text(json.dumps({"tt": "1/0"}))
    rc, _, err = run(capsys, "eval", "--semantics", "denotational",
                     "--gamma", str(g), sel(E1))
    assert rc == 3
    assert "internal error" not in err


def test_raising_case_fails_alone(monkeypatch):
    from selcalc import properties

    def fake_suite(seed, cases, mode, monad):
        def one(i):
            if i == 2:
                raise ValueError("boom")
            if i == 4:
                raise AssertionError("four")
        return one

    monkeypatch.setitem(properties.SUITES, "fake",
                        properties.Suite(fake_suite, 6, 1, None, ()))
    res = properties.run_suite("fake", seed=9, jobs=1)
    assert (res.passed, res.total) == (4, 6)
    assert res.failures == ["fake seed 9 case 2: ValueError: boom",
                            "fake seed 9 case 4: four"]


@pytest.mark.parametrize("type_text, want", [
    ("Bool * Bool", Prod(BOOL, BOOL)), ("Bool -> Bool", Arrow(BOOL, BOOL))])
def test_gen_type_targets_that_type(capsys, type_text, want):
    rc, out, _ = run(capsys, "gen", "--seed", "3", "--count", "3",
                     "--type", type_text)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        p = parse_program(line, mode="rewards")
        assert typecheck(p.term, config=p.config) == want


@pytest.mark.parametrize("type_text", ["Bool )", "Bool!", "Nat"])
def test_gen_bad_type_is_a_usage_error(capsys, type_text):
    rc, out, err = run(capsys, "gen", "--type", type_text)
    assert rc == 3
    assert out == "" and "internal error" not in err


def test_gen_type_is_one_whole_type(capsys):
    rc, out, err = run(capsys, "gen", "--type", "Bool Bool")
    assert (rc, out) == (3, "")
    assert err == "error: expected 'eof', found 'Bool' (token 2)\n"
    parens = "(" * 2000 + "Bool * Bool" + ")" * 2000
    rc, out, _ = run(capsys, "gen", "--seed", "3", "--type", parens)
    assert rc == 0
    p = parse_program(out, mode="rewards")
    assert typecheck(p.term, config=p.config) == Prod(BOOL, BOOL)


@pytest.mark.parametrize("args", [("--size", "0"), ("--size", "-3"),
                                  ("--count", "-1")])
def test_gen_out_of_range_is_a_usage_error(capsys, args):
    rc, out, err = run(capsys, "gen", *args)
    assert rc == 3
    assert out == "" and "internal error" not in err


@pytest.mark.parametrize("structure", ["MulPositiveRationals", "NonNegAdd"])
def test_equiv_without_context_procedure_is_indeterminate(sel, capsys,
                                                          structure):
    rc, out, err = run(capsys, "equiv",
                       sel(f"structure {structure};\n(2 . tt) or (3 . ff)", "a.sel"),
                       sel(f"structure {structure};\n(3 . tt) or (2 . ff)", "b.sel"))
    assert rc == 2
    assert err.startswith("indeterminate:") and "internal error" not in err


def plug_source(context, src):
    """A printed context with the program's source in place of its hole."""
    assert context.count("[-]") == 1
    return context.replace("[-]", f"({src})")


@pytest.mark.parametrize("left, right", [
    ("<tt, tt> or <ff, ff>", "<ff, ff> or <tt, tt>"),
    ("<tt, <*, ff>> or <ff, <*, tt>>", "<ff, <*, tt>> or <tt, <*, ff>>"),
    ("<tt, tt>", "<ff, ff>"),
])
def test_equiv_ground_values_get_a_context(sel, capsys, left, right):
    rc, out, err = run(capsys, "equiv", "--json", sel(left, "a.sel"),
                       sel(right, "b.sel"))
    assert rc == 1 and "internal error" not in err
    ctx = json.loads(out)["context"]
    outcomes = []
    for src in (left, right):
        p = parse_program(plug_source(ctx, src))
        assert typecheck(p.term, config=p.config) == BOOL
        outcomes.append(select_program(p.term, p.config))
    assert outcomes[0] != outcomes[1]


def test_equiv_reordered_functions_is_indeterminate(sel, capsys):
    f, g = "(fun (y:Bool) -> y)", "(fun (y:Bool) -> tt)"
    rc, out, err = run(capsys, "equiv", sel(f"{f} or {g}", "a.sel"),
                       sel(f"{g} or {f}", "b.sel"))
    assert rc == 2
    assert err.startswith("indeterminate:") and "internal error" not in err


ID_X = "fun (x:Bool) -> x"
ID_Y = "fun (y:Bool) -> y"


@pytest.mark.parametrize("monad", ["DW", "T2", "T3"])
def test_prob_equiv_ignores_renaming_of_bound_variables(sel, capsys, monad):
    a = sel("mode prob; " + ID_X, "a.sel")
    b = sel("mode prob; " + ID_Y, "b.sel")
    assert run(capsys, "equiv", "--monad", monad, a, b) == (
        0, "equivalent\n", "")
    mixed = sel(f"mode prob; ({ID_X}) +[1/2] ({ID_Y})", "c.sel")
    assert run(capsys, "equiv", "--monad", monad, a, mixed)[0] == 0


def test_prob_equiv_gathers_renamed_values_in_t2_and_t3(sel, capsys):
    a = sel(f"mode prob; (1 . ({ID_X})) +[1/2] (3 . ({ID_Y}))", "a.sel")
    b = sel(f"mode prob; 2 . ({ID_X})", "b.sel")
    for monad in ("T2", "T3"):
        assert run(capsys, "equiv", "--monad", monad, a, b)[0] == 0
    rc, _, err = run(capsys, "equiv", "--monad", "DW", a, b)
    assert rc == 2
    assert "not sampled at a function type" in err


def test_equiv_unequal_lambdas_is_indeterminate(sel, capsys):
    rc, out, err = run(capsys, "equiv", sel("fun (y:Bool) -> y", "a.sel"),
                       sel("fun (y:Bool) -> if y then tt else ff", "b.sel"))
    assert rc == 2 and out == ""
    assert err.startswith("indeterminate:") and "internal error" not in err


@pytest.mark.parametrize("command", ["equiv", "distinguish"])
@pytest.mark.parametrize("monad", ["DW", "T2", "T3"])
def test_prob_context_parses_back(sel, capsys, command, monad):
    left, right = "mode prob;\n(1 . tt) +[1/2] ff", "mode prob;\ntt +[1/2] ff"
    rc, out, _ = run(capsys, command, "--json", "--monad", monad,
                     sel(left, "a.sel"), sel(right, "b.sel"))
    assert rc == (1 if command == "equiv" else 0)
    ctx = json.loads(out)["context"]
    outcomes = []
    for src in (left, right):
        mode, body = src.split("\n")
        p = parse_program(f"{mode}\n{plug_source(ctx, body)}")
        assert typecheck(p.term, config=p.config) == BOOL
        outcomes.append(observe(p.term, p.config, monad))
    assert outcomes[0] != outcomes[1]


def run_python(*args, timeout=120):
    """Run a fresh interpreter with this checkout's package importable."""
    src = str(Path(selcalc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_package_import_loads_cli_on_first_use():
    done = run_python("-c", "import sys, selcalc\n"
                      "print('click' in sys.modules, 'selcalc.cli' in sys.modules)\n"
                      "print(selcalc.main is selcalc.cli.main, 'click' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True", "True"]


def test_package_run_suite_loads_no_cli():
    done = run_python("-c", "import sys, selcalc\nselcalc.run_suite\n"
                      "print('click' in sys.modules, 'selcalc.cli' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_module_entry_point_runs_without_warning():
    done = run_python("-m", "selcalc.cli", "--help")
    assert done.returncode == 0
    assert "Usage:" in done.stdout
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("left, right, types", [
    ("tt", "fun (y:Bool) -> y", "Bool vs (Bool -> Bool)"),
    ("mode prob;\ntt", "mode prob;\nfun (x:Bool) -> x", "Bool vs (Bool -> Bool)"),
    ("mode prob;\n<tt, ff>", "mode prob;\ntt +[1/2] ff", "(Bool * Bool) vs Bool"),
])
def test_equiv_type_mismatch_is_a_type_error(sel, capsys, left, right, types):
    rc, out, err = run(capsys, "equiv", sel(left, "a.sel"), sel(right, "b.sel"))
    assert rc == 3 and out == ""
    assert err.strip() == f"error: type mismatch: {types}"


def test_prob_equiv_on_functions_is_indeterminate(sel, capsys):
    rc, out, err = run(capsys, "equiv", sel("mode prob; fun (x:Bool) -> x", "a.sel"),
                       sel("mode prob; (fun (x:Bool) -> x) +[1/2] "
                           "(fun (x:Bool) -> tt)", "b.sel"))
    assert rc == 2 and out == ""
    assert err.startswith("indeterminate:") and "internal error" not in err


@pytest.mark.parametrize("left, right", [
    ("1 . *", "2 . *"),
    ("<tt, tt> +[1/2] <ff, ff>", "<tt, ff>"),
    ("1 +[1/2] 3", "2"),
])
def test_prob_equiv_off_base_types_separates_at_the_zero_table(sel, capsys,
                                                              left, right):
    rc, out, err = run(capsys, "equiv", "--json",
                       sel(f"mode prob;\n{left}", "a.sel"),
                       sel(f"mode prob;\n{right}", "b.sel"))
    assert rc == 1 and err == ""
    ctx = json.loads(out)["context"]
    outcomes = []
    for src in (left, right):
        p = parse_program(f"mode prob;\n{plug_source(ctx, src)}")
        outcomes.append(observe(p.term, p.config))
    assert outcomes[0] != outcomes[1]


def test_prob_equiv_off_base_types_equal_at_the_zero_table_is_unknown(
        sel, capsys):
    rc, out, err = run(capsys, "equiv", sel("mode prob;\n* or (1 . *)", "a.sel"),
                       sel("mode prob;\n1 . *", "b.sel"))
    assert (rc, out, err) == (2, "unknown\n", "")


@pytest.mark.parametrize("monad", ["DW", "T2", "T3"])
def test_prob_pure_off_base_types_is_indeterminate(sel, capsys, monad):
    f = sel("mode prob;\n<tt, *> +[1/2] (1 . <ff, *>)")
    rc, out, err = run(capsys, "pure", "--monad", monad, f)
    assert rc == 2 and out == ""
    assert err == ("indeterminate: purity decision applies to programs of "
                   "base type\n")


@pytest.mark.parametrize("src, want", [
    ("(" + " + ".join(["1"] * 800) + ") . tt", "reward 800, value tt"),
    ("let f : Bool -> Bool = fun (x:Bool) -> 1 . x in "
     + "f (" * 200 + "ff" + ")" * 200, "reward 200, value ff"),
], ids=["sum800", "app200"])
def test_eval_deep_programs(sel, capsys, src, want):
    rc, out, err = run(capsys, "eval", sel(src))
    assert (rc, out.strip(), err) == (0, want, "")


def test_nesting_too_deep_is_a_resource_failure(sel, capsys, monkeypatch):
    def too_deep(*_):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("selcalc.cli.denote", too_deep)
    rc, out, err = run(capsys, "eval", "--semantics", "denotational", sel("tt"))
    assert rc == 4 and out == ""
    assert err.strip() == "resource or invariant failure: term nesting too deep"


def test_constant_declared_twice_is_a_parse_error(sel, capsys):
    rc, out, err = run(capsys, "eval", sel("base C = {a, a};\na"))
    assert rc == 3 and out == ""
    assert err.strip() == "error: constant 'a' declared twice"


@pytest.mark.parametrize("name, src", [
    ("Bool", "base Bool = {a, b};\nif a then a else b"),
    ("Rew", "base Rew = {x};\nx . tt"),
    ("Unit", "base Unit = {u};\n1 <= 2"),
])
def test_builtin_type_declared_as_base_is_a_parse_error(sel, capsys, name, src):
    rc, out, err = run(capsys, "eval", sel(src))
    assert (rc, out, err.strip()) == (3, "", f"error: {name} is a built-in type")


def test_keyword_declared_as_constant_is_a_parse_error(sel, capsys):
    # `equiv` would otherwise print a context naming the constant `or`,
    # which does not parse back
    a = sel("mode prob; base C = {or, b}; (1 . b) +[1/2] b", "a.sel")
    b = sel("mode prob; base C = {or, b}; b", "b.sel")
    rc, out, err = run(capsys, "equiv", a, b)
    assert (rc, out, err.strip()) == (
        3, "", "error: keyword 'or' cannot name a constant")


def test_function_outcome_through_an_unused_binder_is_one_atom(sel, capsys):
    # both values of x lead to one shared body computation, so the
    # denotation holds one function value, as the operational outcome does
    f = sel("mode prob; let x : Bool = tt +[1/2] ff in fun (y:Bool) -> y")
    den = ["eval", "--semantics", "denotational"]
    assert run(capsys, *den, f) == (0, "1: reward 0, value <function>\n", "")
    assert run(capsys, "eval", f) == (
        0, "1: reward 0, value fun (y:Bool) -> y\n", "")
    rc, out, _ = run(capsys, *den, "--json", f)
    assert rc == 0 and json.loads(out) == {"version": "1", "monad": "DW",
        "outcome": [{"prob": "1", "reward": "0", "value": "<function>"}]}
    rc, out, _ = run(capsys, "eval", "--json", f)
    assert rc == 0 and json.loads(out)["outcome"] == [
        {"prob": "1", "reward": "0", "value": "fun (y:Bool) -> y"}]


@pytest.mark.parametrize("src,offset,char", [
    ("² . tt", 0, "²"), ("① . tt", 0, "①"), ("tt or 1² . ff", 7, "²"),
], ids=["superscript", "circled", "after-a-digit"])
def test_numeral_that_is_no_decimal_digit_is_a_parse_error(sel, capsys, src,
                                                            offset, char):
    # str.isdigit accepts '²' and '①', which no int() reads
    rc, out, err = run(capsys, "eval", sel(src))
    assert (rc, out, err.strip()) == (
        3, "", f"error: unexpected character {char!r} at offset {offset}")


def test_decimal_digits_of_any_script_still_read_as_numbers(sel, capsys):
    assert run(capsys, "eval", sel("٣ . tt")) == (0, "reward 3, value tt\n", "")
    # a numeral after a name's first letter is part of the name
    assert run(capsys, "eval", sel("x²")) == (
        3, "", "error: unbound variable x²\n")


def test_numeral_past_the_digit_limit_is_a_parse_error(sel, capsys):
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "eval", sel("1" * (limit + 700) + " . tt"))
    assert (rc, out, err.strip()) == (
        3, "", f"error: numeral {'1' * 20}... has too many digits (token 1)")


def test_result_past_the_digit_limit_is_a_resource_failure(sel, capsys):
    # each factor is legal; their product has 5000 digits
    src = ("structure MulPositiveRationals;\n"
           + " ".join(["9" * 1000 + " ."] * 5) + " tt")
    for json_flag in ([], ["--json"]):
        rc, out, err = run(capsys, "eval", *json_flag, sel(src))
        assert (rc, out, err.strip()) == (
            4, "", "resource or invariant failure: a number too long to "
            f"print (over {sys.get_int_max_str_digits()} digits)")


@pytest.mark.parametrize("table, why", [
    # Fraction("1e400000000") would build a 400-million-digit numerator
    ('{"tt": "1e400000000"}', "exponent notation"),
    ('{"tt": 1' + "0" * 5000 + "}", "a number has more than"),
], ids=["exponent", "long-json-number"])
def test_gamma_too_large_is_refused_at_once(sel, tmp_path, table, why):
    g = tmp_path / "gamma.json"
    g.write_text(table)
    done = run_python("-m", "selcalc.cli", "eval", "--semantics",
                      "denotational", "--gamma", str(g), sel(E1), timeout=30)
    assert done.returncode == 3
    assert f"bad valuation table: {why}" in done.stderr
