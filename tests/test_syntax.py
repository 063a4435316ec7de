"""Parser, printer, and typechecker behavior, including mode inference from
the file prelude; the lexer against the character loop it replaced, the
parser on random token streams, and the work substitution does."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from selcalc import syntax
from selcalc.rewards import STRUCTURES
from selcalc.syntax import (
    App, Arrow, BOOL, Base, Const, FF, Hole, If, Lam, LangConfig, Or,
    PChoice, Pair, Prod, Program, REW, Rew, RewConst, SelSyntaxError,
    SelTypeError, TT, UNIT, Var, _KEYWORDS, _lex, alpha_eq, free_vars,
    make_dispatcher, nodes, parse_program, plug, pretty, pretty_program,
    substitute, type_rank, typecheck,
)
from selcalc.testgen import GenConfig, gen_program


def parse1(src, **kw):
    return parse_program(src, **kw)


def test_simple_or():
    p = parse1("(5 . tt) or (6 . ff)")
    assert p.config.mode == "rewards"
    assert p.term == Or(Rew(RewConst(F(5)), TT), Rew(RewConst(F(6)), FF))


def test_mode_inferred_from_pchoice():
    p = parse1("tt +[1/2] ff")
    assert p.config.mode == "prob"
    assert p.term == PChoice(F(1, 2), TT, FF)


def test_mode_prelude_wins_over_inference():
    p = parse1("mode prob;\ntt or ff")
    assert p.config.mode == "prob"


def test_mode_conflict_is_error():
    with pytest.raises(SelSyntaxError):
        parse1("mode rewards;\ntt +[1/2] ff")


def test_mode_flag_conflict_is_error():
    with pytest.raises((SelSyntaxError, SelTypeError)):
        parse1("mode rewards;\ntt or ff", mode="prob")


def test_base_declaration():
    p = parse1("base Coin = { heads, tails };\nheads or tails")
    assert "Coin" in p.config.bases
    assert p.config.bases["Coin"] == ("heads", "tails")
    assert typecheck(p.term, config=p.config) == Base("Coin")


def test_structure_prelude():
    p = parse1("structure MulPositiveRationals;\n(2 . tt) or (3 . ff)")
    assert p.config.structure is STRUCTURES["MulPositiveRationals"]


def test_reward_outside_structure_rejected():
    p = parse1("structure MulPositiveRationals;\n(0 . tt) or tt")
    with pytest.raises(SelTypeError):
        typecheck(p.term, config=p.config)


def test_let_sugar():
    p = parse1("let x : Bool = tt in x or ff")
    assert p.term == App(Lam("x", BOOL, Or(Var("x"), FF)), TT)


def test_typecheck_examples():
    p = parse1("(5 . tt) or (6 . ff)")
    assert typecheck(p.term, config=p.config) == BOOL
    q = parse1("<tt, 3>")
    assert typecheck(q.term, config=q.config) == Prod(BOOL, REW)


def test_typecheck_rejects_or_mismatch():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(Or(TT, RewConst(F(1))), config=cfg)


def test_typecheck_rejects_unbound():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(Var("nope"), config=cfg)


def test_pchoice_rejected_in_rewards_mode():
    cfg = LangConfig(mode="rewards")
    with pytest.raises(SelTypeError):
        typecheck(PChoice(F(1, 2), TT, FF), config=cfg)


def test_type_rank():
    assert type_rank(BOOL) == 0
    assert type_rank(Prod(BOOL, BOOL)) == 0
    assert type_rank(Arrow(BOOL, BOOL)) == 1
    assert type_rank(Arrow(Arrow(BOOL, BOOL), BOOL)) == 2
    assert type_rank(UNIT) == 0


def test_plug_fills_hole():
    ctx = If(Hole(), TT, FF)
    assert plug(ctx, FF) == If(FF, TT, FF)


def test_plug_does_not_capture():
    # contexts bind variables over the hole on purpose
    ctx = App(Lam("x", BOOL, Hole()), TT)
    assert plug(ctx, Var("x")) == App(Lam("x", BOOL, Var("x")), TT)


def test_alpha_eq():
    a = Lam("x", BOOL, Var("x"))
    b = Lam("y", BOOL, Var("y"))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Lam("y", BOOL, TT))
    assert not alpha_eq(a, Lam("y", BOOL, Var("x")))


def test_pretty_parse_roundtrip_fixed():
    for src in [
        "(5 . tt) or (6 . ff)",
        "if tt == ff then 1 . tt else ff",
        "fst <tt, ff> or snd <ff, tt>",
        "(fun (x:Bool) -> 0 . x) tt",
    ]:
        p = parse1(src)
        again = parse_program(pretty(p.term), mode=p.config.mode)
        assert again.term == p.term


@pytest.mark.parametrize("mode", ["rewards", "prob"])
@pytest.mark.parametrize("seed", range(40))
def test_pretty_parse_roundtrip_generated(mode, seed):
    cfg = GenConfig(seed=seed, max_term_size=30, mode=mode)
    config = cfg.lang()
    t = gen_program(cfg, BOOL, config=config)
    p = parse_program(pretty(t), mode=mode)
    assert p.term == t


def test_parse_error_reports():
    with pytest.raises(SelSyntaxError):
        parse1("(5 . tt) or")
    with pytest.raises(SelSyntaxError):
        parse1("base Coin = heads, tails;\nheads")


def test_choice_weight_out_of_range_rejected():
    p = parse1("tt +[3/2] ff")
    with pytest.raises(SelTypeError):
        typecheck(p.term, config=p.config)


def test_dispatcher_prints_parseable_source():
    disp = make_dispatcher([TT, FF], lambda c: Rew(RewConst(F(1)), c))
    src = pretty(App(disp, TT))
    assert "%" not in src
    back = parse1(src).term
    assert alpha_eq(back, App(disp, TT))


def test_dispatcher_rejects_open_branches():
    with pytest.raises(ValueError, match="closed"):
        make_dispatcher([TT, FF], lambda c: If(Var("x"), c, FF))


def test_substitute_refuses_capture_of_an_open_value():
    # fun (y:Bool) -> z (x y), with x := y: the binder would capture y
    t = Lam("y", BOOL, App(Var("z"), App(Var("x"), Var("y"))))
    with pytest.raises(ValueError, match="binder y would capture"):
        substitute(t, "x", Var("y"))
    # a value free of y goes in
    assert substitute(t, "x", Var("w")) == Lam(
        "y", BOOL, App(Var("z"), App(Var("w"), Var("y"))))


### the lexer against the character loop it replaced

_PUNCT_REF = ["+[", "->", "==", "<=", "(", ")", "<", ">", ",", ":", ".",
              "+", "=", "[", "]", ";", "{", "}", "*"]


def reference_lex(src, digit=str.isdigit):
    """The character-loop lexer, as it read every input before the lexer
    became one regular expression.  Its numbers are made of the
    characters ``digit`` accepts: by default those of ``str.isdigit``,
    '²' among them, which no int() reads."""
    toks = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if digit(ch) or (ch == "-" and i + 1 < n and digit(src[i + 1])):
            j = i + 1
            while j < n and digit(src[j]):
                j += 1
            if j < n and src[j] == "/" and j + 1 < n and digit(src[j + 1]):
                j += 1
                while j < n and digit(src[j]):
                    j += 1
            toks.append(("rat", src[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            toks.append(("kw" if word in _KEYWORDS else "ident", word))
            i = j
            continue
        if src.startswith("[-]", i):
            toks.append(("hole", "[-]"))
            i += 3
            continue
        for p in _PUNCT_REF:
            if src.startswith(p, i):
                toks.append(("punct", p))
                i += len(p)
                break
        else:
            raise SelSyntaxError(f"unexpected character {ch!r} at offset {i}")
    toks.append(("eof", ""))
    return toks


def lexed(lex, src):
    """The tokens of src, or the message of the SelSyntaxError it raises."""
    try:
        return lex(src)
    except SelSyntaxError as e:
        return str(e)


def same_tokens(src):
    """The lexer gives the reference's tokens, or its error message and
    offset.  The one difference allowed is on a numeral that is no
    decimal digit, such as '²': the lexer refuses it as the reference
    does when its numbers take decimal digits only."""
    got = lexed(_lex, src)
    if got != lexed(reference_lex, src):
        assert any(c.isdigit() and not c.isdecimal() for c in src), src
        assert got == lexed(lambda s: reference_lex(s, str.isdecimal), src)
        assert got.startswith("unexpected character"), src


LEXER_CASES = [
    "", "   \n\t ", "# only a comment", "tt # comment\n or ff # again",
    "#no newline at the end", "(fun (x:Bool) -> x) [-]", "[-] or [-]",
    "[ - ]", "[-", "-3/4 . tt", "tt +[-1/2] ff", "x -1", "x-1", "1-2", "-",
    "->", "--1", "-/1", "1/", "1/-2", "3/0 . tt", "007 . tt", "a'b' _x x_1",
    "oplus[1/3](1, 2)", "<tt, ff> == <ff, tt>", "1 <= 2 == tt", "+[+[",
    "fst <tt, ff>", "é . tt", " tt ", "tt\x1cor\x1fff", "tt @ ff",
    "٣ . tt", "x²", "x٣", "² . tt", "① . tt", "tt or 1² . ff", "½", "-²",
    "1/²", "²abc", "-٣/٤ . tt", "Ⅻ", "x́", "́x",
]


@pytest.mark.parametrize("src", LEXER_CASES)
def test_lexer_matches_the_character_loop(src):
    same_tokens(src)


def test_lexer_matches_the_character_loop_on_golden_programs():
    import test_errors_golden
    import test_prob_golden
    srcs = [src for src, _ in test_errors_golden.SYNTAX_ERRORS]
    srcs += [test_prob_golden._program(ty, seed)
             for ty in test_prob_golden.TARGETS
             for seed in test_prob_golden.SEEDS]
    for src in srcs:
        same_tokens(src)


@pytest.mark.parametrize("mode", ["rewards", "prob"])
def test_lexer_matches_the_character_loop_on_generated_programs(mode):
    for seed in range(2000):
        cfg = GenConfig(seed=seed, mode=mode, max_term_size=20)
        config = cfg.lang()
        t = gen_program(cfg, BOOL, cfg.rng(), config)
        same_tokens(pretty_program(Program(config, t)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(list("tf ()<>,:.+-=[]*;{}#/\n'_x0123") + [
    "or ", "fun", "\u00b2", "\u2460", "\u00bd", "\u0663", "\u00e9", "\u00a0",
    "\x1c", "\u216b", "@"]), max_size=24))
def test_lexer_matches_the_character_loop_on_random_text(pieces):
    same_tokens("".join(pieces))


### the parser on random token streams

# the grammar's own tokens: every punctuation mark and keyword, names of
# constants, variables and types, numerals, the hole, and prelude pieces
PARSER_PIECES = syntax._PUNCT + sorted(_KEYWORDS) + [
    "tt", "ff", "x", "y", "f", "a", "b", "C", "Bool", "Rew", "Unit", "0",
    "1", "-2", "1/2", "2/4", "3/0", "[-]", "fun (x:Bool) ->",
    "let x : Bool =", "+[1/3]", "oplus[1/2](", "mode prob;",
    "mode rewards;", "base C = {a, b};", "structure NonNegAdd;",
]


def test_parser_on_random_token_streams():
    """parse_program raises nothing but SelSyntaxError on a random stream
    of up to 12 pieces, and every program it returns prints with pretty
    and parses back equal, in its mode."""
    rng = random.Random(0)
    parsed = 0
    for _ in range(30000):
        src = " ".join(rng.choices(PARSER_PIECES, k=rng.randint(1, 12)))
        try:
            p = parse_program(src)
        except SelSyntaxError:
            continue
        parsed += 1
        q = parse_program(pretty_program(p))
        assert (q.term, q.config.mode) == (p.term, p.config.mode), src
    assert parsed > 500


### the work substitution does

def closed_chain(m):
    """A closed term of 2m + 1 nodes: tt or (tt or ... (tt or ff))."""
    t = FF
    for _ in range(m):
        t = Or(TT, t)
    return t


def ladder(k, m, leaf=Var("x")):
    """leaf under k levels fun (yi:Bool) -> <closed, ...>, each level
    holding its own closed (2m + 1)-node chain beside the path to leaf."""
    t = leaf
    for i in range(k):
        t = Lam(f"y{i}", BOOL, Pair(closed_chain(m), t))
    return t


def counted(monkeypatch):
    """Count the nodes whose children any walk of syntax asks for."""
    seen = [0]
    for cls, kids in list(syntax._KIDS.items()):
        def counting(t, kids=kids):
            seen[0] += 1
            return kids(t)
        monkeypatch.setitem(syntax._KIDS, cls, counting)
    return seen


def test_substitution_visits_only_the_path_to_the_variable(monkeypatch):
    seen = counted(monkeypatch)
    work = {}
    for k, m in [(10, 5), (10, 50), (20, 5), (20, 50)]:
        body = ladder(k, m)
        free_vars(body)  # the first walk gives every node its set
        seen[0] = 0
        out = substitute(body, "x", TT)
        work[k, m] = seen[0]
        assert out == ladder(k, m, TT)
    # two nodes per level, whatever the size of the closed subterms
    assert work[10, 5] == work[10, 50] == 2 * 10
    assert work[20, 5] == work[20, 50] == 2 * 20


def test_second_substitution_builds_no_free_variable_set(monkeypatch):
    body = ladder(10, 50)
    first = substitute(body, "x", TT)
    sets = {id(s): s._fv for s in nodes(body)}
    seen = counted(monkeypatch)
    second = substitute(body, "x", FF)
    assert seen[0] == 2 * 10
    assert all(s._fv is sets[id(s)] for s in nodes(body))
    # the rebuilt path gets its sets only when something asks for them
    assert getattr(second, "_fv", None) is None
    assert first.body.fst is second.body.fst is body.body.fst
