"""The benchmark's three workloads.

A workload is an endless stream of items: ``item(k)`` makes item ``k`` from
the seed alone, so the same seed gives the same items, and no item of a run
is ever run twice (a cache that lives across items would make a repeated
item nearly free, which no user request is).  ``run`` runs one item through
the public selcalc API, and ``check`` checks its output against a reference
the benchmark computes by an independent route.  Every library call goes
through ``tr.call(span_name, fn, ...)`` so that the traced run can attribute
time to layers; the untraced run passes a tracer that calls straight
through.

Item units: corpus -- one generated program; deep -- one round of large
instances, one of each fixed family; suites -- one ``run_suite(...,
jobs=1)`` slice.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields
from fractions import Fraction

from selcalc import (
    BOOL, GenConfig, Or, PChoice, Rew, Term, agree_at, canon_equal,
    canon_rewards, canonical_term, decide_pure_prob, decide_pure_rewards,
    denote, embed_outcome, eval_effect, gen_program, make_monad,
    observe, parse_program, pretty, run_suite, select_bruteforce,
    select_fast, typecheck, weak_canon_prob, weak_canonical_term, zero_gamma,
)


# The benchmark counts nodes and strategies itself, over the exported term
# classes, so that its counts do not depend on library internals.

def _nodes(t: Term) -> int:
    n, stack = 0, [t]
    while stack:
        x = stack.pop()
        n += 1
        for f in fields(x):
            v = getattr(x, f.name)
            if isinstance(v, Term):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(a for a in v if isinstance(a, Term))
    return n


def _strategies(e: Term) -> int:
    """Strategies of an effect value; in prob mode this is also the number
    of or-branches ``weak_canon_prob`` enumerates before deduplication."""
    if isinstance(e, Or):
        return _strategies(e.left) + _strategies(e.right)
    if isinstance(e, Rew):
        return _strategies(e.body)
    if isinstance(e, PChoice):
        return _strategies(e.left) * _strategies(e.right)
    return 1


class Workload:
    """An endless, seeded stream of items and how to run and check one."""

    name: str
    warmup: int        # items run untimed before the timed phase
    trace_slice: int   # items per round of the traced run
    # item_tail_ms and peak_rss_mb are taken over the first this many timed
    # items, so that they do not move with the number of items a faster
    # host or commit gets through: the tail percentile rises with the
    # sample count, and atom_key's LRU cache fills as items run.  Runs reach
    # it while the host factor (reference.py) stays below about 2 on corpus
    # and deep and 1.6 on suites.
    first_items: int

    def __init__(self, seed: int, tr):
        self.seed = seed
        self.tr = tr


# --------------------------------------------------------------------------
# corpus: many small generated programs through the whole user pipeline

CORPUS_SIZE = 40          # gen_program node budget
# Draws whose effect value has more strategies than this are excluded (and
# counted).  One such draw can take a minute in weak_canon_prob, and the
# draws with 17-64 strategies make up most of the slowest percent, so
# keeping them made item_tail_ms depend on the seed more than on the code.
# The limit is far below select_bruteforce's cap, so every kept draw is
# brute-forced in the check.
STRATEGY_LIMIT = 16
# The programs come in blocks of this many, the same on every seed; the
# seed orders each block.  item_tail_ms, the eleventh-largest latency of
# the first block, rests on its few slowest programs: with every seed
# drawing its own programs, it spread 0.2 across seeds from the inputs
# alone, while the same programs gave the same tail to within a few
# percent.
CORPUS_BLOCK = 1500


@dataclass
class CorpusItem:
    index: int
    mode: str
    monad: str
    src: str
    planted: bool = False


@dataclass
class CorpusOut:
    selected: object
    denoted: object
    canon: list
    pure: object


class Corpus(Workload):
    name = "corpus"
    warmup = 20
    trace_slice = 100
    first_items = CORPUS_BLOCK

    def __init__(self, seed: int, tiny: bool, tr):
        super().__init__(seed, tr)
        self.size = 20 if tiny else CORPUS_SIZE
        self.cfgs = {mode: GenConfig(max_term_size=self.size, mode=mode)
                     for mode in ("rewards", "prob")}
        self.langs = {mode: cfg.lang() for mode, cfg in self.cfgs.items()}
        self.drawn = self.excluded = 0
        self.orders: dict[int, list[int]] = {}

    def program(self, k: int) -> int:
        """The program item k runs: the seed's order of the block holding
        k.  The timed items start a block, so the first CORPUS_BLOCK timed
        items run the same programs on every seed; the warm-up items come
        from the block before."""
        block, pos = divmod(k - self.warmup, CORPUS_BLOCK)
        if block not in self.orders:
            order = list(range(block * CORPUS_BLOCK, (block + 1) * CORPUS_BLOCK))
            random.Random(f"corpus-order:{self.seed}:{block}").shuffle(order)
            self.orders[block] = order
        return self.orders[block][pos]

    def item(self, k: int) -> CorpusItem:
        """Program q alternates the modes; it is the first draw of its own
        random stream that is not excluded."""
        q = self.program(k)
        mode = ("rewards", "prob")[q % 2]
        cfg, config = self.cfgs[mode], self.langs[mode]
        for j in itertools.count():
            rng = random.Random(f"corpus:{q}:{j}")
            m = self.tr.call("testgen.gen_program", gen_program, cfg, BOOL, rng, config)
            self.drawn += 1
            if _strategies(eval_effect(m, config)) <= STRATEGY_LIMIT:
                break
            self.excluded += 1
        if mode == "rewards":
            return CorpusItem(k, mode, "W", pretty(m))
        return CorpusItem(k, mode, "DW", "mode prob;\n" + pretty(m))

    @property
    def notes(self) -> dict:
        return {"size": self.size, "drawn": self.drawn, "excluded": self.excluded,
                "exclusion": f"effect value with more than {STRATEGY_LIMIT} strategies"}

    def run(self, it: CorpusItem, tr) -> CorpusOut:
        p = tr.call("syntax.parse_program", parse_program, it.src)
        config = p.config
        tr.call("syntax.typecheck", typecheck, p.term, config=config)
        e = tr.call("operational.eval_effect", eval_effect, p.term, config)
        selected = tr.call("strategies.select_fast", select_fast, e, config)
        mon = make_monad(it.monad, config.structure)
        denoted = tr.call("selection.denote", _denote_at_zero, p.term, config, mon)
        if it.mode == "rewards":
            canon = tr.call("equations.canon", canon_rewards, p.term, config)
            pure = tr.call("equations.purity", decide_pure_rewards, p.term, config)
        else:
            canon = tr.call("equations.canon", weak_canon_prob, p.term, config, it.monad)
            pure = tr.call("equations.purity", decide_pure_prob, p.term, config, it.monad)
            tr.count("equations.pr_branches", lambda: _strategies(e))
            tr.count("equations.canon_branches", lambda: len(canon))
        tr.count("syntax.nodes", lambda: _nodes(p.term))
        tr.count("operational.effect_nodes", lambda: _nodes(e))
        tr.count("strategies.strategy_count", lambda: _strategies(e))
        return CorpusOut(selected, denoted, canon, pure)

    def check(self, it: CorpusItem, out: CorpusOut, tr) -> list[str]:
        p = parse_program(it.src)
        mon = make_monad(it.monad, p.config.structure)
        brute = tr.call("strategies.select_bruteforce", select_bruteforce,
                        p.term, p.config)
        seen = tr.call("selection.observe", observe, p.term, p.config)
        if it.planted:
            brute = None
        errs = []
        if out.selected != brute:
            errs.append("select_fast differs from select_bruteforce")
        if out.denoted != embed_outcome(seen, p.config, mon):
            errs.append(f"{it.monad} denotation at the zero valuation differs "
                        "from the operational outcome")
        return errs + self._check_reparse(it, p, out, tr)

    def _check_reparse(self, it: CorpusItem, p, out: CorpusOut, tr) -> list[str]:
        """The printed canonical term parses back to an equal canonical form
        and denotes what the program denotes at the zero valuation."""
        if it.mode == "rewards":
            c = canonical_term(out.canon)
            q = parse_program(pretty(c), mode="rewards")
            again = canon_rewards(q.term, q.config)
            same = canon_equal(again, out.canon)
        else:
            c = weak_canonical_term(out.canon, it.monad)
            q = parse_program("mode prob;\n" + pretty(c))
            again = weak_canon_prob(q.term, q.config, it.monad)
            same = again == out.canon
        errs = [] if same else ["printed canonical term does not parse back to "
                                "an equal canonical form"]
        mon = make_monad(it.monad, p.config.structure)
        if not tr.call("selection.agree_at", agree_at, p.term, q.term, p.config,
                       mon, [zero_gamma(p.config)]):
            errs.append("canonical term denotes differently from the program")
        return errs

    def plant(self, it: CorpusItem) -> None:
        it.planted = True


def _denote_at_zero(term, config, mon):
    return denote(term, config, mon)(zero_gamma(config))


# --------------------------------------------------------------------------
# deep: large instances of fixed families, where the blow-ups live

# Sizes sit well below the recursion ceiling of the current code (200
# nested applications raise RecursionError) and make each instance take
# 0.05-0.2 s on a 2-CPU x86-64 machine.  An item is a round of one instance
# of each family: with one instance per item, the median latency fell
# between two families' costs and jumped from run to run.
DEEP_SIZES = {"sum": 150, "app": 60, "let-select": 9, "let-denote-W": 7,
              "plet-select": 5, "plet-denote-DW": 4}
TINY_DEEP_SIZES = {"sum": 8, "app": 5, "let-select": 3, "let-denote-W": 3,
                   "plet-select": 2, "plet-denote-DW": 2}
# Whole rewards and dyadic weights keep the cost of an instance nearly
# independent of the seed; fractions with other denominators made one
# family's instances differ by half in time.
DEEP_REWARDS = (Fraction(1), Fraction(2), Fraction(3))
DEEP_WEIGHTS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))


@dataclass
class DeepInstance:
    family: str
    n: int
    src: str
    expected: dict        # (reward, value name) -> probability


@dataclass
class DeepItem:
    index: int
    instances: list[DeepInstance]


def _sum_chain(n, rng):
    rs = [rng.choice(DEEP_REWARDS) for _ in range(n)]
    src = "(" + " + ".join(map(str, rs)) + ") . tt"
    return src, {(sum(rs), "tt"): Fraction(1)}


def _app_chain(n, rng):
    a, b = rng.choice(DEEP_REWARDS), rng.choice(DEEP_REWARDS)
    src = (f"let f : Bool -> Bool = fun (x:Bool) -> if x then {a} . ff "
           f"else {b} . tt in " + "f (" * n + "tt" + ")" * n)
    reward = a * ((n + 1) // 2) + b * (n // 2)
    return src, {(reward, "ff" if n % 2 else "tt"): Fraction(1)}


def _let_chain(n, rng):
    pairs = [(rng.choice(DEEP_REWARDS), rng.choice(DEEP_REWARDS)) for _ in range(n)]
    src = "".join(f"let x{i} : Bool = ({a} . tt) or ({b} . ff) in "
                  for i, (a, b) in enumerate(pairs)) + "x0"
    a0, b0 = pairs[0]
    reward = sum(max(a, b) for a, b in pairs)
    return src, {(reward, "tt" if a0 >= b0 else "ff"): Fraction(1)}


def _plet_chain(n, rng):
    levels = [(rng.choice(DEEP_WEIGHTS), rng.choice(DEEP_REWARDS),
               rng.choice(DEEP_REWARDS), rng.choice(DEEP_REWARDS))
              for _ in range(n)]
    src = "mode prob; " + "".join(
        f"let x{i} : Bool = ({a} . tt) +[{p}] (({b} . ff) or ({c} . tt)) in "
        for i, (p, a, b, c) in enumerate(levels)) + "x0"
    # levels are independent at the zero valuation: each `or` takes the
    # larger reward (left on ties), and only x0's value is returned
    dist = {(Fraction(0), None): Fraction(1)}
    for i, (p, a, b, c) in enumerate(levels):
        right_value = "ff" if b >= c else "tt"
        nxt: dict = {}
        for (r, v), q in dist.items():
            for w, dr, dv in ((p, a, "tt"), (1 - p, max(b, c), right_value)):
                k = (r + dr, dv if i == 0 else v)
                nxt[k] = nxt.get(k, 0) + q * w
        dist = nxt
    return src, dist


_FAMILIES = {"sum": _sum_chain, "app": _app_chain, "let-select": _let_chain,
             "let-denote-W": _let_chain, "plet-select": _plet_chain,
             "plet-denote-DW": _plet_chain}


def _as_dist(out) -> dict:
    """(reward, value) or a Dist of them, as (reward, value name) -> prob."""
    if isinstance(out, tuple):
        r, v = out
        return {(r, v.name): Fraction(1)}
    acc: dict = {}
    for (r, v), p in out.items():
        acc[(r, v.name)] = acc.get((r, v.name), 0) + p
    return acc


class Deep(Workload):
    name = "deep"
    warmup = 1
    trace_slice = 1
    first_items = 30

    def __init__(self, seed: int, tiny: bool, tr):
        super().__init__(seed, tr)
        self.sizes = TINY_DEEP_SIZES if tiny else DEEP_SIZES
        self.notes = {"sizes": self.sizes}

    def item(self, k: int) -> DeepItem:
        """Item k is one instance of each family, with constants drawn for
        k and the family."""
        instances = []
        for family, n in self.sizes.items():
            rng = random.Random(f"deep:{self.seed}:{k}:{family}")
            instances.append(DeepInstance(family, n, *_FAMILIES[family](n, rng)))
        return DeepItem(k, instances)

    def run(self, it: DeepItem, tr) -> list:
        return [self._run_one(inst, tr) for inst in it.instances]

    def _run_one(self, inst: DeepInstance, tr):
        p = tr.call("syntax.parse_program", parse_program, inst.src)
        config = p.config
        tr.call("syntax.typecheck", typecheck, p.term, config=config)
        tr.count("syntax.nodes", lambda: _nodes(p.term))
        if "-denote-" in inst.family:
            mon = make_monad(inst.family.rsplit("-", 1)[1], config.structure)
            return tr.call("selection.denote", _denote_at_zero, p.term, config, mon)
        # select_program, called as its two public halves
        e = tr.call("operational.eval_effect", eval_effect, p.term, config)
        out = tr.call("strategies.select_fast", select_fast, e, config)
        tr.count("operational.effect_nodes", lambda: _nodes(e))
        tr.count("strategies.strategy_count", lambda: _strategies(e))
        return out

    def check(self, it: DeepItem, outs: list, tr) -> list[str]:
        errs = []
        for inst, out in zip(it.instances, outs):
            got = _as_dist(out)
            if got != inst.expected:
                errs.append(f"{inst.family} n={inst.n}: got {got}, "
                            f"closed form {inst.expected}")
        return errs

    def plant(self, it: DeepItem) -> None:
        inst = it.instances[0]
        inst.expected = {(r + 1, v): p for (r, v), p in inst.expected.items()}


# --------------------------------------------------------------------------
# suites: fixed slices of the property suites, single process

# The slices are fixed, as the Tier-1 suites are: item k runs slice k mod 8
# with suite seed k div 8, whatever the workload seed, which only shuffles
# the order of the slices.  Drawing suite seeds from the workload seed made
# the runs unsteady, because single cases (adequacy under T2 above all)
# vary fivefold in cost from one suite seed to the next.

# (suite, cases per call, checks per case).  The cases make every slice
# take about as long as one case of axioms-fig4, the smallest call of that
# suite (1.2-1.5 s on a 2-CPU x86-64 machine).  With slices of unequal
# cost, item_tail_ms fell between the slowest slice and the next one, and
# jumped between them from run to run with the number of items timed.
SUITE_SLICES = (
    ("monad-laws", 280, 5), ("theta-morphism", 270, 1),
    ("adequacy-prob-T2", 90, 1), ("adequacy-prob-T3", 250, 1),
    ("canon-sound", 36, 1), ("purity-prob", 200, 1),
    ("axioms-fig3", 10, 10), ("axioms-fig4", 1, 18),
)
TINY_SUITE_SLICES = tuple((s, 1, per_case) for s, _, per_case in SUITE_SLICES)


@dataclass
class SuiteItem:
    index: int
    suite: str
    cases: int
    total: int
    seed: int


class Suites(Workload):
    name = "suites"
    warmup = 2
    trace_slice = len(SUITE_SLICES)
    first_items = 24

    def __init__(self, seed: int, tiny: bool, tr):
        super().__init__(seed, tr)
        self.slices = list(TINY_SUITE_SLICES if tiny else SUITE_SLICES)
        random.Random(f"suites:{seed}").shuffle(self.slices)
        self.notes = {"slices": {s: c for s, c, _ in self.slices}}

    def item(self, k: int) -> SuiteItem:
        suite, cases, per_case = self.slices[k % len(self.slices)]
        return SuiteItem(k, suite, cases, cases * per_case, k // len(self.slices))

    def run(self, it: SuiteItem, tr):
        return tr.call(f"cli.run_suite.{it.suite}", run_suite, it.suite,
                       seed=it.seed, cases=it.cases, jobs=1)

    def check(self, it: SuiteItem, res, tr) -> list[str]:
        if res.ok and res.passed == res.total == it.total:
            return []
        return [f"{it.suite} seed {it.seed}: {res.passed}/{res.total} passed, "
                f"expected {it.total}/{it.total}; {res.failures}"]

    def plant(self, it: SuiteItem) -> None:
        it.total += 1


WORKLOADS = {"corpus": Corpus, "deep": Deep, "suites": Suites}
