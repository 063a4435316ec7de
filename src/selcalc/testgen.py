"""Seeded random generators: programs, effect values, valuations, monad
values, and axiom instances; the valuation tables are sampled in
``equations`` and re-exported here.

Everything is deterministic under the configured seed, so any failing case
replays.  Program generation is size-bounded and weighted so that choice,
reward, and probabilistic-choice nodes dominate base-typed output; lambdas
and applications stay within the configured type rank.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .equations import (
    AXIOMS, GAMMA_POOL, _gamma_pool, apply_axiom, default_tables, gamma_tables,
)
from .monads import Dist, default_monad, make_monad, mrval, t2val
from .rewards import DEFAULT_STRUCTURE, Rational, RewardStructure
from .selection import gamma_from_table
from .strategies import select_fast
from .syntax import (
    App, Arrow, BOOL, Base, FnApp, Fst, If, LangConfig, Lam, Or, Pair,
    PChoice, Prod, REW, Rew, RewConst, Snd, Star, Term, Type, UNIT, Var,
    fold_effect, nodes, replace_at, subterm_at, type_rank,
)

PROB_POOL = (Rational(1, 2), Rational(1, 3), Rational(2, 3), Rational(1, 4),
             Rational(3, 4), Rational(2, 5), Rational(3, 5), Rational(1, 5))


@dataclass
class GenConfig:
    """Knobs for random generation; the seed fixes everything."""
    seed: int = 0
    max_term_size: int = 40
    max_order: int = 2
    mode: str = "rewards"
    structure: RewardStructure = field(default_factory=lambda: DEFAULT_STRUCTURE)

    def __post_init__(self):
        if self.max_term_size < 1:
            raise ValueError("max_term_size must be at least 1")

    def lang(self) -> LangConfig:
        return LangConfig(mode=self.mode, structure=self.structure)

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    @property
    def rewards(self) -> tuple[Rational, ...]:
        return _gamma_pool(self.structure)


### valuations

def default_gammas(m: Term, n: Term, config: LangConfig,
                   count: int = 64, seed: int = 0):
    """The reward continuations of ``default_tables``."""
    return [gamma_from_table(t, config)
            for t in default_tables(m, n, config, count, seed)]


### program generation

class _TermGen:
    def __init__(self, cfg: GenConfig, config: LangConfig, rng: random.Random):
        self.cfg = cfg
        self.config = config
        self.rng = rng
        self._n = 0

    def fresh(self) -> str:
        while True:
            self._n += 1
            name = f"v{self._n}"
            if not self.config.has_constant(name):
                return name

    def rc(self) -> RewConst:
        return RewConst(self.rng.choice(self.cfg.rewards))

    def split(self, total: int, k: int) -> list[int]:
        total = max(total, k)
        parts = []
        rem = total
        for i in range(k - 1):
            hi = rem - (k - 1 - i)
            parts.append(self.rng.randint(1, hi))
            rem -= parts[-1]
        parts.append(rem)
        return parts

    def gen(self, ty: Type, size: int, env: dict[str, Type]) -> Term:
        rng = self.rng
        here = [x for x, t in env.items() if t == ty]
        if here and (size <= 1 or rng.random() < 0.25):
            return Var(rng.choice(here))
        if size <= 2:
            return self.leaf(ty, env)
        return self.node(ty, size, env)

    def leaf(self, ty: Type, env: dict[str, Type]) -> Term:
        rng = self.rng
        if ty == REW:
            return self.rc()
        match ty:
            case Base(b):
                return rng.choice(self.config.constants_of(b))
            case Prod(a, b):
                return Pair(self.leaf(a, env), self.leaf(b, env))
            case Arrow(a, r):
                x = self.fresh()
                return Lam(x, a, self.leaf(r, {**env, x: a}))
            case _:
                return Star()

    def node(self, ty: Type, size: int, env: dict[str, Type]) -> Term:
        prob = self.cfg.mode == "prob"
        lets = 1 if self.cfg.max_order >= 1 else 0

        if isinstance(ty, Arrow):
            cands = [(80, self.mk_lam), (10, self.mk_if), (10 * lets, self.mk_let)]
        elif isinstance(ty, Prod):
            cands = [(40, self.mk_pair), (12, self.mk_if), (12, self.mk_or),
                     (8, self.mk_rew), (10 if prob else 0, self.mk_pc),
                     (8 * lets, self.mk_let)]
        elif ty == REW:
            cands = [(25, self.mk_leaf), (25, self.mk_plus),
                     (15 if prob else 0, self.mk_oplus), (10, self.mk_if),
                     (8, self.mk_or), (8, self.mk_rew),
                     (8 if prob else 0, self.mk_pc), (5 * lets, self.mk_let)]
        elif isinstance(ty, Base):
            cands = [(30 if not prob else 20, self.mk_or), (16, self.mk_rew),
                     (22 if prob else 0, self.mk_pc), (10, self.mk_if),
                     (7 * lets, self.mk_let), (4, self.mk_proj),
                     (6 if ty == BOOL else 0, self.mk_cmp), (5, self.mk_leaf)]
        else:  # Unit
            cands = [(20, self.mk_leaf), (22, self.mk_or), (14, self.mk_rew),
                     (14 if prob else 0, self.mk_pc), (15, self.mk_if),
                     (10 * lets, self.mk_let)]

        makers = [m for w, m in cands if w > 0]
        weights = [w for w, _ in cands if w > 0]
        mk = self.rng.choices(makers, weights)[0]
        return mk(ty, size, env)

    def mk_leaf(self, ty, size, env):
        return self.leaf(ty, env)

    def mk_or(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        return Or(self.gen(ty, a, env), self.gen(ty, b, env))

    def mk_rew(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        return Rew(self.gen(REW, a, env), self.gen(ty, b, env))

    def mk_pc(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        p = self.rng.choice(PROB_POOL)
        return PChoice(p, self.gen(ty, a, env), self.gen(ty, b, env))

    def mk_if(self, ty, size, env):
        c, a, b = self.split(size - 1, 3)
        return If(self.gen(BOOL, c, env), self.gen(ty, a, env),
                  self.gen(ty, b, env))

    def mk_let(self, ty, size, env):
        sigmas = [BOOL, REW, Prod(BOOL, BOOL), UNIT]
        if self.cfg.max_order >= 2:
            sigmas.append(Arrow(BOOL, ty))
        sigma = self.rng.choice(sigmas)
        a, b = self.split(size - 1, 2)
        x = self.fresh()
        body = self.gen(ty, b, {**env, x: sigma})
        return App(Lam(x, sigma, body), self.gen(sigma, a, env))

    def mk_proj(self, ty, size, env):
        other = self.rng.choice([BOOL, REW])
        if self.rng.random() < 0.5:
            return Fst(self.gen(Prod(ty, other), size - 1, env))
        return Snd(self.gen(Prod(other, ty), size - 1, env))

    def mk_cmp(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        if self.rng.random() < 0.5:
            base = Base(self.rng.choice(sorted(self.config.bases)))
            return FnApp("==", (self.gen(base, a, env), self.gen(base, b, env)))
        return FnApp("<=", (self.gen(REW, a, env), self.gen(REW, b, env)))

    def mk_pair(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        return Pair(self.gen(ty.fst, a, env), self.gen(ty.snd, b, env))

    def mk_lam(self, ty, size, env):
        x = self.fresh()
        return Lam(x, ty.arg, self.gen(ty.res, size - 1, {**env, x: ty.arg}))

    def mk_plus(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        return FnApp("+", (self.gen(REW, a, env), self.gen(REW, b, env)))

    def mk_oplus(self, ty, size, env):
        a, b = self.split(size - 1, 2)
        return FnApp("oplus", (self.gen(REW, a, env), self.gen(REW, b, env)),
                     self.rng.choice(PROB_POOL))


def gen_program(cfg: GenConfig, target_type: Type = BOOL,
                rng: random.Random | None = None,
                config: LangConfig | None = None) -> Term:
    """A closed well-typed program of the target type.  Pass a shared rng to
    draw a stream of programs under one seed."""
    if type_rank(target_type) > cfg.max_order:
        raise ValueError(f"target type rank exceeds max_order {cfg.max_order}")
    config = config or cfg.lang()
    rng = rng or cfg.rng()
    return _TermGen(cfg, config, rng).gen(target_type, cfg.max_term_size, {})


def node_tally(t: Term) -> Counter:
    """Constructor counts of a term, keyed by node kind."""
    return Counter(f"FnApp:{s.sym}" if isinstance(s, FnApp) else type(s).__name__
                   for s in nodes(t))


def constructor_coverage(cfg: GenConfig, target_type: Type = BOOL,
                         count: int = 200) -> Counter:
    """Aggregate constructor counts over a batch, plus how many programs
    contain at least one effect operation."""
    rng = cfg.rng()
    config = cfg.lang()
    total: Counter = Counter()
    for _ in range(count):
        tally = node_tally(gen_program(cfg, target_type, rng, config))
        total += tally
        total["programs"] += 1
        if tally["Or"] or tally["Rew"] or tally["PChoice"]:
            total["programs_with_op"] += 1
    return total


### effect values and tie injection

def gen_effect_value(cfg: GenConfig, rng: random.Random | None = None,
                     max_ops: int = 12, base: str = "Bool",
                     config: LangConfig | None = None) -> Term:
    """A random effect value over the base type's constants with at most
    max_ops choice/probabilistic-choice nodes."""
    config = config or cfg.lang()
    rng = rng or cfg.rng()
    consts = config.constants_of(base)
    pool = cfg.rewards

    def wrap(t):
        for _ in range(2):
            if rng.random() < 0.3:
                t = Rew(RewConst(rng.choice(pool)), t)
        return t

    def go(ops):
        if ops <= 0:
            return wrap(rng.choice(consts))
        left = rng.randint(0, ops - 1)
        right = ops - 1 - left
        if cfg.mode == "prob" and rng.random() < 0.5:
            return wrap(PChoice(rng.choice(PROB_POOL), go(left), go(right)))
        return wrap(Or(go(left), go(right)))

    return go(rng.randint(0, max_ops))


def gen_tie_effect(cfg: GenConfig, rng: random.Random | None = None,
                   max_ops: int = 5, base: str = "Bool",
                   config: LangConfig | None = None) -> Term:
    """An effect value whose top-level choice is an exact tie, so selection
    must resolve it to the left branch."""
    config = config or cfg.lang()
    if config.structure.name != "AddRationals":
        raise ValueError("tie injection shifts by arbitrary rationals")
    rng = rng or cfg.rng()
    a = gen_effect_value(cfg, rng, max_ops, base, config)
    b = gen_effect_value(cfg, rng, max_ops, base, config)

    monad = make_monad(default_monad(config.mode), config.structure)

    def best(e):
        return monad.expect0(select_fast(e, config))

    delta = best(a) - best(b)
    if delta != 0:
        b = Rew(RewConst(delta), b)
    return Or(a, b)


### monad values and Kleisli maps

def gen_monad_value(cfg: GenConfig, monad, carrier,
                    rng: random.Random | None = None):
    """A random valid value of the named monad over the given finite
    carrier of atoms."""
    name = monad if isinstance(monad, str) else monad.name
    rng = rng or cfg.rng()
    atoms = list(carrier)
    pool = cfg.rewards

    def dist():
        k = rng.randint(1, min(3, len(atoms)))
        chosen = rng.sample(atoms, k)
        ws = [rng.randint(1, 5) for _ in chosen]
        tot = sum(ws)
        return Dist([(Rational(w, tot), a) for w, a in zip(ws, chosen)])

    match name:
        case "W":
            return (rng.choice(pool), rng.choice(atoms))
        case "DW":
            k = rng.randint(1, 3)
            ws = [rng.randint(1, 5) for _ in range(k)]
            tot = sum(ws)
            return Dist([(Rational(w, tot), (rng.choice(pool), rng.choice(atoms)))
                         for w in ws])
        case "T2":
            d = dist()
            return t2val(d, {x: rng.choice(pool) for x in d.support()})
        case "T3":
            d, r = dist(), rng.choice(pool)
            return t2val(d, lambda _: r)
        case "MR":
            k = rng.randint(1, min(3, len(atoms)))
            return mrval({x: rng.choice(pool) for x in rng.sample(atoms, k)})
        case _:
            raise ValueError(f"unknown monad {name!r}")


def gen_kleisli(cfg: GenConfig, monad, dom, carrier,
                rng: random.Random | None = None):
    """A random function from dom into monad values over carrier, tabulated
    so repeated calls agree."""
    rng = rng or cfg.rng()
    table = {x: gen_monad_value(cfg, monad, carrier, rng) for x in dom}
    return table.__getitem__


### axiom instances

FIG3_AXIOMS = tuple(n for n, ax in AXIOMS.items() if 3 in ax.figures)
FIG4_AXIOMS = tuple(n for n, ax in AXIOMS.items() if 4 in ax.figures)
# monads validating each probabilistic axiom; an unlisted axiom holds in
# the plain distribution monad (and hence in all three)
AXIOM_MONADS = {n: ax.monads for n, ax in AXIOMS.items() if ax.monads}


def _reward_pair(g: _TermGen, ordered: bool) -> dict[str, Term]:
    """Reward constants c and d with d <= c, or with c < d when not
    ``ordered``."""
    st = g.config.structure
    while True:
        lo, hi = g.rc(), g.rc()
        if not st.leq(lo.value, hi.value):
            lo, hi = hi, lo
        if ordered:
            return {"c": hi, "d": lo}
        if lo.value != hi.value:
            return {"c": lo, "d": hi}


def _pr_pair(g: _TermGen, geq: bool | None = None) -> dict[str, Term]:
    """Probabilistic reward-values M and N over the same targets with the
    same marginals, and closed reward terms x and y for their expected
    rewards.  When ``geq`` is given, E[M] >= E[N] holds exactly when it is
    true."""
    st, rng, rc = g.config.structure, g.rng, g.rc
    consts = g.config.constants_of("Bool")
    for _ in range(100):
        if st.mixing_verified and rng.random() < 0.6:
            p = rng.choice(PROB_POOL)
            l1, l2 = rng.choice(consts), rng.choice(consts)
            x1, x2, y1, y2 = rc(), rc(), rc(), rc()
            m = PChoice(p, Rew(x1, l1), Rew(x2, l2))
            n = PChoice(p, Rew(y1, l1), Rew(y2, l2))
            x, y = FnApp("oplus", (x1, x2), p), FnApp("oplus", (y1, y2), p)
            em = st.convex(p, x1.value, x2.value)
            en = st.convex(p, y1.value, y2.value)
        else:
            l = rng.choice(consts)
            x, y = rc(), rc()
            m, n, em, en = Rew(x, l), Rew(y, l), x.value, y.value
        if geq is not False or em != en:
            if geq is not None and (em >= en) != geq:
                m, n, x, y = n, m, y, x
            return {"x": x, "y": y, "M": m, "N": n}
    raise RuntimeError("could not draw distinct expectations from the pool")


# axioms whose side condition the drawing must meet: each draws some
# metavariables, and the rest are drawn by sort
_DRAWS = {
    "r2": partial(_reward_pair, ordered=True),
    "r3": partial(_reward_pair, ordered=False),
    "if-expect": _pr_pair,
    "if-expect-chain": _pr_pair,
    "pr1": partial(_pr_pair, geq=True),
    "pr2": partial(_pr_pair, geq=False),
    "pr3": partial(_pr_pair, geq=True),
    "pr4": partial(_pr_pair, geq=False),
}


def _draw_meta(g: _TermGen, name: str, size: int):
    """A random instance of a metavariable, of the sort its name gives."""
    if name[0].isupper():
        return g.gen(BOOL, size, {})
    if name in "xyz":
        if g.rng.random() < 0.3:
            return FnApp("+", (g.rc(), g.rc()))
        return g.rc()
    if name in "cd":
        return g.rc()
    return g.rng.choice(PROB_POOL)


def gen_axiom_instance(name: str, cfg: GenConfig,
                       rng: random.Random | None = None,
                       config: LangConfig | None = None) -> Term:
    """A closed term matching the named axiom's left-hand side at the root;
    rewriting it with the axiom gives the right-hand side."""
    rng = rng or cfg.rng()
    config = config or cfg.lang()
    ax = AXIOMS.get(name)
    if ax is None:
        raise ValueError(f"no instance generator for axiom {name!r}")
    if 3 not in ax.figures and config.mode != "prob":
        raise ValueError(f"axiom {name} needs mode prob")
    g = _TermGen(cfg, config, rng)
    drawn = _DRAWS[name](g) if name in _DRAWS else {}
    for v in ax.metavars:
        if v not in drawn:
            drawn[v] = _draw_meta(g, v, ax.size)
    return ax.lhs(config.structure, *(drawn[v] for v in ax.metavars))


def gen_equivalent_pair(cfg: GenConfig, rng: random.Random | None = None,
                        config: LangConfig | None = None) -> tuple[Term, Term]:
    """A pair of provably equivalent programs: an axiom instance and its
    rewrite, optionally under a shared context."""
    rng = rng or cfg.rng()
    config = config or cfg.lang()
    names = FIG3_AXIOMS if config.mode == "rewards" else tuple(
        a for a in FIG4_AXIOMS if a not in AXIOM_MONADS)
    name = rng.choice(names)
    inst = gen_axiom_instance(name, cfg, rng, config)
    rewritten = apply_axiom(name, inst, (), config)
    roll = rng.random()
    if roll < 0.3:
        other = _TermGen(cfg, config, rng).gen(BOOL, 6, {})
        return Or(inst, other), Or(rewritten, other)
    if roll < 0.5:
        r = RewConst(rng.choice(cfg.rewards))
        return Rew(r, inst), Rew(r, rewritten)
    return inst, rewritten


def _or_paths(e: Term) -> list[tuple[int, ...]]:
    """Paths of the ``or`` nodes of an effect value, in preorder."""
    def under(i, paths):
        return [(i,) + p for p in paths]

    return fold_effect(e, lambda v: [],
                       lambda a, b: [()] + under(0, a) + under(1, b),
                       lambda c, b: under(1, b),
                       lambda p, a, b: under(0, a) + under(1, b))


def or_swap(e: Term, rng: random.Random) -> Term:
    """Flip the arguments of one random choice node of an effect value;
    returns the term unchanged when there is none."""
    paths = _or_paths(e)
    if not paths:
        return e
    target = rng.choice(paths)
    node = subterm_at(e, target)
    return replace_at(e, target, Or(node.right, node.left))
