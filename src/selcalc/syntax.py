"""Abstract syntax, concrete syntax, and typing for the two calculi.

The language is a call-by-value simply typed lambda calculus over declared
finite base types, with three algebraic operations:

* ``M or N``       -- binary choice, available in both modes,
* ``c . M``        -- grant reward c, then continue as M,
* ``M +[p] N``     -- probabilistic choice, available in ``prob`` mode only.

Programs may start with a prelude of ``mode`` and ``base`` declarations.

Terms and types are nodes of one layer with one walk, ``fold_term``:
alpha-equivalence, typechecking, printing and type rank are folds on it,
and one base class compares, hashes and ``repr``s both.  Each term node
keeps its free variables once asked for them, so substitution walks only
down to the occurrences of its variable.  A node also keeps, through
``kept``, its effect value (``_effect``) and its canonical form
(``_canon``) once they are built, each with the config object it was
built for; none of this takes part in its equality, hash
or ``repr``, and all of it dies with the node.  The walks, the effect fold
``fold_effect`` and the parser, whose one loop reads terms and types from
their grammars' tables, keep explicit stacks, so nesting uses no Python
recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd

from .rewards import DEFAULT_STRUCTURE, RewardStructure, STRUCTURES, _rational


### the node layer

class _Node:
    """A node of a term or a type.  Leaves (variables, constants, ``*``,
    the hole, base and unit types) keep the equality, hash and repr their
    dataclass generates; every other node compares, hashes and prints its
    repr structurally on an explicit stack, so depth uses no Python
    recursion.  Equality returns at once on the same object, so comparing
    effect values that share subtrees costs no more than walking one of
    them."""

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b):
                return False
            kids = _KIDS.get(cls)
            if kids is None:
                if a != b:
                    return False
                continue
            head = _HEAD.get(cls)
            if head is not None and head(a) != head(b):
                return False
            ka, kb = kids(a), kids(b)
            if len(ka) != len(kb):
                return False
            stack += zip(ka, kb)
        return True

    def __hash__(self):
        # the classes and other fields of the inner nodes, and the
        # leaves, in preorder: equal nodes give equal sequences
        seq, stack = [], [self]
        while stack:
            t = stack.pop()
            cls = type(t)
            kids = _KIDS.get(cls)
            if kids is None:
                seq.append(t)
                continue
            head = _HEAD.get(cls)
            seq.append(cls if head is None else (cls, head(t)))
            stack += kids(t)
        return hash(tuple(seq))

    def __repr__(self):
        # the dataclass form Cls(field=value, ...), on a stack of texts to
        # write and of inner nodes and tuples still to open
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            if type(x) is tuple:
                parts, close = ["("], ",)" if len(x) == 1 else ")"
                items = [("", v) for v in x]
            else:
                parts, close = [f"{type(x).__qualname__}("], ")"
                items = [(f.name + "=", getattr(x, f.name)) for f in fields(x)]
            for i, (name, v) in enumerate(items):
                inner = type(v) is tuple or type(v) in _KIDS
                parts += ", " * (i > 0) + name, v if inner else repr(v)
            stack += reversed(parts + [close])
        return "".join(out)


# an inner node: its equality, hash and repr are _Node's
_inner = dataclass(frozen=True, eq=False, repr=False)


### types

class Type(_Node):
    """A type.  Types are nodes of the one walk, ``fold_term``: printing
    and ``type_rank`` are folds on it."""

    def __str__(self) -> str:
        return fold_term(self, lambda t, kids, env: str(t) if not kids
                         else f"({kids[0]}{_TYPE_OPS[type(t)]}{kids[1]})")


@dataclass(frozen=True)
class Base(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnitType(Type):
    def __str__(self) -> str:
        return "Unit"


@_inner
class Prod(Type):
    fst: Type
    snd: Type


@_inner
class Arrow(Type):
    arg: Type
    res: Type


_TYPE_OPS = {Prod: " * ", Arrow: " -> "}

BOOL = Base("Bool")
REW = Base("Rew")
UNIT = UnitType()


def type_rank(ty: Type) -> int:
    """Functional rank: 0 for first-order data, 1 for functions on data, ..."""
    return fold_term(ty, lambda t, kids, env: max(kids[0] + 1, kids[1])
                     if type(t) is Arrow else max(kids, default=0))


### terms

class Term(_Node):
    """A term."""


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    """A declared constant of a finite base type.  ``index`` is the position
    in the declaration, which fixes the canonical order of constants."""
    name: str
    base: str
    index: int

    def sort_key(self):
        return (0, self.base, self.index)


@dataclass(frozen=True)
class RewConst(Term):
    value: Fraction

    def sort_key(self):
        return (1, self.value)


@dataclass(frozen=True)
class Star(Term):
    def sort_key(self):
        return (2,)


@_inner
class Pair(Term):
    fst: Term
    snd: Term

    def sort_key(self):
        # 3 for each pair and its leaves' keys, in preorder, on an explicit
        # stack: the encoding is prefix-free, so this flat key orders pairs
        # as the nested key (3, fst key, snd key) does
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if type(t) is Pair:
                out.append(3)
                stack += (t.snd, t.fst)
            else:
                out += t.sort_key()
        return tuple(out)


@_inner
class Fst(Term):
    arg: Term


@_inner
class Snd(Term):
    arg: Term


@_inner
class Lam(Term):
    var: str
    ty: Type
    body: Term

    def sort_key(self):
        # lambdas are compared by their printed form; good enough to give
        # value distributions a stable order
        return (4, pretty(self))


@_inner
class App(Term):
    fn: Term
    arg: Term


@_inner
class If(Term):
    cond: Term
    then: Term
    els: Term


@_inner
class FnApp(Term):
    """Built-in function symbol application: '+', '<=', '==', 'oplus'.
    ``weight`` is the index of an oplus."""
    sym: str
    args: tuple[Term, ...]
    weight: Fraction | None = None


@_inner
class Or(Term):
    left: Term
    right: Term


@_inner
class Rew(Term):
    """Reward operation c . M; ``param`` is a term of type Rew."""
    param: Term
    body: Term


@_inner
class PChoice(Term):
    weight: Fraction
    left: Term
    right: Term


@dataclass(frozen=True)
class Hole(Term):
    """The hole of a context; never appears in complete programs."""


### language configuration

BUILTIN_BASES = {"Bool": ("tt", "ff")}


@dataclass
class LangConfig:
    """Mode, declared base types, and the active reward structure."""
    mode: str = "rewards"  # "rewards" | "prob"
    bases: dict[str, tuple[str, ...]] = field(default_factory=lambda: dict(BUILTIN_BASES))
    structure: RewardStructure = field(default_factory=lambda: DEFAULT_STRUCTURE)

    def __post_init__(self):
        if self.mode not in ("rewards", "prob"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if "Bool" not in self.bases:
            self.bases = {**BUILTIN_BASES, **self.bases}
        self._const_table = {}  # one Const per declared constant, by name
        for base, consts in self.bases.items():
            for i, c in enumerate(consts):
                if c in self._const_table:
                    raise ValueError(f"constant {c!r} declared twice")
                self._const_table[c] = Const(c, base, i)

    def has_constant(self, name: str) -> bool:
        return name in self._const_table

    def constants_of(self, base: str) -> list[Const]:
        return [Const(c, base, i) for i, c in enumerate(self.bases[base])]


TT = Const("tt", "Bool", 0)
FF = Const("ff", "Bool", 1)


@dataclass
class Program:
    config: LangConfig
    term: Term


### values, effect values

def is_value(t: Term) -> bool:
    """Constants, *, lambdas and pairs of values, on an explicit stack."""
    if not isinstance(t, Pair):
        return isinstance(t, (Const, RewConst, Star, Lam))
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Pair):
            stack += (t.snd, t.fst)
        elif not isinstance(t, (Const, RewConst, Star, Lam)):
            return False
    return True


def is_effect_value(t: Term) -> bool:
    """Value, or an operation applied to evaluated parameters and effect
    value continuations."""
    return is_effect_value_with(t, True, None)


def is_effect_value_with(t: Term, prob: bool, contains) -> bool:
    """Whether t is an effect value whose ``+[p]`` nodes are allowed by
    ``prob`` and whose rewards all pass ``contains``, unless it is None.
    One walk on an explicit stack, which visits a shared node once."""
    seen, stack = set(), [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Or or cls is PChoice or cls is Rew:
            if id(s) in seen:
                continue
            seen.add(id(s))
            if cls is Rew:
                if type(s.param) is not RewConst or (
                        contains is not None and not contains(s.param.value)):
                    return False
                stack.append(s.body)
            elif cls is Or or prob:
                stack += (s.right, s.left)
            else:
                return False
        elif not is_value(s):
            return False
    return True


def fold_effect(e: Term, leaf, or_, rew, pchoice=None):
    """Fold an effect value bottom-up: ``leaf(v)`` at each value,
    ``or_(a, b)``, ``rew(c, b)`` and ``pchoice(p, a, b)`` at the operation
    nodes, where ``c`` is the reward constant's value and ``a``, ``b`` are
    the folds of the branches.  Left branches fold before right ones, on an
    explicit stack, so effect depth uses no Python recursion.  Raises
    ValueError on any other node, and at a ``+[p]`` node when ``pchoice``
    is None.

    Effect values may share subtrees (``eval_effect`` builds each repeated
    one once), so a node met again is not folded again: its first fold is
    reused, by node identity, for the length of the call.  The callbacks
    must therefore not mutate their arguments."""
    done = []
    memo = {}                  # id of a node -> its fold
    work = [(False, e)]
    while work:
        built, t = work.pop()
        cls = type(t)
        if built:
            if cls is Rew:
                r = rew(t.param.value, done.pop())
            else:
                b = done.pop()
                a = done.pop()
                r = or_(a, b) if cls is Or else pchoice(t.weight, a, b)
            memo[id(t)] = r
            done.append(r)
        elif id(t) in memo:
            done.append(memo[id(t)])
        elif cls is Or or (cls is PChoice and pchoice is not None):
            work += ((True, t), (False, t.right), (False, t.left))
        elif cls is Rew and type(t.param) is RewConst:
            work += ((True, t), (False, t.body))
        elif is_value(t):
            r = memo[id(t)] = leaf(t)
            done.append(r)
        else:
            raise ValueError(f"not an effect value: {type(t).__name__} node")
    return done[0]


### what a node keeps

def kept(t: Term, slot: str, config: LangConfig, arg, make):
    """``make()``, kept on the node t in the attribute ``slot`` with the
    config object and the ``arg`` it was made for.  A later call with the
    same config object and an equal ``arg`` returns the kept result and
    calls nothing; any other call makes a new result and keeps that
    instead, so a slot holds one result.  Nothing is kept when ``make``
    raises, and what is kept dies with the node.  The key is the config
    object, not its contents, and the node, not its structure: equal but
    distinct nodes share nothing.  Nothing in the library changes a
    config once made; a caller that does must not reuse what was kept
    under it."""
    got = getattr(t, slot, None)
    if got is not None and got[0] is config and got[1] == arg:
        return got[2]
    value = make()
    object.__setattr__(t, slot, (config, arg, value))
    return value


### free variables, substitution, alpha-equivalence

_NO_VARS = frozenset()


def free_vars(t: Term) -> frozenset[str]:
    """The variables free in t.  A node keeps its set, once computed, in
    the attribute ``_fv``, and dies with it: the first call walks, on an
    explicit stack, only the subterms that have no set yet, so every
    subterm of t has one afterwards, and a node whose set equals a
    child's shares that child's set."""
    work = [(False, t)]
    while work:
        up, s = work.pop()
        if getattr(s, "_fv", None) is not None:
            continue
        kids = _KIDS.get(type(s))
        if kids is None:
            fv = frozenset((s.name,)) if type(s) is Var else _NO_VARS
        elif not up:
            work.append((True, s))
            work += [(False, k) for k in kids(s)]
            continue
        else:
            fv = _NO_VARS
            for k in kids(s):
                if not k._fv <= fv:
                    fv = fv | k._fv if fv else k._fv
            if type(s) is Lam and s.var in fv:
                fv = fv - {s.var}
        object.__setattr__(s, "_fv", fv)
    return t._fv


def substitute(t: Term, var: str, val: Term) -> Term:
    """Substitution t[val/var] of a value that no binder of t captures.
    It descends only into the subterms where var is free, so its cost is
    bounded by the paths from t to the free occurrences of var; every
    other subterm, and t itself when var is not free in it, comes back
    as itself.  Evaluation substitutes closed values into closed
    programs, so nothing is ever renamed: a binder of a free variable of
    val with a free occurrence of var under it raises ValueError naming
    it, the first such binder in preorder."""
    if var not in free_vars(t):
        return t
    capture = free_vars(val)
    done, work = [], [t]
    while work:
        s = work.pop()
        if type(s) is tuple:  # exit record: node, where its kids' results start
            s, k = s
            kids = done[k:]
            del done[k:]
            done.append(rebuild(s, kids))
        elif var not in s._fv:  # free_vars(t) gave every subterm its set
            done.append(s)
        elif type(s) is Var:
            done.append(val)
        else:
            if type(s) is Lam and s.var in capture:
                raise ValueError(f"substitute: binder {s.var} would capture "
                                 f"a free variable of the value for {var}")
            work.append((s, len(done)))
            work += reversed(_KIDS[type(s)](s))
    return done[0]


def alpha_key(t: Term) -> tuple:
    """A hashable key equal for two terms exactly when they are equal up
    to renaming of bound variables: the term's nodes in postorder, a bound
    variable as its de Bruijn index, any other node as itself when a leaf
    and as its class and non-term fields otherwise."""
    out, binders = [], []

    def bind(lam, env):
        binders.append(lam)
        return len(binders)

    def node(x, kids, env):
        cls = type(x)
        if cls is Var and x.name in env:
            out.append((Var, len(binders) - env[x.name]))
        elif not kids:
            out.append(x)
        elif cls is Lam:
            binders.pop()
            out.append((Lam, x.ty))
        elif cls is PChoice:
            out.append((PChoice, x.weight))
        elif cls is FnApp:
            out.append((FnApp, x.sym, x.weight, len(kids)))
        else:
            out.append(cls)

    fold_term(t, node, bind)
    return tuple(out)


def alpha_eq(s: Term, t: Term) -> bool:
    """Structural equality up to renaming of bound variables."""
    return alpha_key(s) == alpha_key(t)


### generic node structure

# the immediate subterms (or subtypes) of each class that has any
_KIDS = {Pair: lambda t: (t.fst, t.snd), App: lambda t: (t.fn, t.arg),
         Or: lambda t: (t.left, t.right), Rew: lambda t: (t.param, t.body),
         PChoice: lambda t: (t.left, t.right), Fst: lambda t: (t.arg,),
         Snd: lambda t: (t.arg,), Lam: lambda t: (t.body,),
         If: lambda t: (t.cond, t.then, t.els), FnApp: lambda t: t.args,
         Prod: lambda t: (t.fst, t.snd), Arrow: lambda t: (t.arg, t.res)}


# the fields that are not children, of each class with children that has any
_HEAD = {Lam: lambda t: (t.var, t.ty), FnApp: lambda t: (t.sym, t.weight),
         PChoice: lambda t: t.weight}


def children(t: Term) -> list[Term]:
    """Immediate subterms, in the order ``rebuild`` takes them."""
    kids = _KIDS.get(type(t))
    return list(kids(t)) if kids else []


def rebuild(t: Term, kids: list[Term]) -> Term:
    """A node like t with its immediate subterms replaced by kids."""
    cls = type(t)
    if cls is PChoice:
        return PChoice(t.weight, *kids)
    if cls is Lam:
        return Lam(t.var, t.ty, kids[0])
    if cls is FnApp:
        return FnApp(t.sym, tuple(kids), t.weight)
    return cls(*kids) if cls in _KIDS else t


def nodes(t: Term):
    """Yield every subterm of t, t itself first, in preorder, from an
    explicit stack."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def fold_term(t: Term, node, bind=None, env=None):
    """Fold t bottom-up: ``node(s, kids, env)`` at each subterm s, where
    kids lists the folds of ``children(s)`` in order and env maps each
    variable bound above s to ``bind(lam, env)`` of its nearest binder lam
    (by default ``lam.ty``), starting from a copy of the given env.  At a
    Lam, node sees the env of its body.  The walk goes depth first, left to
    right, on an explicit stack, so ``bind`` runs in preorder, ``node`` in
    postorder, and term depth uses no Python recursion.  This is the one
    binder-aware walk: alpha-equivalence, typechecking and printing are
    folds, and so are a type's printing and rank."""
    env = dict(env or {})
    done = []
    work = [t]
    pop, push, emit, kids_of = work.pop, work.append, done.append, _KIDS.get
    while work:
        s = pop()
        cls = type(s)
        if cls is tuple:  # exit record: node, where its kids' folds start,
            s, k, saved = s  # and a Lam's shadowed entry, (value,) or ()
            kids = done[k:]
            del done[k:]
            emit(node(s, kids, env))
            if saved:
                env[s.var] = saved[0]
            elif saved is not None:
                del env[s.var]
            continue
        kids = kids_of(cls)
        if kids is None:
            emit(node(s, (), env))
            continue
        if cls is Lam:
            push((s, len(done), (env[s.var],) if s.var in env else ()))
            env[s.var] = s.ty if bind is None else bind(s, env)
        else:
            push((s, len(done), None))
        work += kids(s)[::-1]
    return done[0]


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    """The subterm at a path of child indices."""
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    """t with the subterm at path replaced by new."""
    spine = []
    for i in path:
        kids = children(t)
        spine.append((t, kids, i))
        t = kids[i]
    for node, kids, i in reversed(spine):
        kids[i] = new
        new = rebuild(node, kids)
    return new


def plug(ctx: Term, t: Term) -> Term:
    """Replace the hole of a context by a term.  No binding is involved:
    contexts built here never capture."""
    return fold_term(ctx, lambda s, kids, env:
                     t if type(s) is Hole else rebuild(s, kids))


### typechecking

class SelTypeError(Exception):
    def __init__(self, msg: str, path: tuple[str, ...] = ()):
        self.path = path
        suffix = f" (at {'.'.join(path)})" if path else ""
        super().__init__(msg + suffix)


FN_SIGNATURES = {
    "+": ((REW, REW), REW),
    "<=": ((REW, REW), BOOL),
    "oplus": ((REW, REW), REW),
}


# the path leg of each child, by class; FnApp's are arg0, arg1, ...
_LEGS = {Pair: ("fst", "snd"), Fst: ("arg",), Snd: ("arg",), Lam: ("body",),
         App: ("fn", "arg"), If: ("cond", "then", "else"),
         Or: ("left", "right"), Rew: ("param", "body"),
         PChoice: ("left", "right")}


class _Fail(Exception):
    """A type error met while folding: its message, and the path legs from
    where it arose up to the last node it passed through, innermost first."""

    def __init__(self, msg: str):
        self.msg, self.legs = msg, []


def _kid(s: Term, kids, i: int, want: Type | None = None) -> Type:
    """The type of child i of s, checked against want when given.  A
    child's failure, or a mismatch, is raised with the child's leg added,
    so a node reports the first failure in the order it looks at them."""
    k = kids[i]
    if type(k) is not _Fail:
        if want is None or k is want or k == want:
            return k
        k = _Fail(f"expected {want}, got {k}")
    k.legs.append(f"arg{i}" if type(s) is FnApp else _LEGS[type(s)][i])
    raise k.with_traceback(None)


def typecheck(t: Term, env: dict[str, Type] | None = None,
              config: LangConfig | None = None,
              path: tuple[str, ...] = ()) -> Type:
    """The type of t under env, or SelTypeError at the first error in
    source order, with the path of child legs to where it arose.  A fold:
    each node's type, or the failure it passes up, comes from its
    children's."""
    config = config or LangConfig()
    check_member = config.structure.check_member
    bases = {"Bool": BOOL, "Rew": REW}  # the type of each constant's base

    def node(s, kids, env):
        # the classes most frequent in programs come first
        cls = type(s)
        try:
            if cls is RewConst:
                try:
                    check_member(s.value)
                except ValueError as e:
                    raise _Fail(str(e)) from None
                return REW
            if cls is FnApp:
                if s.sym == "==" and len(kids) == 2:
                    t1, t2 = _kid(s, kids, 0), _kid(s, kids, 1)
                    if not (isinstance(t1, Base) and t1 == t2 and t1.name != "Rew"
                            and t1.name in config.bases):
                        raise _Fail(f"== needs two values of one finite base, "
                                    f"got {t1}, {t2}")
                    return BOOL
                if s.sym not in FN_SIGNATURES:
                    raise _Fail(f"unknown function symbol {s.sym}")
                arg_tys, res = FN_SIGNATURES[s.sym]
                if len(kids) != len(arg_tys):
                    raise _Fail(f"{s.sym} expects {len(arg_tys)} arguments")
                for i, want in enumerate(arg_tys):
                    _kid(s, kids, i, want)
                if s.sym == "oplus" and (s.weight is None or not (0 <= s.weight <= 1)):
                    raise _Fail("oplus weight must lie in [0,1]")
                return res
            if cls is Const:
                ty = bases.get(s.base)
                if ty is None:
                    ty = bases[s.base] = Base(s.base)
                return ty
            if cls is Var:
                if s.name not in env:
                    raise _Fail(f"unbound variable {s.name}")
                return env[s.name]
            if cls is App:
                fty = _kid(s, kids, 0)
                if not isinstance(fty, Arrow):
                    raise _Fail(f"application of non-function of type {fty}")
                _kid(s, kids, 1, fty.arg)
                return fty.res
            if cls is Lam:
                return Arrow(s.ty, _kid(s, kids, 0))
            if cls is Rew:
                _kid(s, kids, 0, REW)
                return _kid(s, kids, 1)
            if cls is If or cls is Or or cls is PChoice:
                if cls is PChoice and config.mode != "prob":
                    raise _Fail("probabilistic choice needs mode prob")
                if cls is PChoice and not (0 <= s.weight <= 1):
                    raise _Fail(f"choice weight {s.weight} outside [0,1]")
                if cls is If:
                    _kid(s, kids, 0, BOOL)
                a, b = _kid(s, kids, len(kids) - 2), _kid(s, kids, len(kids) - 1)
                if a is not b and a != b:
                    what = {If: "", Or: "or ", PChoice: "+[p] "}[cls]
                    raise _Fail(f"{what}branches disagree: {a} vs {b}")
                return a
            if cls is Pair:
                return Prod(_kid(s, kids, 0), _kid(s, kids, 1))
            if cls is Fst or cls is Snd:
                ty = _kid(s, kids, 0)
                if not isinstance(ty, Prod):
                    raise _Fail(f"{'fst' if cls is Fst else 'snd'} applied to {ty}")
                return ty.fst if cls is Fst else ty.snd
            if cls is Star:
                return UNIT
            if cls is Hole:
                raise _Fail("hole in complete program")
            raise _Fail(f"unrecognized term {s!r}")
        except _Fail as fail:
            return fail

    ty = fold_term(t, node, env=env)
    if type(ty) is _Fail:
        raise SelTypeError(ty.msg, path + tuple(reversed(ty.legs)))
    return ty


### case dispatchers

def make_dispatcher(consts: list[Const], g) -> Lam:
    """Build fun (x:b) -> if x == c1 then g(c1) else ... else g(cn), with the
    last constant as the default branch.

    Each g(c) must be a closed term (checked): the binder is the plain
    name ``x``, which would capture a free ``x`` in a branch.  A plain
    name prints as source the lexer accepts, so a printed dispatcher
    parses back."""
    if not consts:
        raise ValueError("dispatcher needs at least one constant")
    branches = [g(c) for c in consts]
    if any(free_vars(b) for b in branches):
        raise ValueError("dispatcher branches must be closed terms")
    body = branches[-1]
    for c, b in zip(reversed(consts[:-1]), reversed(branches[:-1])):
        body = If(FnApp("==", (Var("x"), c)), b, body)
    return Lam("x", Base(consts[0].base), body)


### concrete syntax: lexer

_PUNCT = ["+[", "->", "==", "<=", "(", ")", "<", ">", ",", ":", ".", "+",
          "=", "[", "]", ";", "{", "}", "*"]
_KEYWORDS = {"or", "if", "then", "else", "fun", "let", "in", "fst", "snd",
             "oplus", "base", "mode", "rewards", "prob", "structure"}


# the text of one token after any whitespace and comments; the
# alternatives are tried in order: a numeral, a name, the hole, a
# punctuation mark, the end of the input, any other character.  \d is a
# decimal digit (one int() reads), \w a letter, digit or numeral, or '_';
# a name starts with a letter or '_', so a numeral that is no decimal
# digit, such as '²', is a name's first character only to be refused by
# _lex
_TOKEN = re.compile(r"(?:\s+|#[^\n]*)*(-?\d+(?:/\d+)?|[^\W\d][\w']*|\[-\]"
                    f"|{'|'.join(map(re.escape, _PUNCT))}|\\Z|.)", re.S)

# the token of each text that is always the same token: keywords,
# punctuation, the hole, and the empty text at the end of the input
_FIXED = {**{p: ("punct", p) for p in _PUNCT},
          **{w: ("kw", w) for w in _KEYWORDS},
          "[-]": ("hole", "[-]"), "": ("eof", "")}


def _lex(src: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of src, ending with ("eof", "").  Any
    other text is a name when it starts with a letter or '_', and a
    numeral when it starts with a decimal digit or is '-' and more."""
    toks = []
    for text in _TOKEN.findall(src):
        tok = _FIXED.get(text)
        if tok is None:
            c = text[0]
            if c.isalpha() or c == "_":
                tok = ("ident", text)
            elif c.isdecimal() or (c == "-" and len(text) > 1):
                tok = ("rat", text)
            else:  # findall keeps no offsets: match again to find it
                at = list(_TOKEN.finditer(src))[len(toks)].start(1)
                raise SelSyntaxError(
                    f"unexpected character {c!r} at offset {at}")
        toks.append(tok)
        if not text:  # \Z may match again, empty, after trailing space
            return toks


class SelSyntaxError(Exception):
    pass


### concrete syntax: parser

# precedence levels, loosest to tightest, shared by parser and printer
_P_TOP, _P_OR, _P_PC, _P_CMP, _P_ADD, _P_REW, _P_APP, _P_ATOM = range(8)

# The parser knows a keyword or punctuation token by its text alone: no
# name, numeral, hole or end of input has the text of one.

# infix operator: (the minimum level of its right operand, whether it
# associates left); '==' and '<=' do not associate, '.' nests rightwards
_INFIX = {"or": (_P_PC, True), "+[": (_P_CMP, True), "==": (_P_ADD, False),
          "<=": (_P_ADD, False), "+": (_P_REW, True), ".": (_P_REW, False)}

# the type operators on the same levels: '->' nests rightwards, '*' binds
# tighter and associates left
_TYPE_INFIX = {"->": (_P_TOP, False), "*": (_P_ATOM, True)}

# each construction with subterms, by its opening token or operator
# ("app" is juxtaposition): (the level of the term it makes, the texts of
# the tokens that must follow each of its parts, the function making the
# term from its data and parts); an operator's first part is its left
# operand, a binder's is its type.  A construction opens only in a
# context whose minimum level is at most its own, so if, fun and let
# open only at the top.
_CONSTRUCTS = {
    "(": (_P_ATOM, ((")",),), lambda _, t: t),
    "<": (_P_ATOM, ((",",), (">",)), lambda _, a, b: Pair(a, b)),
    "oplus": (_P_ATOM, ((",",), (")",)),
              lambda p, a, b: FnApp("oplus", (a, b), p)),
    "fst": (_P_ATOM, ((),), lambda _, t: Fst(t)),
    "snd": (_P_ATOM, ((),), lambda _, t: Snd(t)),
    "if": (_P_TOP, (("then",), ("else",), ()), lambda _, c, a, b: If(c, a, b)),
    "fun": (_P_TOP, ((")", "->"), ()), Lam),
    "let": (_P_TOP, (("=",), ("in",), ()),
            lambda x, ty, m, n: App(Lam(x, ty, n), m)),
    "app": (_P_APP, ((), ()), lambda _, f, a: App(f, a)),
    "or": (_P_OR, ((), ()), lambda _, a, b: Or(a, b)),
    "+[": (_P_PC, ((), ()), PChoice),
    "==": (_P_CMP, ((), ()), lambda _, a, b: FnApp("==", (a, b))),
    "<=": (_P_CMP, ((), ()), lambda _, a, b: FnApp("<=", (a, b))),
    "+": (_P_ADD, ((), ()), lambda _, a, b: FnApp("+", (a, b))),
    ".": (_P_REW, ((), ()), lambda _, a, b: Rew(a, b)),
    "->": (_P_TOP, ((), ()), lambda _, a, b: Arrow(a, b)),
    "*": (_P_APP, ((), ()), lambda _, a, b: Prod(a, b)),
}

# the tokens that open a construction of a term
_OPENERS = {"(", "<", "fst", "snd", "oplus", "if", "fun", "let"}

# the tokens that begin an atom, the argument of an application: the
# kinds of the primaries (and '*'), and the texts of the tokens opening
# a construction of level _P_ATOM; no kind is the text of a keyword or
# punctuation
_ARG_STARTS = {"ident", "rat", "hole", "*",
               *(v for v in _OPENERS if _CONSTRUCTS[v][0] == _P_ATOM)}

# a grammar: (its infix operators, the tokens that open its
# constructions, the tokens that begin a juxtaposed argument); types have
# no juxtaposition, and their primaries are type names
_TERM = (_INFIX, _OPENERS, _ARG_STARTS)
_TYPE = (_TYPE_INFIX, {"("}, set())

# the built-in types by name; any other type name is a declared base
_TYPE_NAMES = {"Unit": UNIT, "Rew": REW, "Bool": BOOL}


def _expected(want: str, toks, i: int, start: int) -> SelSyntaxError:
    """The error for token i, which is not want; start numbers token 0."""
    return SelSyntaxError(f"expected {want!r}, found {toks[i][1]!r} "
                          f"(token {i + 1 - start})")


def _expect(toks, i: int, texts, start: int) -> int:
    """The index past the tokens of texts, which must start at token i."""
    for text in texts:
        if toks[i][1] != text:
            raise _expected(text, toks, i, start)
        i += 1
    return i


def _numeral(toks, i: int, start: int) -> Fraction:
    """The rational of numeral token i."""
    kind, text = toks[i]
    if kind != "rat":
        raise _expected("rat", toks, i, start)
    try:
        if "/" not in text:  # an integer is in lowest terms
            return _rational(int(text), 1)
        num, den = text.split("/")
        n, d = int(num), int(den)
    except ValueError:  # past Python's int/str digit limit
        raise SelSyntaxError(f"numeral {text[:20]}... has too many digits "
                             f"(token {i + 1 - start})") from None
    if d == 0:
        raise SelSyntaxError(
            f"zero denominator in {text!r} (token {i + 1 - start})")
    g = gcd(n, d)
    return _rational(n // g, d // g)


def _parse(toks: list[tuple[str, str]], config: LangConfig, grammar,
           start: int = 0):
    """The phrase of the grammar, ``_TERM`` or ``_TYPE``, that spans toks
    from token start, which messages number 0, and whether it has a
    probabilistic choice.  term := if/fun/let | orterm, where orterm is
    built from atoms by juxtaposition and the operators of _INFIX; a type
    is built from names and parentheses by those of _TYPE_INFIX.
    Precedence climbing over an explicit stack of pending constructions,
    each frame holding (kind, the minimum level of its context, its data,
    its parts so far, the grammar of its context), so nesting uses no
    Python recursion; a binder's type is read by the same loop."""
    consts = config._const_table
    infix, openers, args = grammar
    stack = []
    m = _P_TOP
    i = start
    prob = False
    while True:
        # an operand: the construction it opens, or a primary
        k, v = toks[i]
        i += 1
        if v in openers and _CONSTRUCTS[v][0] >= m:
            data = None
            if v == "oplus":
                i = _expect(toks, i, ("[",), start)
                data = _numeral(toks, i, start)
                i = _expect(toks, i + 1, ("]", "("), start)
                prob = True
            elif v == "fun" or v == "let":
                if v == "fun":
                    i = _expect(toks, i, ("(",), start)
                if toks[i][0] != "ident":
                    raise _expected("ident", toks, i, start)
                data = toks[i][1]
                i = _expect(toks, i + 1, (":",), start)
                stack.append((v, m, data, [], grammar))
                infix, openers, args = grammar = _TYPE
                m = _P_TOP
                continue
            stack.append((v, m, data, [], grammar))
            m = _P_ATOM if v == "fst" or v == "snd" else _P_TOP
            continue
        if grammar is _TYPE:
            if k != "ident":
                raise SelSyntaxError(f"expected a type, found {v!r}")
            left = _TYPE_NAMES.get(v)
            if left is None:
                if v not in config.bases:
                    raise SelSyntaxError(f"unknown type {v}")
                left = Base(v)
        elif k == "ident":
            left = consts.get(v) or Var(v)
        elif k == "rat":
            left = RewConst(_numeral(toks, i - 1, start))
        elif k == "hole":
            left = Hole()
        elif v == "*":
            left = Star()
        else:
            raise SelSyntaxError(f"unexpected token {v!r} (token {i - 1 - start})")
        level = _P_ATOM
        # the operators and closing tokens after it
        while True:
            k, v = toks[i]
            op = infix.get(v)
            if op is not None:
                at = _CONSTRUCTS[v][0]
                if at >= m and (level >= at if op[1] else level > at):
                    i += 1
                    p = None
                    if v == "+[":
                        p = _numeral(toks, i, start)
                        i = _expect(toks, i + 1, ("]",), start)
                        prob = True
                    stack.append((v, m, p, [left], grammar))
                    m = op[0]
                    break
            if m <= _P_APP <= level and (k in args or v in args):
                stack.append(("app", m, None, [left], grammar))
                m = _P_ATOM
                break
            if not stack:
                if k != "eof":
                    raise _expected("eof", toks, i, start)
                return left, prob
            kind, m, data, parts, context = stack.pop()
            if context is not grammar:
                infix, openers, args = grammar = context
            parts.append(left)
            level, closers, build = _CONSTRUCTS[kind]
            if closers[len(parts) - 1]:
                i = _expect(toks, i, closers[len(parts) - 1], start)
            if len(parts) < len(closers):
                stack.append((kind, m, data, parts, grammar))
                m = _P_TOP
                break
            left = build(data, *parts)


def parse(src: str, config: LangConfig | None = None) -> Term:
    """Parse a bare term (no prelude)."""
    return _parse(_lex(src), config or LangConfig(mode="prob"), _TERM)[0]


def parse_type(src: str, config: LangConfig | None = None) -> Type:
    """Parse a type over the bases of config."""
    return _parse(_lex(src), config or LangConfig(), _TYPE)[0]


def parse_program(src: str, mode: str | None = None,
                  structure: RewardStructure | None = None) -> Program:
    """Parse a prelude (mode / structure / base declarations) followed by a
    term.  ``mode`` overrides nothing: a conflict with a declared mode is an
    error.  Without any declaration the mode is inferred from the term."""
    toks = _lex(src)
    declared_mode = None
    declared_structure = None
    bases = dict(BUILTIN_BASES)
    pos = 0

    while toks[pos][0] == "kw" and toks[pos][1] in ("mode", "base", "structure"):
        kw, (k, v) = toks[pos][1], toks[pos + 1]
        pos += 2
        if kw == "mode":
            if v not in ("rewards", "prob"):
                raise SelSyntaxError(f"unknown mode {v!r}")
            declared_mode = v
        elif kw == "structure":
            if v not in STRUCTURES:
                raise SelSyntaxError(f"unknown reward structure {v!r}")
            declared_structure = STRUCTURES[v]
        else:  # base B = { c1, ..., cn }
            if k != "ident":
                raise SelSyntaxError("expected base type name")
            if v in BUILTIN_BASES or v in ("Unit", "Rew"):
                raise SelSyntaxError(f"{v} is a built-in type")
            for text in ("=", "{"):
                if toks[pos][1] != text:
                    raise SelSyntaxError(f"expected {text!r} in base declaration")
                pos += 1
            consts = []
            while True:
                k, c = toks[pos]
                if k == "kw":
                    raise SelSyntaxError(f"keyword {c!r} cannot name a constant")
                if k != "ident":
                    raise SelSyntaxError("expected constant name")
                consts.append(c)
                pos += 1
                if toks[pos][1] == ",":
                    pos += 1
                    continue
                if toks[pos][1] == "}":
                    pos += 1
                    break
                raise SelSyntaxError("expected ',' or '}' in base declaration")
            bases[v] = tuple(consts)
        if toks[pos][1] != ";":
            raise SelSyntaxError("expected ';' after declaration")
        pos += 1

    if mode is not None and declared_mode is not None and mode != declared_mode:
        raise SelSyntaxError(f"mode {mode!r} conflicts with declared mode {declared_mode!r}")
    if (structure is not None and declared_structure is not None
            and structure is not declared_structure):
        raise SelSyntaxError(
            f"structure {structure.name} conflicts with declared "
            f"structure {declared_structure.name}")
    final_structure = structure or declared_structure or DEFAULT_STRUCTURE

    # parse the body permissively, then settle the mode
    try:
        config = LangConfig(mode="prob", bases=bases, structure=final_structure)
    except ValueError as e:  # a constant declared twice
        raise SelSyntaxError(str(e)) from None
    term, has_prob = _parse(toks, config, _TERM, pos)
    final_mode = mode or declared_mode
    if final_mode is None:
        final_mode = "prob" if has_prob else "rewards"
    elif final_mode == "rewards" and has_prob:
        raise SelSyntaxError("mode rewards has no probabilistic choice")
    if final_mode != config.mode:
        config = LangConfig(mode=final_mode, bases=bases, structure=final_structure)
    return Program(config, term)


### pretty printing

# layout of each node, by class or FnApp symbol: (its own level, the
# level each child must reach to go without parentheses, template over
# the node and its children's texts)
_LAYOUT = {
    Var: (_P_ATOM, (), "{0.name}"), Const: (_P_ATOM, (), "{0.name}"),
    Star: (_P_ATOM, (), "*"), Hole: (_P_ATOM, (), "[-]"),
    Pair: (_P_ATOM, (_P_TOP, _P_TOP), "<{1}, {2}>"),
    Fst: (_P_APP, (_P_ATOM,), "fst {1}"), Snd: (_P_APP, (_P_ATOM,), "snd {1}"),
    Lam: (_P_TOP, (_P_TOP,), "fun ({0.var}:{0.ty}) -> {1}"),
    App: (_P_APP, (_P_APP, _P_ATOM), "{1} {2}"),
    If: (_P_TOP, (_P_TOP,) * 3, "if {1} then {2} else {3}"),
    "==": (_P_CMP, (_P_ADD, _P_ADD), "{1} == {2}"),
    "<=": (_P_CMP, (_P_ADD, _P_ADD), "{1} <= {2}"),
    "+": (_P_ADD, (_P_ADD, _P_REW), "{1} + {2}"),
    "oplus": (_P_ATOM, (_P_TOP, _P_TOP), "oplus[{0.weight}]({1}, {2})"),
    Or: (_P_OR, (_P_OR, _P_PC), "{1} or {2}"),
    Rew: (_P_REW, (_P_APP, _P_REW), "{1} . {2}"),
    PChoice: (_P_PC, (_P_PC, _P_CMP), "{1} +[{0.weight}] {2}"),
}


def pretty(t: Term) -> str:
    """Source text for t that parses back to t, with the fewest
    parentheses the grammar allows.  A fold: each node prints to (its
    level, its text)."""
    def node(s, kids, env):
        cls = type(s)
        if cls is RewConst:
            # a negative constant lexes as one token but cannot be applied
            return (_P_APP if s.value < 0 else _P_ATOM), str(s.value)
        own, wants, template = _LAYOUT.get(s.sym if cls is FnApp else cls,
                                           (None, None, None))
        if template is None or len(wants) != len(kids):
            raise ValueError(f"cannot print {s!r}")
        return own, template.format(s, *[
            f"({text})" if want > level else text
            for (level, text), want in zip(kids, wants)])

    return fold_term(t, node)[1]


def pretty_program(p: Program) -> str:
    lines = []
    if p.config.mode:
        lines.append(f"mode {p.config.mode};")
    if p.config.structure is not DEFAULT_STRUCTURE:
        lines.append(f"structure {p.config.structure.name};")
    for base, consts in p.config.bases.items():
        if base not in BUILTIN_BASES:
            lines.append(f"base {base} = {{{', '.join(consts)}}};")
    lines.append(pretty(p.term))
    return "\n".join(lines)
