"""Abstract syntax, concrete syntax, and typing for the two calculi.

The language is a call-by-value simply typed lambda calculus over declared
finite base types, with three algebraic operations:

* ``M or N``       -- binary choice, available in both modes,
* ``c . M``        -- grant reward c, then continue as M,
* ``M +[p] N``     -- probabilistic choice, available in ``prob`` mode only.

Programs may start with a prelude of ``mode`` and ``base`` declarations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rewards import DEFAULT_STRUCTURE, RewardStructure, STRUCTURES


### types

class Type:
    pass


@dataclass(frozen=True)
class Base(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnitType(Type):
    def __str__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class Prod(Type):
    fst: Type
    snd: Type

    def __str__(self) -> str:
        return f"({self.fst} * {self.snd})"


@dataclass(frozen=True)
class Arrow(Type):
    arg: Type
    res: Type

    def __str__(self) -> str:
        return f"({self.arg} -> {self.res})"


BOOL = Base("Bool")
REW = Base("Rew")
UNIT = UnitType()


def type_rank(ty: Type) -> int:
    """Functional rank: 0 for first-order data, 1 for functions on data, ..."""
    if isinstance(ty, (Base, UnitType)):
        return 0
    if isinstance(ty, Prod):
        return max(type_rank(ty.fst), type_rank(ty.snd))
    if isinstance(ty, Arrow):
        return max(type_rank(ty.arg) + 1, type_rank(ty.res))
    raise TypeError(f"unknown type {ty!r}")


### terms

class Term:
    pass


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


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term

    def sort_key(self):
        return (3, self.fst.sort_key(), self.snd.sort_key())


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ty: Type
    body: Term

    def sort_key(self):
        # lambdas are compared by their printed form; good enough to give
        # value distributions a stable order
        return (4, pretty(self))


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class If(Term):
    cond: Term
    then: Term
    els: Term


@dataclass(frozen=True)
class FnApp(Term):
    """Built-in function symbol application: '+', '<=', '==', 'oplus'.
    ``weight`` is the index of an oplus."""
    sym: str
    args: tuple[Term, ...]
    weight: Fraction | None = None


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Rew(Term):
    """Reward operation c . M; ``param`` is a term of type Rew."""
    param: Term
    body: Term


@dataclass(frozen=True)
class PChoice(Term):
    weight: Fraction
    left: Term
    right: Term


@dataclass(frozen=True)
class Hole(Term):
    """The hole of a context; never appears in complete programs."""

    def __repr__(self) -> str:
        return "Hole()"


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
        self._const_table = {}
        for base, consts in self.bases.items():
            for i, c in enumerate(consts):
                if c in self._const_table:
                    raise ValueError(f"constant {c!r} declared twice")
                self._const_table[c] = (base, i)

    def constant(self, name: str) -> Const:
        base, i = self._const_table[name]
        return Const(name, base, i)

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
    if isinstance(t, (Const, RewConst, Star, Lam)):
        return True
    if isinstance(t, Pair):
        return is_value(t.fst) and is_value(t.snd)
    return False


def is_effect_value(t: Term) -> bool:
    """Value, or an operation applied to evaluated parameters and effect
    value continuations."""
    def nothing(*_):
        return None

    try:
        fold_effect(t, nothing, nothing, nothing, nothing)
    except ValueError:
        return False
    return True


def fold_effect(e: Term, leaf, or_, rew, pchoice=None):
    """Fold an effect value bottom-up: ``leaf(v)`` at each value,
    ``or_(a, b)``, ``rew(c, b)`` and ``pchoice(p, a, b)`` at the operation
    nodes, where ``c`` is the reward constant's value and ``a``, ``b`` are
    the folds of the branches.  Left branches fold before right ones, on an
    explicit stack, so effect depth uses no Python recursion.  Raises
    ValueError on any other node, and at a ``+[p]`` node when ``pchoice``
    is None."""
    done = []
    work = [(False, e)]
    while work:
        built, t = work.pop()
        cls = type(t)
        if built:
            if cls is Rew:
                done.append(rew(t.param.value, done.pop()))
                continue
            b = done.pop()
            a = done.pop()
            done.append(or_(a, b) if cls is Or else pchoice(t.weight, a, b))
        elif cls is Or or (cls is PChoice and pchoice is not None):
            work += ((True, t), (False, t.right), (False, t.left))
        elif cls is Rew and type(t.param) is RewConst:
            work += ((True, t), (False, t.body))
        elif is_value(t):
            done.append(leaf(t))
        else:
            raise ValueError(f"not an effect value: {t!r}")
    return done[0]


### free variables and substitution

def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Lam(var, _, body):
            return free_vars(body) - {var}
        case Pair(a, b) | App(a, b) | Or(a, b):
            return free_vars(a) | free_vars(b)
        case Rew(a, b) | PChoice(_, a, b):
            return free_vars(a) | free_vars(b)
        case Fst(a) | Snd(a):
            return free_vars(a)
        case If(c, a, b):
            return free_vars(c) | free_vars(a) | free_vars(b)
        case FnApp(_, args, _):
            out = frozenset()
            for a in args:
                out |= free_vars(a)
            return out
        case _:
            return frozenset()


_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    return f"{base}%{next(_fresh_counter)}"


def substitute(t: Term, var: str, val: Term) -> Term:
    """Capture-avoiding substitution t[val/var]."""
    match t:
        case Var(name):
            return val if name == var else t
        case Lam(v, ty, body):
            if v == var:
                return t
            if v in free_vars(val):
                w = fresh_name(v.split("%")[0])
                body = substitute(body, v, Var(w))
                v = w
            return Lam(v, ty, substitute(body, var, val))
        case Pair(a, b):
            return Pair(substitute(a, var, val), substitute(b, var, val))
        case App(a, b):
            return App(substitute(a, var, val), substitute(b, var, val))
        case Fst(a):
            return Fst(substitute(a, var, val))
        case Snd(a):
            return Snd(substitute(a, var, val))
        case If(c, a, b):
            return If(substitute(c, var, val), substitute(a, var, val), substitute(b, var, val))
        case FnApp(sym, args, w):
            return FnApp(sym, tuple(substitute(a, var, val) for a in args), w)
        case Or(a, b):
            return Or(substitute(a, var, val), substitute(b, var, val))
        case Rew(a, b):
            return Rew(substitute(a, var, val), substitute(b, var, val))
        case PChoice(p, a, b):
            return PChoice(p, substitute(a, var, val), substitute(b, var, val))
        case _:
            return t


def alpha_eq(s: Term, t: Term) -> bool:
    """Structural equality up to renaming of bound variables."""
    if type(s) is not type(t):
        return False
    match s:
        case Var(n):
            return n == t.name
        case Lam(v, ty, body):
            if ty != t.ty:
                return False
            w = Var(fresh_name("_a"))
            return alpha_eq(substitute(body, v, w), substitute(t.body, t.var, w))
        case Pair(a, b):
            return alpha_eq(a, t.fst) and alpha_eq(b, t.snd)
        case App(a, b):
            return alpha_eq(a, t.fn) and alpha_eq(b, t.arg)
        case Fst(a) | Snd(a):
            return alpha_eq(a, t.arg)
        case If(c, a, b):
            return alpha_eq(c, t.cond) and alpha_eq(a, t.then) and alpha_eq(b, t.els)
        case FnApp(sym, args, w):
            return (sym == t.sym and w == t.weight and len(args) == len(t.args)
                    and all(alpha_eq(a, b) for a, b in zip(args, t.args)))
        case Or(a, b):
            return alpha_eq(a, t.left) and alpha_eq(b, t.right)
        case Rew(a, b):
            return alpha_eq(a, t.param) and alpha_eq(b, t.body)
        case PChoice(p, a, b):
            return p == t.weight and alpha_eq(a, t.left) and alpha_eq(b, t.right)
        case _:
            return s == t


### generic term structure

def children(t: Term) -> list[Term]:
    """Immediate subterms, in the order ``rebuild`` takes them."""
    match t:
        case Pair(a, b) | App(a, b) | Or(a, b) | Rew(a, b) | PChoice(_, a, b):
            return [a, b]
        case Fst(a) | Snd(a) | Lam(_, _, a):
            return [a]
        case If(c, a, b):
            return [c, a, b]
        case FnApp(_, args, _):
            return list(args)
        case _:
            return []


def rebuild(t: Term, kids: list[Term]) -> Term:
    """A node like t with its immediate subterms replaced by kids."""
    match t:
        case Pair(_, _):
            return Pair(*kids)
        case App(_, _):
            return App(*kids)
        case Or(_, _):
            return Or(*kids)
        case Rew(_, _):
            return Rew(*kids)
        case PChoice(p, _, _):
            return PChoice(p, *kids)
        case Fst(_):
            return Fst(*kids)
        case Snd(_):
            return Snd(*kids)
        case Lam(v, ty, _):
            return Lam(v, ty, kids[0])
        case If(_, _, _):
            return If(*kids)
        case FnApp(sym, _, w):
            return FnApp(sym, tuple(kids), w)
        case _:
            return t


def subterms(t: Term):
    """Yield (path, subterm) for every subterm of t, t itself first, in
    preorder; a path lists child indices from the root.  The walk keeps an
    explicit stack, so term depth uses no Python recursion."""
    stack = [((), t)]
    while stack:
        path, s = stack.pop()
        yield path, s
        kids = children(s)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


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
    for path in [p for p, s in subterms(ctx) if isinstance(s, Hole)]:
        ctx = replace_at(ctx, path, t)
    return ctx


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


def typecheck(t: Term, env: dict[str, Type] | None = None,
              config: LangConfig | None = None,
              path: tuple[str, ...] = ()) -> Type:
    env = env or {}
    config = config or LangConfig()

    def check(sub: Term, want: Type, env, leg: str):
        got = typecheck(sub, env, config, path + (leg,))
        if got != want:
            raise SelTypeError(f"expected {want}, got {got}", path + (leg,))
        return got

    match t:
        case Var(name):
            if name not in env:
                raise SelTypeError(f"unbound variable {name}", path)
            return env[name]
        case Const(_, base, _):
            return Base(base)
        case RewConst(v):
            try:
                config.structure.check_member(v)
            except ValueError as e:
                raise SelTypeError(str(e), path) from None
            return REW
        case Star():
            return UNIT
        case Pair(a, b):
            return Prod(typecheck(a, env, config, path + ("fst",)),
                        typecheck(b, env, config, path + ("snd",)))
        case Fst(a):
            ty = typecheck(a, env, config, path + ("arg",))
            if not isinstance(ty, Prod):
                raise SelTypeError(f"fst applied to {ty}", path)
            return ty.fst
        case Snd(a):
            ty = typecheck(a, env, config, path + ("arg",))
            if not isinstance(ty, Prod):
                raise SelTypeError(f"snd applied to {ty}", path)
            return ty.snd
        case Lam(v, ty, body):
            return Arrow(ty, typecheck(body, {**env, v: ty}, config, path + ("body",)))
        case App(f, a):
            fty = typecheck(f, env, config, path + ("fn",))
            if not isinstance(fty, Arrow):
                raise SelTypeError(f"application of non-function of type {fty}", path)
            check(a, fty.arg, env, "arg")
            return fty.res
        case If(c, a, b):
            check(c, BOOL, env, "cond")
            t1 = typecheck(a, env, config, path + ("then",))
            t2 = typecheck(b, env, config, path + ("else",))
            if t1 != t2:
                raise SelTypeError(f"branches disagree: {t1} vs {t2}", path)
            return t1
        case FnApp("==", (a, b), _):
            t1 = typecheck(a, env, config, path + ("arg0",))
            t2 = typecheck(b, env, config, path + ("arg1",))
            if not (isinstance(t1, Base) and t1 == t2 and t1.name != "Rew"
                    and t1.name in config.bases):
                raise SelTypeError(f"== needs two values of one finite base, got {t1}, {t2}", path)
            return BOOL
        case FnApp(sym, args, w):
            if sym not in FN_SIGNATURES:
                raise SelTypeError(f"unknown function symbol {sym}", path)
            arg_tys, res = FN_SIGNATURES[sym]
            if len(args) != len(arg_tys):
                raise SelTypeError(f"{sym} expects {len(arg_tys)} arguments", path)
            for i, (a, want) in enumerate(zip(args, arg_tys)):
                check(a, want, env, f"arg{i}")
            if sym == "oplus":
                if w is None or not (0 <= w <= 1):
                    raise SelTypeError("oplus weight must lie in [0,1]", path)
            return res
        case Or(a, b):
            t1 = typecheck(a, env, config, path + ("left",))
            t2 = typecheck(b, env, config, path + ("right",))
            if t1 != t2:
                raise SelTypeError(f"or branches disagree: {t1} vs {t2}", path)
            return t1
        case Rew(c, m):
            check(c, REW, env, "param")
            return typecheck(m, env, config, path + ("body",))
        case PChoice(p, a, b):
            if config.mode != "prob":
                raise SelTypeError("probabilistic choice needs mode prob", path)
            if not (0 <= p <= 1):
                raise SelTypeError(f"choice weight {p} outside [0,1]", path)
            t1 = typecheck(a, env, config, path + ("left",))
            t2 = typecheck(b, env, config, path + ("right",))
            if t1 != t2:
                raise SelTypeError(f"+[p] branches disagree: {t1} vs {t2}", path)
            return t1
        case Hole():
            raise SelTypeError("hole in complete program", path)
        case _:
            raise SelTypeError(f"unrecognized term {t!r}", path)


### substitution of programs for base constants, and case dispatchers

def subst_constants(e: Term, g: dict[Const, Term]) -> Term:
    """Homomorphically replace every base constant of an effect value using
    g; operations and reward parameters are left alone."""
    def image(v):
        if not isinstance(v, Const):
            raise ValueError(f"not an effect value over base constants: {v!r}")
        if v not in g:
            raise KeyError(f"no image for constant {v.name}")
        return g[v]

    return fold_effect(e, image, Or, lambda c, m: Rew(RewConst(c), m),
                       PChoice)


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


def _lex(src: str) -> list[tuple[str, str]]:
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
        if ch.isdigit() or (ch == "-" and i + 1 < n and src[i + 1].isdigit()):
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
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
        for p in _PUNCT:
            if src.startswith(p, i):
                toks.append(("punct", p))
                i += len(p)
                break
        else:
            raise SelSyntaxError(f"unexpected character {ch!r} at offset {i}")
    toks.append(("eof", ""))
    return toks


class SelSyntaxError(Exception):
    pass


### concrete syntax: parser

class _Parser:
    def __init__(self, toks: list[tuple[str, str]], config: LangConfig):
        self.toks = toks
        self.pos = 0
        self.config = config

    def peek(self, k: int = 0) -> tuple[str, str]:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> tuple[str, str]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> str:
        k, v = self.next()
        if k != kind or (text is not None and v != text):
            want = text or kind
            raise SelSyntaxError(f"expected {want!r}, found {v!r} (token {self.pos})")
        return v

    def rational(self) -> Fraction:
        text = self.expect("rat")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise SelSyntaxError(
                f"zero denominator in {text!r} (token {self.pos})") from None

    def at(self, kind: str, text: str | None = None) -> bool:
        k, v = self.peek()
        return k == kind and (text is None or v == text)

    # term := if/fun/let | orterm
    def term(self) -> Term:
        if self.at("kw", "if"):
            self.next()
            c = self.term()
            self.expect("kw", "then")
            a = self.term()
            self.expect("kw", "else")
            b = self.term()
            return If(c, a, b)
        if self.at("kw", "fun"):
            self.next()
            self.expect("punct", "(")
            v = self.expect("ident")
            self.expect("punct", ":")
            ty = self.type_()
            self.expect("punct", ")")
            self.expect("punct", "->")
            return Lam(v, ty, self.term())
        if self.at("kw", "let"):
            self.next()
            v = self.expect("ident")
            self.expect("punct", ":")
            ty = self.type_()
            self.expect("punct", "=")
            m = self.term()
            self.expect("kw", "in")
            n = self.term()
            return App(Lam(v, ty, n), m)
        return self.orterm()

    def orterm(self) -> Term:
        t = self.pcterm()
        while self.at("kw", "or"):
            self.next()
            t = Or(t, self.pcterm())
        return t

    def pcterm(self) -> Term:
        t = self.cmpterm()
        while self.at("punct", "+["):
            self.next()
            p = self.rational()
            self.expect("punct", "]")
            t = PChoice(p, t, self.cmpterm())
        return t

    def cmpterm(self) -> Term:
        t = self.addterm()
        if self.at("punct", "=="):
            self.next()
            return FnApp("==", (t, self.addterm()))
        if self.at("punct", "<="):
            self.next()
            return FnApp("<=", (t, self.addterm()))
        return t

    def addterm(self) -> Term:
        t = self.rewterm()
        while self.at("punct", "+"):
            self.next()
            t = FnApp("+", (t, self.rewterm()))
        return t

    def rewterm(self) -> Term:
        t = self.appterm()
        if self.at("punct", "."):
            self.next()
            return Rew(t, self.rewterm())
        return t

    def appterm(self) -> Term:
        t = self.atom()
        while self.at_atom_start():
            t = App(t, self.atom())
        return t

    def at_atom_start(self) -> bool:
        k, v = self.peek()
        if k in ("ident", "rat", "hole"):
            return True
        if k == "kw" and v in ("fst", "snd", "oplus"):
            return True
        if k == "punct" and v in ("(", "<", "*"):
            return True
        return False

    def atom(self) -> Term:
        k, v = self.peek()
        if k == "rat":
            return RewConst(self.rational())
        if k == "hole":
            self.next()
            return Hole()
        if k == "ident":
            self.next()
            if self.config.has_constant(v):
                return self.config.constant(v)
            return Var(v)
        if k == "kw" and v == "fst":
            self.next()
            return Fst(self.atom())
        if k == "kw" and v == "snd":
            self.next()
            return Snd(self.atom())
        if k == "kw" and v == "oplus":
            self.next()
            self.expect("punct", "[")
            p = self.rational()
            self.expect("punct", "]")
            self.expect("punct", "(")
            a = self.term()
            self.expect("punct", ",")
            b = self.term()
            self.expect("punct", ")")
            return FnApp("oplus", (a, b), p)
        if k == "punct" and v == "*":
            self.next()
            return Star()
        if k == "punct" and v == "(":
            self.next()
            t = self.term()
            self.expect("punct", ")")
            return t
        if k == "punct" and v == "<":
            self.next()
            a = self.term()
            self.expect("punct", ",")
            b = self.term()
            self.expect("punct", ">")
            return Pair(a, b)
        raise SelSyntaxError(f"unexpected token {v!r} (token {self.pos})")

    # types: arrow right-assoc, * binds tighter
    def type_(self) -> Type:
        t = self.type_prod()
        if self.at("punct", "->"):
            self.next()
            return Arrow(t, self.type_())
        return t

    def type_prod(self) -> Type:
        t = self.type_atom()
        while self.at("punct", "*"):
            self.next()
            t = Prod(t, self.type_atom())
        return t

    def type_atom(self) -> Type:
        k, v = self.next()
        if k == "ident":
            if v == "Unit":
                return UNIT
            if v == "Rew":
                return REW
            if v in self.config.bases:
                return Base(v)
            raise SelSyntaxError(f"unknown type {v}")
        if k == "punct" and v == "(":
            t = self.type_()
            self.expect("punct", ")")
            return t
        raise SelSyntaxError(f"expected a type, found {v!r}")


def parse(src: str, config: LangConfig | None = None) -> Term:
    """Parse a bare term (no prelude)."""
    config = config or LangConfig(mode="prob")
    p = _Parser(_lex(src), config)
    t = p.term()
    p.expect("eof")
    return t


def _contains_prob_op(t: Term) -> bool:
    return any(isinstance(s, PChoice) or (isinstance(s, FnApp) and s.sym == "oplus")
               for _, s in subterms(t))


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

    def is_prelude_start(i):
        return toks[i][0] == "kw" and toks[i][1] in ("mode", "base", "structure")

    while is_prelude_start(pos):
        kw = toks[pos][1]
        pos += 1
        if kw == "mode":
            k, v = toks[pos]
            if v not in ("rewards", "prob"):
                raise SelSyntaxError(f"unknown mode {v!r}")
            declared_mode = v
            pos += 1
        elif kw == "structure":
            k, v = toks[pos]
            if v not in STRUCTURES:
                raise SelSyntaxError(f"unknown reward structure {v!r}")
            declared_structure = STRUCTURES[v]
            pos += 1
        else:  # base B = { c1, ..., cn }
            k, name = toks[pos]
            if k != "ident":
                raise SelSyntaxError("expected base type name")
            pos += 1
            if toks[pos][1] != "=":
                raise SelSyntaxError("expected '=' in base declaration")
            pos += 1
            if toks[pos][1] != "{":
                raise SelSyntaxError("expected '{' in base declaration")
            pos += 1
            consts = []
            while True:
                k, c = toks[pos]
                if k not in ("ident", "kw"):
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
            if not consts:
                raise SelSyntaxError("base type needs at least one constant")
            bases[name] = tuple(consts)
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
    scratch = LangConfig(mode="prob", bases=bases, structure=final_structure)
    parser = _Parser(toks[pos:], scratch)
    term = parser.term()
    parser.expect("eof")

    final_mode = mode or declared_mode
    if final_mode is None:
        final_mode = "prob" if _contains_prob_op(term) else "rewards"
    elif final_mode == "rewards" and _contains_prob_op(term):
        raise SelSyntaxError("mode rewards has no probabilistic choice")
    config = LangConfig(mode=final_mode, bases=bases, structure=final_structure)
    return Program(config, term)


### pretty printing

# precedence levels, loosest to tightest
_P_TOP, _P_OR, _P_PC, _P_CMP, _P_ADD, _P_REW, _P_APP, _P_ATOM = range(8)


def pretty(t: Term) -> str:
    return _pp(t, _P_TOP)


def _paren(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _pp(t: Term, prec: int) -> str:
    match t:
        case Var(name):
            return name
        case Const(name, _, _):
            return name
        case RewConst(v):
            return _paren(str(v), v < 0 and prec >= _P_ATOM)
        case Star():
            return "*"
        case Hole():
            return "[-]"
        case Pair(a, b):
            return f"<{_pp(a, _P_TOP)}, {_pp(b, _P_TOP)}>"
        case Fst(a):
            return _paren(f"fst {_pp(a, _P_ATOM)}", prec > _P_APP)
        case Snd(a):
            return _paren(f"snd {_pp(a, _P_ATOM)}", prec > _P_APP)
        case Lam(v, ty, body):
            return _paren(f"fun ({v}:{ty}) -> {_pp(body, _P_TOP)}", prec > _P_TOP)
        case App(f, a):
            return _paren(f"{_pp(f, _P_APP)} {_pp(a, _P_ATOM)}", prec > _P_APP)
        case If(c, a, b):
            return _paren(
                f"if {_pp(c, _P_TOP)} then {_pp(a, _P_TOP)} else {_pp(b, _P_TOP)}",
                prec > _P_TOP)
        case FnApp("==", (a, b), _):
            return _paren(f"{_pp(a, _P_ADD)} == {_pp(b, _P_ADD)}", prec > _P_CMP)
        case FnApp("<=", (a, b), _):
            return _paren(f"{_pp(a, _P_ADD)} <= {_pp(b, _P_ADD)}", prec > _P_CMP)
        case FnApp("+", (a, b), _):
            return _paren(f"{_pp(a, _P_ADD)} + {_pp(b, _P_REW)}", prec > _P_ADD)
        case FnApp("oplus", (a, b), p):
            return f"oplus[{p}]({_pp(a, _P_TOP)}, {_pp(b, _P_TOP)})"
        case Or(a, b):
            return _paren(f"{_pp(a, _P_OR)} or {_pp(b, _P_PC)}", prec > _P_OR)
        case Rew(c, m):
            return _paren(f"{_pp(c, _P_APP)} . {_pp(m, _P_REW)}", prec > _P_REW)
        case PChoice(p, a, b):
            return _paren(f"{_pp(a, _P_PC)} +[{p}] {_pp(b, _P_CMP)}", prec > _P_PC)
        case _:
            raise ValueError(f"cannot print {t!r}")


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
