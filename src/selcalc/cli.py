"""Command-line entry point: evaluate under any semantics, canonicalize,
compare, decide purity, generate programs, and run the property suites
(registered in ``selcalc.properties``).

Exit codes: 0 success / positive decision; 1 negative decision
(inequivalent, impure, or for ``distinguish`` no separating context); 2
indeterminate; 3 usage, parse, or type error, including an input file
that is missing, unreadable or not UTF-8 text and a ``base`` declaration
of a built-in type; 4 internal invariant violation, resource exhaustion,
or a failing suite (``check``).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .equations import (
    NoDistinguishingContext, canon, decide_pure_prob, decide_pure_rewards,
    distinguish_rewards, rewards_impurity_witness, separate_prob,
    weak_canonical_term,
)
from .monads import atoms, default_monad, make_monad
from .operational import BudgetExceeded, StuckTerm, eval_effect, trace_eval
from .properties import SUITES, run_suite
from .rewards import (
    ConditionCUnavailable, DEFAULT_STRUCTURE, STRUCTURES, parse_reward,
)
from .selection import (
    FnElem, denote, gamma_from_table, kappa_term, observe, zero_gamma,
)
from .strategies import StrategyCapExceeded, select_bruteforce, select_program
from .syntax import (
    App, Base, Hole, LangConfig, Pair, REW, SelSyntaxError, SelTypeError,
    parse_program, parse_type, plug, pretty, type_rank, typecheck,
)
from .testgen import GenConfig, gen_program

JSON_VERSION = "1"


### rendering

def _sem_str(x) -> str:
    """A semantic value's text, on an explicit stack.  An FnElem, also
    inside a pair, prints as ``<function>``."""
    out, stack = [], [x]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        elif isinstance(t, Pair):
            stack += (">", t.snd, ", ", t.fst, "<")
        elif isinstance(t, FnElem):
            out.append("<function>")
        else:
            out.append(pretty(t))
    return "".join(out)


def _outcome_atoms(u, monad_name: str) -> list[dict[str, str]]:
    return [{"prob": str(p), "reward": str(r), "value": _sem_str(v)}
            for p, r, v in atoms(u, monad_name)]


def _monad_value_json(u, monad_name: str):
    listed = atoms(u, monad_name)
    if monad_name == "W":
        [(_, r, v)] = listed
        return {"reward": str(r), "value": _sem_str(v)}
    if monad_name == "DW":
        return {"outcome": _outcome_atoms(u, monad_name)}
    dist = [{"prob": str(p), "value": _sem_str(x)} for p, _, x in listed]
    if monad_name == "T3":
        return {"dist": dist, "reward": str(listed[0][1])}
    return {"dist": dist, "rewards": [{"value": _sem_str(x), "reward": str(r)}
                                      for _, r, x in listed]}


def _monad_value_text(u, monad_name: str) -> str:
    listed = atoms(u, monad_name)
    if monad_name == "W":
        [(_, r, v)] = listed
        return f"reward {r}, value {_sem_str(v)}"
    if monad_name == "DW":
        return "; ".join(f"{p}: reward {r}, value {_sem_str(v)}"
                         for p, r, v in listed)
    dist = ", ".join(f"{p} {_sem_str(x)}" for p, _, x in listed)
    if monad_name == "T3":
        return f"dist: {dist}; reward {listed[0][1]}"
    rew = ", ".join(f"{_sem_str(x)} -> {r}" for _, r, x in listed)
    return f"dist: {dist}; rewards: {rew}"


def _table_str(table: dict[str, Fraction]) -> str:
    return json.dumps({k: str(v) for k, v in table.items()})


def _echo(as_json: bool, doc: dict, text: str) -> None:
    """Print doc as one line of versioned JSON, or else text."""
    click.echo(json.dumps({"version": JSON_VERSION, **doc}) if as_json
               else text)


### file and flag handling

def _read(path: str) -> str:
    """The text of path, or a file error when it is not readable UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise click.FileError(path, "not UTF-8 text")
    except OSError as e:
        raise click.FileError(path, e.strerror)


def _load(path: str, mode: str | None, structure_name: str | None):
    """The parsed program and its type."""
    structure = STRUCTURES[structure_name] if structure_name else None
    prog = parse_program(_read(path), mode=mode, structure=structure)
    return prog, typecheck(prog.term, config=prog.config)


def _load_gamma(gamma_arg: str | None, config: LangConfig):
    if gamma_arg in (None, "zero"):
        return zero_gamma(config)
    try:
        raw = json.loads(_read(gamma_arg))
    except ValueError as e:  # malformed, or a number past the digit limit
        if isinstance(e, json.JSONDecodeError):
            raise
        raise click.UsageError("bad valuation table: a number has more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(raw, dict):
        raise click.UsageError(
            f"valuation table must be a JSON object, got {type(raw).__name__}")
    try:
        table = {k: parse_reward(v) for k, v in raw.items()}
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise click.UsageError(f"bad valuation table: {e}")
    for k, v in table.items():
        if not config.has_constant(k):
            raise click.UsageError(f"gamma table names unknown constant {k!r}")
        if not config.structure.contains(v):
            raise click.UsageError(
                f"gamma entry {k}={v} lies outside {config.structure.name}")
    return gamma_from_table(table, config)


_PROB_ONLY = "--monad applies to probabilistic mode"


def _check_monad(mname: str | None, config: LangConfig,
                 misfit: str | None = None) -> str:
    """The monad --monad names, by default the one of the program's mode;
    a usage error (misfit, if given) when the mode cannot carry it, or
    when the reward structure cannot."""
    if mname is None:
        return default_monad(config.mode)
    if (mname == "W") != (config.mode == "rewards"):
        raise click.UsageError(
            misfit or f"monad {mname} does not fit mode {config.mode}")
    try:
        make_monad(mname, config.structure)
    except ValueError as e:
        raise click.UsageError(f"monad {mname}: {e}")
    return mname


### suite names

# suite -> (family, mode, the --monad values it takes).  A family name
# with --mode (rewards by default) names the first of its suites in that
# mode that takes the --monad given, or else the first; a suite not listed
# belongs to no family and takes neither option.
_SUITE_OPTIONS = {
    "adequacy-rewards": ("adequacy", "rewards", ()),
    "adequacy-prob-T1": ("adequacy", "prob", ("DW",)),
    "adequacy-prob-T2": ("adequacy", "prob", ("T2",)),
    "adequacy-prob-T3": ("adequacy", "prob", ("T3",)),
    "axioms-fig3": ("axioms", "rewards", ()),
    "axioms-fig4": ("axioms", "prob", ()),
    "purity-rewards": ("purity", "rewards", ()),
    "purity-prob": ("purity", "prob", ("DW", "T2", "T3")),
}


def _resolve_suite(name: str, mode: str | None, monad: str | None) -> str:
    """The registered suite --suite names; a usage error when the name is
    unknown or --mode or --monad contradicts the suite."""
    if name not in SUITES:
        family = [s for s, (f, md, _) in _SUITE_OPTIONS.items()
                  if f == name and md == (mode or "rewards")]
        if not family:
            raise click.UsageError(
                f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        name = next((s for s in family if monad in _SUITE_OPTIONS[s][2]),
                    family[0])
    _, suite_mode, monads = _SUITE_OPTIONS.get(name, (None, None, ()))
    if mode is not None and mode != suite_mode:
        raise click.UsageError(f"suite {name} does not run in mode {mode}")
    if monad is not None and monad not in monads:
        raise click.UsageError(f"suite {name} does not take --monad {monad}")
    return name


### commands

def _decision_options(f):
    """--mode, --monad (probabilistic mode), --structure and --json, shared
    by the commands that decide something about programs."""
    for option in (
            click.option("--json", "as_json", is_flag=True),
            click.option("--structure", "structure_name",
                         type=click.Choice(sorted(STRUCTURES)), default=None),
            click.option("--monad", "monad_name",
                         type=click.Choice(["DW", "T2", "T3"]), default=None),
            click.option("--mode", type=click.Choice(["rewards", "prob"]),
                         default=None)):
        f = option(f)
    return f


@click.group()
def _cli():
    """Two small calculi of choices and rewards, interpreted by globally
    optimizing selection."""


@_cli.command("eval")
@click.option("--semantics", default="selection", show_default=True,
              type=click.Choice(["ordinary", "selection", "denotational"]))
@click.option("--monad", "monad_name",
              type=click.Choice(["W", "DW", "T2", "T3"]), default=None)
@click.option("--gamma", "gamma_arg", default=None,
              help="'zero' or a JSON valuation table file")
@click.option("--oracle", is_flag=True,
              help="use exhaustive strategy search (selection only)")
@click.option("--trace", is_flag=True, help="print each step (ordinary only)")
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--json", "as_json", is_flag=True)
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def eval_cmd(semantics, monad_name, gamma_arg, oracle, trace, mode,
             structure_name, as_json, file):
    """Evaluate FILE under the chosen semantics."""
    if monad_name and semantics != "denotational":
        raise click.UsageError("--monad needs --semantics denotational")
    if gamma_arg and semantics != "denotational":
        raise click.UsageError("--gamma needs --semantics denotational")
    if oracle and semantics != "selection":
        raise click.UsageError("--oracle needs --semantics selection")
    if trace and semantics != "ordinary":
        raise click.UsageError("--trace needs --semantics ordinary")
    prog, _ = _load(file, mode, structure_name)
    config, term = prog.config, prog.term
    mname = _check_monad(monad_name, config)

    if semantics == "ordinary":
        if trace:
            run = trace_eval(term, config)
            try:
                while True:
                    depth, t = next(run)
                    click.echo("  " * depth + pretty(t))
            except StopIteration as finished:
                e = finished.value
        else:
            e = eval_effect(term, config)
        _echo(as_json, {"effect": pretty(e)}, pretty(e))
        return 0

    if semantics == "selection":
        out = select_bruteforce(term, config) if oracle else \
            select_program(term, config)
        _echo(as_json, {"outcome": _outcome_atoms(out, mname)},
              _monad_value_text(out, mname))
        return 0

    gam = _load_gamma(gamma_arg, config)
    u = denote(term, config, make_monad(mname, config.structure))(gam)
    _echo(as_json, {"monad": mname, **_monad_value_json(u, mname)},
          _monad_value_text(u, mname))
    return 0


@_cli.command("canon")
@_decision_options
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def canon_cmd(mode, monad_name, structure_name, as_json, file):
    """Print the canonical form of FILE."""
    prog, _ = _load(file, mode, structure_name)
    mname = _check_monad(monad_name, prog.config, _PROB_ONLY)
    c = weak_canonical_term(canon(prog.term, prog.config, mname), mname)
    _echo(as_json, {"canonical": pretty(c)}, pretty(c))
    return 0


@_cli.command()
@_decision_options
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
def equiv(mode, monad_name, structure_name, as_json, file_a, file_b):
    """Decide whether two programs are observationally equivalent."""
    pa, ta = _load(file_a, mode, structure_name)
    pb, tb = _load(file_b, mode or pa.config.mode, structure_name
                   or pa.config.structure.name)
    if pa.config.mode != pb.config.mode:
        raise click.UsageError("the two programs declare different modes")
    for base in pa.config.bases.keys() & pb.config.bases.keys():
        if pa.config.bases[base] != pb.config.bases[base]:
            raise click.UsageError(
                f"the two programs declare base {base} differently")
    if ta != tb:
        raise SelTypeError(f"type mismatch: {ta} vs {tb}")
    config = pa.config
    m, n = pa.term, pb.term
    mname = _check_monad(monad_name, config, _PROB_ONLY)

    def emit(verdict, lines, extra=None):
        _echo(as_json, {"equivalent": verdict, **(extra or {})},
              "\n".join(lines))
        return {True: 0, False: 1, None: 2}[verdict]

    if config.mode == "rewards":
        ctx, table = distinguish_rewards(m, n, config), None
        if ctx is None:
            return emit(True, ["equivalent"])
        a = select_program(plug(ctx, m), config)
        b = select_program(plug(ctx, n), config)
        left, right = _outcome_atoms(a, mname), _outcome_atoms(b, mname)
    else:
        verdict, table = separate_prob(m, n, config, mname)
        if verdict is True:
            return emit(True, ["equivalent"])
        if verdict is None:
            return emit(None, ["unknown"])
        ctx = Hole()
        if isinstance(ta, Base) and ta.name in config.bases:
            ctx = App(kappa_term(config.constants_of(ta.name), table), ctx)
        a = observe(plug(ctx, m), config, mname)
        b = observe(plug(ctx, n), config, mname)
        left, right = _monad_value_json(a, mname), _monad_value_json(b, mname)
    lines = ["inequivalent", f"context: {pretty(ctx)}"]
    extra = {"context": pretty(ctx)}
    if table is not None:
        lines.append(f"gamma: {_table_str(table)}")
        extra["gamma"] = {k: str(v) for k, v in table.items()}
    lines += [f"context[A]: {_monad_value_text(a, mname)}",
              f"context[B]: {_monad_value_text(b, mname)}"]
    return emit(False, lines, {**extra, "left": left, "right": right})


@_cli.command()
@_decision_options
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def pure(mode, monad_name, structure_name, as_json, file):
    """Decide whether FILE is equivalent to a single value."""
    prog, _ = _load(file, mode, structure_name)
    config, term = prog.config, prog.term
    mname = _check_monad(monad_name, config, _PROB_ONLY)
    if config.mode == "rewards":
        c, witness = decide_pure_rewards(term, config), None
        if c is None:
            try:
                witness = rewards_impurity_witness(term, config)
            except ValueError:
                witness = None
    else:
        res = decide_pure_prob(term, config, mname)
        c, witness = res.constant, res.witness
    if c is not None:
        _echo(as_json, {"pure": True, "value": pretty(c)},
              f"pure: {pretty(c)}")
        return 0
    doc, lines = {"pure": False}, ["impure"]
    if witness is not None:
        doc["witness"] = {k: str(v) for k, v in witness.items()}
        lines.append(f"witness gamma: {_table_str(witness)}")
    _echo(as_json, doc, "\n".join(lines))
    return 1


@_cli.command()
@_decision_options
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def distinguish(ctx, mode, monad_name, structure_name, as_json, file_a, file_b):
    """Exhibit a context separating two programs, when one exists."""
    code = ctx.invoke(equiv, mode=mode, monad_name=monad_name,
                      structure_name=structure_name, as_json=as_json,
                      file_a=file_a, file_b=file_b)
    # a found context is this command's success; equivalence its failure
    return {0: 1, 1: 0}.get(code, code)


@_cli.command()
@click.option("--seed", default=0, type=int)
@click.option("--size", default=40, type=click.IntRange(min=1),
              help="most nodes per program")
@click.option("--type", "type_text", default="Bool")
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default="rewards")
@click.option("--structure", "structure_name",
              type=click.Choice(sorted(STRUCTURES)), default=None)
@click.option("--max-order", default=2, type=int)
@click.option("--count", default=1, type=click.IntRange(min=0))
def gen(seed, size, type_text, mode, structure_name, max_order, count):
    """Emit seeded random programs, one per line."""
    structure = STRUCTURES[structure_name] if structure_name else DEFAULT_STRUCTURE
    cfg = GenConfig(seed=seed, max_term_size=size, max_order=max_order,
                    mode=mode, structure=structure)
    config = cfg.lang()
    target = parse_type(type_text, config)
    if target == REW:
        raise click.UsageError("generation targets value types, not Rew")
    if type_rank(target) > max_order:
        raise click.UsageError(
            f"type {type_text!r} exceeds --max-order {max_order}")
    rng = cfg.rng()
    for _ in range(count):
        click.echo(pretty(gen_program(cfg, target, rng, config)))
    return 0


@_cli.command()
@click.option("--suite", required=True)
@click.option("--mode", type=click.Choice(["rewards", "prob"]), default=None)
@click.option("--monad", "monad_name",
              type=click.Choice(["T1", "DW", "T2", "T3"]), default=None)
@click.option("--seed", default=0, type=int)
@click.option("--cases", default=None, type=int)
@click.option("--jobs", default=None, type=int, help="worker processes")
@click.option("--json", "as_json", is_flag=True)
def check(suite, mode, monad_name, seed, cases, jobs, as_json):
    """Run a property suite and report pass counts."""
    mn = {"T1": "DW"}.get(monad_name, monad_name)
    name = _resolve_suite(suite, mode, mn)
    n = SUITES[name][1] if cases is None else cases
    if n < 0:
        raise click.UsageError("--cases must be nonnegative")
    if n == 0:
        click.echo(f"warning: suite {name} ran no cases", err=True)
        _echo(as_json, {"suite": name, "passed": 0, "total": 0, "ok": True},
              "0/0 OK")
        return 0
    res = run_suite(name, seed, n, mn, jobs)
    _echo(as_json, {"suite": name, "passed": res.passed, "total": res.total,
                    "ok": res.ok, "failures": res.failures},
          f"{res.passed}/{res.total} {'OK' if res.ok else 'FAIL'}")
    if not res.ok:
        for f in res.failures:
            click.echo(f"failure: {f}", err=True)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        code = _cli.main(args=argv, standalone_mode=False)
        return 0 if code is None else int(code)
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show(file=sys.stderr)
        return 3
    except (SelSyntaxError, SelTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as e:
        print(f"error: bad JSON input: {e}", file=sys.stderr)
        return 3
    except (BudgetExceeded, StrategyCapExceeded, StuckTerm) as e:
        print(f"resource or invariant failure: {e}", file=sys.stderr)
        return 4
    except RecursionError:  # README, "Known limits"
        print("resource or invariant failure: term nesting too deep",
              file=sys.stderr)
        return 4
    except (ConditionCUnavailable, NoDistinguishingContext) as e:
        print(f"indeterminate: {e}", file=sys.stderr)
        return 2
    except click.Abort:
        return 3
    except Exception as e:  # pragma: no cover - defensive
        if isinstance(e, ValueError) and "integer string conversion" in str(e):
            print("resource or invariant failure: a number too long to print"
                  f" (over {sys.get_int_max_str_digits()} digits)", file=sys.stderr)
            return 4
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
