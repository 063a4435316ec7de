"""Two small calculi of choices and rewards -- one deterministic, one
probabilistic -- whose programs run by globally optimizing the total
(expected) reward.  The denotational side interprets programs in a selection
monad parametric in an auxiliary monad; equational tools canonicalize,
compare, and separate programs.  All arithmetic is exact.
"""

from .rewards import (
    ConditionCUnavailable, DEFAULT_STRUCTURE, RewardStructure, STRUCTURES,
    parse_reward,
)
from .syntax import (
    App, Arrow, BOOL, Base, Const, FF, FnApp, Fst, Hole, If, Lam, LangConfig,
    Or, PChoice, Pair, Prod, Program, REW, Rew, RewConst, SelSyntaxError,
    SelTypeError, Snd, Star, TT, Term, Type, UNIT, Var, alpha_eq,
    is_effect_value, is_value, parse_program, plug, pretty, replace_at,
    subterm_at, type_rank, typecheck,
)
from .operational import (
    BudgetExceeded, DEFAULT_BUDGET, StuckTerm, eval_effect, trace_eval,
)
from .strategies import (
    StrategyCapExceeded, argmax, max_by, select_bruteforce, select_fast,
    select_program,
)
from .monads import (
    Dist, MRVal, atom_key, cond_reward, expect0, k_gamma, make_monad,
    mr_of_effect, mrval, t2val, theta, vdis,
)
from .selection import (
    ConstElem, FnElem, PairElem, RewElem, UnitElem, agree_at, denote,
    embed_outcome, gamma_from_table, kappa_term, observe, zero_gamma,
)
from .equations import (
    AXIOMS, NoMatch, PurityResult, apply_axiom, canon_equal, canon_rewards,
    canonical_term, decide_equiv_prob, decide_equiv_rewards, decide_pure_prob,
    decide_pure_rewards, distinguish_rewards, rewards_impurity_witness,
    weak_canon_prob, weak_canonical_term,
)
from .testgen import (
    FIG3_AXIOMS, FIG4_AXIOMS, GenConfig, default_gammas, gamma_tables,
    gen_axiom_instance, gen_effect_value, gen_equivalent_pair, gen_kleisli,
    gen_monad_value, gen_program, gen_tie_effect, or_swap,
)
from .properties import run_suite, suites

__version__ = "0.1.0"


def __getattr__(name):
    # The command line (and click with it) loads on first use, so importing
    # the package stays light and ``python -m selcalc.cli`` finds no stale
    # copy of the module in sys.modules.
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
