"""Schema-based understanding and solving of arithmetic word problems.

Pipeline: lexicon -> parser -> proposition store -> schema instantiation
-> constraint propagation.  See README.md for usage and GRAMMAR.md for
the accepted English.
"""

from .lexicon import load_default_lexicon, load_lexicon_file, load_lexicon_text
from .parser import parse_problem, render_proposition, tokenize
from .pipeline import ProblemResult, render_text_report, result_to_dict, run_problem
from .schema_engine import Strategy
from .solver import Contradiction, Insufficient, Invalid, Solved, propagate

__version__ = "0.1.0"


def __getattr__(name):
    # The corpus loads on its first use, so that a command that solves
    # files does not build its problems.
    if name in ("CORPUS", "CorpusProblem"):
        from . import corpus
        return getattr(corpus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORPUS",
    "CorpusProblem",
    "Contradiction",
    "Insufficient",
    "Invalid",
    "ProblemResult",
    "Solved",
    "Strategy",
    "load_default_lexicon",
    "load_lexicon_file",
    "load_lexicon_text",
    "parse_problem",
    "propagate",
    "render_proposition",
    "render_text_report",
    "result_to_dict",
    "run_problem",
    "tokenize",
]
