"""stagelet: pure staged code generation with let- and letrec-insertion.

Generators are built from code combinators; bindings requested deep inside a
generator float upward as virtual bindings until an enclosing locus turns them
into real let/letrec binders. Everything is effect-free: code values are
deterministic functions of their tree location.

The package exports the user API; the insertion machinery, the build context,
the denotation builders and `Env` are imported from their own modules.
"""

from .base import (
    Add,
    App,
    BaseAst,
    BinOp,
    BoolLit,
    Div,
    Eq,
    Fresh,
    If,
    IntLit,
    Lam,
    Let,
    LetRec,
    Mul,
    Name,
    Source,
    StagingError,
    StepLimitExceeded,
    Sub,
    Succ,
    TypeMismatch,
    UnboundVariable,
    Value,
    VBool,
    VFun,
    VInt,
    Var,
    alpha_eq,
    eval_ast,
    free_vars,
    pretty,
    render_value,
    to_sexp,
)
from .codec import (
    CodeValue,
    cadd,
    capp,
    cbool,
    cdiv,
    ceq,
    cif,
    cint,
    clam,
    clet,
    cmul,
    csub,
    csucc,
    genlet,
    genletrec,
    run,
    show,
    with_locus,
    with_locus_rec,
)
from .examples import ExampleEntry, ExampleKind, apply_ints, lookup, registry
from .insertion import CanonLimitExceeded, Locus, PendingBinding, ResidualBindings

__all__ = [
    "Add", "App", "BaseAst", "BinOp", "BoolLit", "Div", "Eq", "Fresh", "If",
    "IntLit", "Lam", "Let", "LetRec", "Mul", "Name", "Source", "Sub", "Succ",
    "Var", "Value", "VBool", "VFun", "VInt",
    "StagingError", "StepLimitExceeded", "TypeMismatch", "UnboundVariable",
    "ResidualBindings", "CanonLimitExceeded", "PendingBinding",
    "alpha_eq", "eval_ast", "free_vars", "pretty", "render_value", "to_sexp",
    "CodeValue",
    "cint", "cbool", "csucc", "cadd", "csub", "cmul", "cdiv", "ceq",
    "cif", "capp", "clam", "clet",
    "genlet", "with_locus", "genletrec", "with_locus_rec", "Locus",
    "run", "show",
    "ExampleEntry", "ExampleKind", "apply_ints", "lookup", "registry",
]
