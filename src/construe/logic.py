"""CycL-style logical expressions: parsing, printing, substitution,
renaming, simplification and existential closure.

Concrete syntax is parenthesized s-expressions.  Sigils: ``$Name#k`` is a
typed variable, ``?NAME`` a query variable, a ``#$`` prefix on constants is
accepted and stripped, strings are double-quoted, and negation may be
written ``(not ...)`` or with a prefixed negation sign.  A compound whose
head constant starts with an uppercase letter denotes a function term
(non-atomic term); a lowercase head is a predicate application.  ``and``,
``not``, ``exists``, ``Kappa`` and ``TheSetOf`` are structural forms.

``from_sexpr`` reads a form of the ``sexpr`` reader, ``parse_expr`` text,
and ``expr_from_json`` the form that a JSON encoding spells: one grammar,
whose violations raise ``ExprSyntaxError``.  Each read makes its names and
atoms through a ``Names`` table, its own unless the caller shares one.

Depth is a contract: the grammar refuses a term nested deeper than
``MAX_READ_DEPTH`` levels, naming the bound.  Templates and readings nest
at most ``MAX_TERM_DEPTH`` levels, and edges at most
``interpreter.MAX_NESTING`` edges, so no term the engine reads or builds is
deeper, and every term it writes reads back.  The walks that recurse on a
term take at most three stack levels per level of it, so at the bound they
answer alike from any caller less than 400 frames deep.

One walk answers each question about a term.  ``_write`` spells a term
in its JSON encoding, which ``expr_to_json`` returns, ``print_expr``
renders as text and ``canonical_form`` writes with its query variables
renamed in scope.  ``iter_free_vars`` yields its free variables on an
explicit stack, for ``free_vars``, ``free_query_vars`` and ``is_ground``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import is_
from typing import Mapping

from . import sexpr
from .sexpr import SexprError, SexprList, Symbol
from .value import Value


class ExprSyntaxError(SexprError):
    """Text that is not a logic expression.  A ``SexprError``, so that
    ``sexpr.load_forms`` reports it as a syntax finding of its form."""


class Expr(Value):
    """Base class for all expression nodes.  Terms are compared and hashed
    on every path of the engine; each node class's ``__eq__`` and
    ``__hash__`` are compiled from its ``_fields`` when it is made, with
    the code a hand-written pair would have (see ``value``)."""

    __slots__ = ()


class Constant(Expr):
    __slots__ = _fields = ("name",)


class Numeral(Expr):
    __slots__ = _fields = ("value",)


class Text(Expr):
    __slots__ = _fields = ("value",)


class TypedVar(Expr):
    __slots__ = _fields = ("type", "index")


class QueryVar(Expr):
    __slots__ = _fields = ("name",)


class Nat(Expr):
    """Non-atomic term: a function application denoting a concept."""

    __slots__ = _fields = ("functor", "args")


class App(Expr):
    """Predicate application (an atomic sentence)."""

    __slots__ = _fields = ("predicate", "args")


class And(Expr):
    __slots__ = _fields = ("args",)


class Not(Expr):
    __slots__ = _fields = ("arg",)


class Kappa(Expr):
    """Binder forming a predicate from an open sentence."""

    __slots__ = _fields = ("vars", "body")


class TheSetOf(Expr):
    __slots__ = _fields = ("var", "body")


class Exists(Expr):
    __slots__ = _fields = ("vars", "body")


# ``$Type#k``: the one spelling of a typed variable, in logic text and in
# construction templates alike
TYPED_VAR_RE = re.compile(r"\$([A-Za-z][A-Za-z0-9_'-]*)#(\d+)")

EQUALS = Constant("equals")


def is_sentence(e: Expr) -> bool:
    return isinstance(e, (App, And, Not, Exists))


def _binder_vars(node, what: str, names: Names, room: int) -> tuple:
    if not isinstance(node, SexprList):
        raise ExprSyntaxError(f"{what} needs a variable list",
                              getattr(node, "line", 0), getattr(node, "col", 0))
    out = []
    for item in node:
        v = _convert(item, names, room)
        if not isinstance(v, QueryVar):
            raise ExprSyntaxError(f"{what} binds query variables only",
                                  node.line, node.col)
        out.append(v)
    return tuple(out)


class Names:
    """The name table of one read: every name it gives is one string per
    value, and every constant, query variable and typed variable one
    object per value, so what one load reads holds each once (and a
    pickled copy stores each once).  The table lives only as long as this
    object: make one per load, or pass one to several loaders to share
    their atoms, and drop it after."""

    __slots__ = ("_names", "_constants", "_atoms")

    def __init__(self):
        self._names: dict = {}
        self._constants: dict = {}
        self._atoms: dict = {}

    def name(self, text) -> str:
        text = str(text)
        return self._names.setdefault(text, text)

    def constant(self, name) -> Constant:
        name = self.name(name)
        c = self._constants.get(name)
        if c is None:
            c = self._constants[name] = Constant(name)
        return c

    def atom(self, node: Symbol) -> Expr:
        """The constant or variable that *node* denotes."""
        a = self._atoms.get(node)
        if a is None:
            a = self._atoms[str(node)] = _symbol_atom(node, self)
        return a


def _symbol_atom(node: Symbol, names: Names) -> Expr:
    name = str(node)
    if name.startswith("#$"):
        name = name[2:]
        if not name:
            raise ExprSyntaxError("empty constant after #$", node.line, node.col)
        return names.constant(name)
    if name.startswith("?"):
        if len(name) < 2:
            raise ExprSyntaxError("empty query-variable name", node.line, node.col)
        return QueryVar(names.name(name[1:]))
    if name.startswith("$"):
        m = TYPED_VAR_RE.fullmatch(name)
        if not m:
            raise ExprSyntaxError(f"unknown sigil in {name!r} "
                                  "(typed variables are written $Type#k)",
                                  node.line, node.col)
        return TypedVar(names.name(m.group(1)), int(m.group(2)))
    return names.constant(name)


def _convert(node, names: Names, room: int) -> Expr:
    """The expression *node* denotes, which may nest *room* levels."""
    if isinstance(node, Symbol):
        return names.atom(node)
    if isinstance(node, Fraction):
        return Numeral(node)
    if isinstance(node, str):
        return Text(node)
    if isinstance(node, SexprList):
        if not node:
            raise ExprSyntaxError("empty form", node.line, node.col)
        if not room:
            raise ExprSyntaxError(_TOO_DEEP, node.line, node.col)
        room -= 1
        head = node[0]
        if isinstance(head, Symbol):
            h = str(head)
            if h == "and":
                if len(node) < 2:
                    raise ExprSyntaxError("and needs at least one conjunct",
                                          node.line, node.col)
                return And(tuple(_convert(x, names, room) for x in node[1:]))
            if h == "not":
                if len(node) != 2:
                    raise ExprSyntaxError("not takes exactly one argument",
                                          node.line, node.col)
                return Not(_convert(node[1], names, room))
            if h == "exists" or h == "Kappa":
                if len(node) != 3:
                    raise ExprSyntaxError(f"{h} takes a variable list and a body",
                                          node.line, node.col)
                return (Exists if h == "exists" else Kappa)(
                    _binder_vars(node[1], h, names, room),
                    _convert(node[2], names, room))
            if h == "TheSetOf":
                if len(node) != 3:
                    raise ExprSyntaxError("TheSetOf takes one variable and a body",
                                          node.line, node.col)
                var = _convert(node[1], names, room)
                if not isinstance(var, QueryVar):
                    raise ExprSyntaxError("TheSetOf binds a query variable",
                                          node.line, node.col)
                return TheSetOf(var, _convert(node[2], names, room))
        head_expr = _convert(head, names, room)
        args = tuple(_convert(x, names, room) for x in node[1:])
        if isinstance(head_expr, Constant):
            if head_expr.name[0].isupper():
                return Nat(head_expr, args)
            return App(head_expr, args)
        if isinstance(head_expr, Nat):
            return App(head_expr, args)
        raise ExprSyntaxError("application head must be a constant or function term",
                              node.line, node.col)
    raise ExprSyntaxError(f"cannot interpret {node!r}")


def from_sexpr(node, names: Names | None = None) -> Expr:
    """The expression that the read form *node* denotes, its names and
    atoms made by *names* (a new table when none is given)."""
    return _convert(node, Names() if names is None else names, MAX_READ_DEPTH)


def parse_expr(text: str) -> Expr:
    try:
        node = sexpr.parse_one(text)
    except SexprError as err:
        raise ExprSyntaxError(err.message, err.line, err.col) from err
    return _convert(node, Names(), MAX_READ_DEPTH)


_BINDER_HEADS = {Kappa: "Kappa", Exists: "exists", TheSetOf: "TheSetOf"}


class _Renamer(dict):
    """Query variable -> canonical spelling ``?v<n>``, numbered from one
    counter where the writer first meets it: a free variable at its first
    occurrence, a bound one when the writer enters its binder."""

    count = 0

    def __missing__(self, v: QueryVar) -> str:
        self[v] = spelled = f"?v{self.count}"
        self.count += 1
        return spelled


def _write(e: Expr, names: _Renamer | None):
    """The JSON encoding of *e*: a constant is a string, a numeral a
    number (a "p/q" string when not integral), text ``{"text": ...}``, a
    compound an array headed by its operator.  *names* spells the query
    variables, or each is spelled by its own name when it is None."""
    cls = e.__class__
    if cls is App or cls is Nat:
        return [_write(e.predicate if cls is App else e.functor, names),
                *[_write(a, names) for a in e.args]]
    if cls is Constant:
        return e.name
    if cls is QueryVar:
        return f"?{e.name}" if names is None else names[e]
    if cls is TypedVar:
        return f"${e.type}#{e.index}"
    if cls is And:
        return ["and", *[_write(a, names) for a in e.args]]
    if cls is Not:
        return ["not", _write(e.arg, names)]
    if cls is Numeral:
        return int(e.value) if e.value.denominator == 1 else str(e.value)
    if cls is Text:
        return {"text": e.value}
    if cls in _BINDER_HEADS:
        bvars = (e.var,) if cls is TheSetOf else e.vars
        # its variables get new numbers inside it, their old ones after
        outer = {} if names is None else \
            {v: names.pop(v) for v in bvars if v in names}
        spelled = [_write(v, names) for v in bvars]
        body = _write(e.body, names)
        if names is not None:
            for v in bvars:
                names.pop(v, None)
            names.update(outer)
        return [_BINDER_HEADS[cls], spelled[0] if cls is TheSetOf else spelled,
                body]
    raise TypeError(f"not an expression: {e!r}")


def _render(obj) -> str:
    """The text of a JSON encoding: a string as it is, an integer in
    decimal, ``{"text": s}`` quoted, an array in parentheses."""
    cls = obj.__class__
    if cls is str:
        return obj
    if cls is list:
        return f"({' '.join(map(_render, obj))})"
    if cls is int:
        return str(obj)
    return sexpr.quote(obj["text"])


def expr_to_json(e: Expr):
    return _write(e, None)


def print_expr(e: Expr) -> str:
    return _render(_write(e, None))


def canonical_form(e: Expr) -> str:
    """*e* printed with its query variables renamed by first occurrence,
    respecting binder scopes.  Two expressions are alpha-equivalent iff
    their canonical forms coincide."""
    return _render(_write(e, _Renamer()))


def equal_modulo_renaming(a: Expr, b: Expr) -> bool:
    return canonical_form(a) == canonical_form(b)


def children(e: Expr) -> tuple:
    """The immediate parts of *e*: a binder's body, not its variables."""
    if isinstance(e, Nat):
        return (e.functor, *e.args)
    if isinstance(e, App):
        return (e.predicate, *e.args)
    if isinstance(e, And):
        return e.args
    if isinstance(e, Not):
        return (e.arg,)
    if isinstance(e, (Kappa, TheSetOf, Exists)):
        return (e.body,)
    return ()


# How deeply a construction's logic and tests, and a lexicon reading, may
# nest.  The bundled resources nest at most 5 deep.
MAX_TERM_DEPTH = 5
# How deeply any term read may nest: above the (interpreter.MAX_NESTING +
# 1) * MAX_TERM_DEPTH = 165 levels of composed logic, and low enough that
# an equality test, three stack levels a level under Python 3.10 and 3.11,
# fits under a caller 400 frames deep.
MAX_READ_DEPTH = 180
_TOO_DEEP = f"term nests deeper than {MAX_READ_DEPTH} levels"


def term_depth(e: Expr) -> int:
    """0 for an atom, else 1 + the depth of the deepest part of *e*."""
    deepest, stack = 0, [(e, 0)]
    while stack:
        x, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((p, depth + 1) for p in children(x))
    return deepest


def iter_free_vars(e: Expr):
    """Each free occurrence of a variable in *e*: query variables no
    binder captures, and every typed variable (template holes are never
    bound).  An explicit stack, so a term of any depth is walked, and a
    caller that stops early walks no further."""
    stack = [(e, frozenset())]
    while stack:
        x, bound = stack.pop()
        cls = x.__class__
        if cls is Constant or cls is Numeral or cls is Text:
            continue
        if cls is QueryVar:
            if x not in bound:
                yield x
        elif cls is TypedVar:
            yield x
        elif cls is Kappa or cls is Exists:
            stack.append((x.body, bound.union(x.vars)))
        elif cls is TheSetOf:
            stack.append((x.body, bound | {x.var}))
        else:
            stack.extend([(part, bound) for part in children(x)])


def free_vars(e: Expr) -> set:
    return set(iter_free_vars(e))


def free_query_vars(e: Expr) -> set:
    return {v for v in iter_free_vars(e) if v.__class__ is QueryVar}


def is_ground(e: Expr) -> bool:
    return next(iter_free_vars(e), None) is None


def _subst_binder(e, binding, make):
    bvars = e.vars if not isinstance(e, TheSetOf) else (e.var,)
    live = {k: v for k, v in binding.items() if k not in bvars}
    if not live:
        return e
    # a binding none of whose variables is free in the body changes nothing
    free = free_vars(e.body)
    live = {k: v for k, v in live.items() if k in free}
    if not live:
        return e
    # rename bound variables that would capture a free variable of a
    # replacement term; fresh names must also avoid everything already
    # free in the body
    incoming = {x.name for v in live.values() for x in free_query_vars(v)}
    taken = incoming | {x.name for x in (*bvars, *free) if x.__class__ is QueryVar}
    renames = {}
    for b in bvars:
        if b.name in incoming:
            name = b.name
            while name in taken:
                name += "'"
            renames[b] = QueryVar(name)
            taken.add(name)
    body = e.body
    if renames:
        body = substitute(body, renames)
        bvars = tuple(renames.get(b, b) for b in bvars)
    new_body = substitute(body, live)
    if new_body is e.body:
        return e
    return make(bvars, new_body)


def substitute(e: Expr, binding: Mapping[Expr, Expr]) -> Expr:
    """Replace free occurrences of bound variables; capture-avoiding.  A
    subterm in which nothing is replaced comes back itself, so a subterm
    shared before is shared after."""
    if not binding:
        return e
    cls = e.__class__
    if cls is QueryVar or cls is TypedVar:
        return binding.get(e, e)
    if cls is Constant or cls is Numeral or cls is Text:
        return e
    if cls is Nat or cls is App:
        head = e.functor if cls is Nat else e.predicate
        new_head = substitute(head, binding)
        args = tuple([substitute(a, binding) for a in e.args])
        if new_head is head and _same(args, e.args):
            return e
        return cls(new_head, args)
    if cls is And:
        args = tuple([substitute(a, binding) for a in e.args])
        return e if _same(args, e.args) else And(args)
    if cls is Not:
        arg = substitute(e.arg, binding)
        return e if arg is e.arg else Not(arg)
    if cls is Kappa:
        return _subst_binder(e, binding, lambda vs, b: Kappa(vs, b))
    if cls is TheSetOf:
        return _subst_binder(e, binding, lambda vs, b: TheSetOf(vs[0], b))
    if cls is Exists:
        return _subst_binder(e, binding, lambda vs, b: Exists(vs, b))
    raise TypeError(f"not an expression: {e!r}")


def rename_query_vars(e: Expr, suffix: int) -> Expr:
    """Append ``_suffix`` to every free query variable. Injective on names;
    bound variables are left alone."""
    mapping = {v: QueryVar(f"{v.name}_{suffix}") for v in free_query_vars(e)}
    return substitute(e, mapping)


def _is_equals(e: Expr) -> bool:
    return (isinstance(e, App) and e.predicate == EQUALS and len(e.args) == 2)


def _same(new, old) -> bool:
    """*new* holds the very objects of *old*, in order."""
    return len(new) == len(old) and all(map(is_, new, old))


def _structural(e: Expr) -> Expr:
    """Flatten nested conjunctions, drop duplicate conjuncts, collapse
    single-conjunct ``and`` nodes.  Applied recursively.  A node whose
    parts all come back unchanged comes back itself, so a subterm shared
    before is shared after."""
    cls = e.__class__
    if cls is And:
        flat = []
        for a in e.args:
            a = _structural(a)
            if isinstance(a, And):
                flat.extend(a.args)
            else:
                flat.append(a)
        seen, out = set(), []
        for a in flat:
            if a not in seen:
                seen.add(a)
                out.append(a)
        if len(out) == 1:
            return out[0]
        return e if _same(out, e.args) else And(tuple(out))
    if cls is Not:
        arg = _structural(e.arg)
        return e if arg is e.arg else Not(arg)
    if cls is Nat or cls is App:
        args = tuple([_structural(a) for a in e.args])
        if _same(args, e.args):
            return e
        return Nat(e.functor, args) if cls is Nat else App(e.predicate, args)
    if cls is Kappa or cls is TheSetOf or cls is Exists:
        body = _structural(e.body)
        if body is e.body:
            return e
        if cls is TheSetOf:
            return TheSetOf(e.var, body)
        return cls(e.vars, body)
    return e


def _eliminate_equals(e: Expr):
    """Find a top-level ``(equals ?V t)`` conjunct whose variable can be
    replaced by *t*; return the rewritten conjunction or None."""
    if not isinstance(e, And):
        return None
    for i, conj in enumerate(e.args):
        if not _is_equals(conj):
            continue
        lhs, rhs = conj.args
        var, term = None, None
        if isinstance(lhs, QueryVar) and isinstance(rhs, QueryVar):
            if lhs == rhs:
                rest = e.args[:i] + e.args[i + 1:]
                return And(rest) if rest else None
            # keep the lexicographically smaller name
            var, term = (lhs, rhs) if rhs.name < lhs.name else (rhs, lhs)
        elif isinstance(lhs, QueryVar) and is_ground(rhs):
            var, term = lhs, rhs
        elif isinstance(rhs, QueryVar) and is_ground(lhs):
            var, term = rhs, lhs
        if var is None:
            continue
        rest = e.args[:i] + e.args[i + 1:]
        if not rest:
            continue  # nothing would remain; keep the bare equality
        return And(tuple(substitute(c, {var: term}) for c in rest))
    return None


def simplify(e: Expr) -> Expr:
    """Substitute terms for variables they equal and clean up redundant
    conjunctive structure.  The result is a fixed point: ``_structural``
    is idempotent, so it runs once per eliminated equality."""
    e = _structural(e)
    while (reduced := _eliminate_equals(e)) is not None:
        e = _structural(reduced)
    return e


def quantify_existential(e: Expr) -> Expr:
    """Existentially close the free query variables of *e*."""
    fv = sorted(free_query_vars(e), key=lambda v: v.name)
    if not fv:
        return e
    return Exists(tuple(fv), e)


def conjunct_count(e: Expr) -> int:
    return len(e.args) if isinstance(e, And) else 1


def _json_form(obj, room: int):
    """The read form that the JSON encoding *obj* spells: an array is a
    list, a string the atom that ``sexpr.atom`` reads from it,
    ``{"text": s}`` the string *s*, and a number its value.  Arrays may
    nest *room* levels."""
    if isinstance(obj, list):
        if not room:
            raise ExprSyntaxError(_TOO_DEEP)
        return SexprList([_json_form(x, room - 1) for x in obj])
    if isinstance(obj, str):
        try:
            return sexpr.atom(obj)
        except SexprError as err:
            raise ExprSyntaxError(err.message) from None
    if isinstance(obj, dict) and obj.keys() == {"text"} \
            and isinstance(obj["text"], str):
        return obj["text"]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return Fraction(obj).limit_denominator(10**12)
    raise ExprSyntaxError(f"no expression is encoded as {obj!r}")


def expr_from_json(obj) -> Expr:
    """The expression that *obj* encodes, read from the form it spells as
    ``from_sexpr`` reads it."""
    return _convert(_json_form(obj, MAX_READ_DEPTH), Names(), MAX_READ_DEPTH)
