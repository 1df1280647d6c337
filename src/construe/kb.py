"""Miniature knowledge base: taxonomy queries over isa/genls links,
ground-fact lookup with subsumption, function result typing, and the
argument/inter-argument/disjointness constraint machinery used by semantic
tests and plausibility checks.

The KB file format is an s-expression file.  Top-level forms:

    (isa specific general)
    (genls specific general)
    (fact CTX (pred arg ...))
    (fn Functor ARITY (resultIsa C) | (resultGenls C) | (resultGenlsArg n))
    (argIsa pred-or-functor N C)
    (argGenls pred-or-functor N C)
    (interArgGenls pred N1 C1 N2 C2)
    (disjoint C1 C2)
    (individual t)
    (collection t)

Comments start with ';'.  A number is typed by the KB alone, as an
instance of its own collection (``numeral_type_name``) and of every
collection above it, and specializes none.  Queries ask the taxonomy one
way, ``known`` and then membership in a closure; only ``subsumes`` and
``generalizations`` raise ``UnknownTermError``.  A KB is observably
immutable once loaded: ``genls_closure``, ``isa_closure``,
``match_types`` (behind ``numeral_instance_types``), ``lexical_reading``
and ``filler_types`` fill idempotent memos, which no query's result
depends on.  A memo stores only a finished value and never mutates an
entry, so a thread reads a whole answer or none, and every query is safe
for concurrent use.  The last two hold
what the interpreter asks of every lexical edge and every edge it files,
once per reading and per (type, slot-type set).  The closures keep no
function term the KB does not link, as inputs compose them, so no memo
grows with the number of inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import sexpr
from .logic import (App, And, Constant, Exists, Expr, ExprSyntaxError, Kappa,
                    Nat, Not, Names, Numeral, Text, TheSetOf, TypedVar,
                    QueryVar, children, from_sexpr, is_ground, is_sentence,
                    print_expr)
from .sexpr import Finding, FormError
from .value import Value

TermLike = (Constant, Nat)


class UnknownTermError(Exception):
    pass


class UntypedTermError(Exception):
    pass


class FunctionSignature(Value):
    """*rule_kind* is resultIsa, resultGenls or resultGenlsArg; *rule_value*
    is a collection name, or a 1-based argument index."""

    __slots__ = _fields = ("functor", "arity", "rule_kind", "rule_value")


class ArgConstraint(Value):
    """*kind* is argIsa or argGenls."""

    __slots__ = _fields = ("owner", "position", "kind", "required")


class InterArgConstraint(Value):
    __slots__ = _fields = ("owner", "if_position", "if_type", "then_position",
                           "then_type")


class ContextStack(Value):
    """Base assertion context plus an optional application overlay that
    inherits everything in the base."""

    __slots__ = _fields = ("base", "overlay")
    _defaults = {"base": "base", "overlay": None}

    def stack(self) -> tuple:
        return (self.overlay, self.base) if self.overlay else (self.base,)


DEFAULT_CONTEXT = ContextStack()

_ISA = Constant("isa")
_GENLS = Constant("genls")
_EQUALS = Constant("equals")


class Violation(Value):
    """*kind* is structural, arg-isa, arg-genls, instance-vs-specialization,
    inter-arg or known-false."""

    __slots__ = _fields = ("kind", "path", "message")


def _is_term(e: Expr) -> bool:
    return isinstance(e, TermLike)


def _symbols(*items) -> bool:
    """Every item is a symbol, as every name field must be."""
    return all(isinstance(i, sexpr.Symbol) for i in items)


def _is_integer(item) -> bool:
    """An integer numeral: a ratio such as 3/2 is not an arity or a
    position."""
    return isinstance(item, Fraction) and item.denominator == 1


def constant_name(node: sexpr.Symbol, names: Names,
                  code: str = "kb-form") -> str:
    """The name of the constant that the name-field symbol *node* denotes
    as a term field (``#$Foo`` is ``Foo``).  A symbol that is no constant
    (``#$``, ``?x``, ``$T#1``) is rejected as a *code* finding."""
    try:
        atom = names.atom(node)
    except ExprSyntaxError as err:
        raise FormError(code, err.message) from None
    if atom.__class__ is not Constant:
        raise FormError(code, f"{node} is a variable, not a constant name")
    return atom.name


class KnowledgeBase:
    def __init__(self):
        # constant name -> 'individual' or 'collection' (the kind of a name
        # not in it); fixed at load by ``_Loader.validate``
        self._kinds: dict[str, str] = {}
        self._terms: set[str] = set()
        self._isa: dict[Expr, list] = {}
        self._genls: dict[Expr, list] = {}
        self._facts: dict[str, list] = {}
        self._signatures: dict[str, FunctionSignature] = {}
        self._arg_constraints: dict[str, list] = {}
        self._inter_arg: dict[str, list] = {}
        self._disjoint: set[frozenset] = set()
        self._genls_memo: dict[Expr, frozenset] = {}
        self._isa_memo: dict[Expr, frozenset] = {}
        self._match_memo: dict[Expr, frozenset] = {}
        # function-term reading, or a number's collection name -> its
        # ``lexical_reading``
        self._reading_memo: dict = {}
        # (type, slot-type set) -> ``filler_types``
        self._filler_memo: dict[tuple, tuple] = {}

    # -- introspection -----------------------------------------------------

    @property
    def term_names(self) -> frozenset:
        return frozenset(self._terms)

    @property
    def disjoint_pairs(self) -> frozenset:
        return frozenset(self._disjoint)

    def known(self, t: Expr) -> bool:
        if isinstance(t, Constant):
            return t.name in self._terms
        if isinstance(t, Nat):
            if not isinstance(t.functor, Constant):
                return False
            declared = (t.functor.name in self._signatures
                        or t in self._isa or t in self._genls)
            return declared and all(
                self.known(a) or isinstance(a, (Numeral, Text)) for a in t.args)
        return False

    def _require_known(self, t: Expr):
        if not self.known(t):
            raise UnknownTermError(f"unknown term: {print_expr(t)}")

    def kindedness(self, t: Expr) -> str:
        """'individual' or 'collection'; declarations win over inference."""
        if isinstance(t, Constant):
            return self._kinds.get(t.name, "collection")
        if isinstance(t, Nat):
            if t in self._genls:
                return "collection"
            if t in self._isa:
                return "individual"
            sig = self._signatures.get(t.functor.name) if isinstance(t.functor, Constant) else None
            if sig and sig.rule_kind == "resultIsa":
                return "individual"
            return "collection"
        return "individual"

    def edge_kind(self, logic: Expr) -> str:
        """'sentential', 'instance' or 'collection': the kind of an
        interpretation whose logic is *logic*."""
        if is_sentence(logic):
            return "sentential"
        if isinstance(logic, (Numeral, Text)):
            return "instance"
        if isinstance(logic, TermLike):
            return "instance" if self.kindedness(logic) == "individual" \
                else "collection"
        return "collection"

    def lexical_reading(self, concept: Expr) -> tuple:
        """(output type, edge kind, violations) of a concept the lexicon
        offers: its type (for a number, its own collection), its
        ``edge_kind`` and what ``check_plausibility`` finds in it.  The
        plausibility walk has nothing to check in a constant, and a
        number's answer depends only on its collection, so the memo holds
        one entry per other reading and per numeral collection."""
        cls = concept.__class__
        if cls is Constant:
            return (concept, "instance" if self._kinds.get(concept.name)
                    == "individual" else "collection", ())
        key = self.numeral_type_name(concept.value) if cls is Numeral \
            else concept
        cached = self._reading_memo.get(key)
        if cached is None:
            cached = self._reading_memo[key] = (
                (Constant(key), "instance", ()) if cls is Numeral else
                (concept, self.edge_kind(concept),
                 tuple(self.check_plausibility(concept))))
        return cached

    def filler_types(self, t: Expr, used: frozenset) -> tuple:
        """The names of the collections in *used* that ``match_types(t)``
        holds, sorted: which of a repository's slot types (*used*) an
        interpretation of type *t* can fill."""
        key = (t, used)
        cached = self._filler_memo.get(key)
        if cached is None:
            cached = self._filler_memo[key] = tuple(sorted(
                g.name for g in self.match_types(t) & used))
        return cached

    # -- taxonomy ----------------------------------------------------------

    def _has_explicit_links(self, t: Expr) -> bool:
        return t in self._isa or t in self._genls

    def _composed(self, t: Expr) -> bool:
        """Whether *t* is a function term the KB does not link, as inputs
        compose them: no memo keeps an answer for one, so the memos do
        not grow with the inputs."""
        return t.__class__ is Nat and not self._has_explicit_links(t)

    def _virtual_parents(self, t: Expr, kinds: tuple) -> list:
        """Signature-derived links for a NAT with no explicit links."""
        if not isinstance(t, Nat) or self._has_explicit_links(t):
            return []
        sig = self._signatures.get(t.functor.name) if isinstance(t.functor, Constant) else None
        if sig is None or sig.rule_kind not in kinds:
            return []
        if sig.rule_kind in ("resultIsa", "resultGenls"):
            return [Constant(sig.rule_value)]
        idx = sig.rule_value - 1
        if idx < len(t.args) and _is_term(t.args[idx]):
            return [t.args[idx]]
        return []

    def genls_parents(self, t: Expr) -> list:
        out = list(self._genls.get(t, ()))
        out.extend(self._virtual_parents(t, ("resultGenls", "resultGenlsArg")))
        return out

    def isa_parents(self, t: Expr) -> list:
        out = list(self._isa.get(t, ()))
        out.extend(self._virtual_parents(t, ("resultIsa",)))
        return out

    def _closure(self, t: Expr, parents) -> frozenset:
        """*t* and every term reached from it by *parents* links."""
        seen: set = set()
        stack = [t]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(parents(x))
        return frozenset(seen)

    def genls_closure(self, t: Expr) -> frozenset:
        """Reflexive-transitive closure over genls links only.  A composed
        term's is its parents' closures with itself."""
        if self._composed(t):
            return frozenset((t,)).union(
                *map(self.genls_closure, self.genls_parents(t)))
        cached = self._genls_memo.get(t)
        if cached is None:
            cached = self._genls_memo[t] = self._closure(t, self.genls_parents)
        return cached

    def isa_closure(self, t: Expr) -> frozenset:
        """Every collection *t* is an instance of: one isa hop, then the
        genls closure."""
        cached = self._isa_memo.get(t)
        if cached is None:
            cached = frozenset().union(
                *map(self.genls_closure, self.isa_parents(t)))
            if not self._composed(t):
                self._isa_memo[t] = cached
        return cached

    def generalizations(self, t: Expr) -> frozenset:
        """Reflexive-transitive upward closure over both isa and genls."""
        self._require_known(t)
        return self._closure(
            t, lambda x: self.genls_parents(x) + self.isa_parents(x))

    def subsumes(self, general: Expr, specific: Expr, mode: str = "auto") -> bool:
        """True when *general* covers *specific*.  genls mode asks for a
        specialization; isa mode for an instance (one isa hop, then genls
        closure); auto picks by what *specific* is declared to be, which
        is ``match_types``."""
        self._require_known(general)
        self._require_known(specific)
        if mode == "auto":
            return general in self.match_types(specific)
        if mode == "genls":
            return general in self.genls_closure(specific)
        if mode == "isa":
            return general in self.isa_closure(specific)
        raise ValueError(f"bad subsumption mode: {mode}")

    def match_types(self, t: Expr) -> frozenset:
        """Exactly the terms g with subsumes(g, t, auto): the candidate
        slot types an interpretation of type *t* can fill, and none when
        the KB does not know *t*."""
        cached = self._match_memo.get(t)
        if cached is None:
            if not self.known(t):
                return frozenset()
            cached = (self.genls_closure(t) if self.kindedness(t)
                      == "collection" else self.isa_closure(t))
            if not self._composed(t):
                self._match_memo[t] = cached
        return cached

    # -- numerals ----------------------------------------------------------

    def numeral_type_name(self, value: Fraction) -> str:
        if value.denominator == 1:
            return "PositiveInteger" if value > 0 else "Integer"
        return "RationalNumber"

    def numeral_instance_types(self, value: Fraction) -> frozenset:
        """The collections a number is an instance of: ``match_types`` of
        its own collection, the type of its seed edge, or none where the
        KB does not know that collection."""
        return self.match_types(Constant(self.numeral_type_name(value)))

    # -- facts -------------------------------------------------------------

    def _arg_match(self, fact_arg: Expr, query_arg: Expr) -> bool:
        if fact_arg == query_arg:
            return True
        if isinstance(query_arg, Numeral):
            return isinstance(fact_arg, Constant) and \
                fact_arg in self.numeral_instance_types(query_arg.value)
        return self.known(fact_arg) and fact_arg in self.match_types(query_arg)

    def holds(self, atom: Expr, ctx: ContextStack = DEFAULT_CONTEXT) -> bool:
        """Evaluate a ground test expression.  Conjunctions go atom by
        atom; a negated atom holds iff its atom does not (negation as
        failure); isa/genls atoms consult the taxonomy; everything else is
        matched against asserted facts with per-argument subsumption."""
        if isinstance(atom, And):
            return all(self.holds(a, ctx) for a in atom.args)
        if isinstance(atom, Not):
            return not self.holds(atom.arg, ctx)
        if not isinstance(atom, App):
            return False
        pred, args = atom.predicate, atom.args
        if pred == _EQUALS and len(args) == 2:
            return args[0] == args[1]
        if pred in (_ISA, _GENLS) and len(args) == 2:
            specific, general = args
            if isinstance(specific, Numeral):
                # a number is an instance of its types, and specializes none
                return pred == _ISA and isinstance(general, Constant) and \
                    general in self.numeral_instance_types(specific.value)
            closure = self.isa_closure if pred == _ISA else self.genls_closure
            return self.known(general) and self.known(specific) \
                and general in closure(specific)
        key = print_expr(pred)
        contexts = ctx.stack()
        for fctx, fargs in self._facts.get(key, ()):
            if fctx not in contexts or len(fargs) != len(args):
                continue
            if all(self._arg_match(fa, qa) for fa, qa in zip(fargs, args)):
                return True
        return False

    # -- result typing -----------------------------------------------------

    def result_type(self, t: Nat) -> Expr:
        """Type of the concept a function term denotes, per the functor's
        declared result rule."""
        if not isinstance(t.functor, Constant):
            raise UntypedTermError(f"non-constant functor: {print_expr(t)}")
        sig = self._signatures.get(t.functor.name)
        if sig is None:
            raise UntypedTermError(f"no function signature for {t.functor.name}")
        if sig.rule_kind in ("resultIsa", "resultGenls"):
            return Constant(sig.rule_value)
        idx = sig.rule_value - 1
        if idx >= len(t.args):
            raise UntypedTermError(
                f"{t.functor.name} result rule points past its arguments")
        arg = t.args[idx]
        if _is_term(arg):
            return arg
        if isinstance(arg, Numeral):
            return Constant(self.numeral_type_name(arg.value))
        if isinstance(arg, TypedVar):
            return Constant(arg.type)
        raise UntypedTermError(f"argument {sig.rule_value} of {print_expr(t)} "
                               "has no interpreted type")

    # -- plausibility ------------------------------------------------------

    def disjoint_known(self, a: Expr, b: Expr) -> bool:
        if not (self.known(a) and self.known(b)):
            return False
        ca, cb = self.genls_closure(a), self.genls_closure(b)
        for pair in self._disjoint:
            x, y = tuple(pair)
            if (x in ca and y in cb) or (y in ca and x in cb):
                return True
        return False

    def _check_owner_args(self, owner: str, args: tuple, path: tuple, out: list):
        for c in self._arg_constraints.get(owner, ()):
            if c.position > len(args):
                out.append(Violation("structural", path,
                                     f"{owner} needs at least {c.position} arguments"))
                continue
            arg = args[c.position - 1]
            isa = c.kind == "argIsa"
            apath = path + (c.position,)
            if isinstance(arg, Numeral):
                # a number is an instance of its types, and specializes none
                if isa and c.required in self.numeral_instance_types(arg.value):
                    continue
                got = f"the number {arg.value}"
            elif not _is_term(arg):
                if is_ground(arg):
                    out.append(Violation("structural", apath, f"argument "
                                         f"{c.position} of {owner} is not a term"))
                continue
            # a known term is ground, and the loader registered every
            # constraint type, so the test is membership in one closure
            elif not self.known(arg) or c.required in (
                    self.isa_closure if isa else self.genls_closure)(arg):
                continue
            else:
                got = print_expr(arg)
            if not isa and _is_term(arg) and c.required in self.isa_closure(arg):
                out.append(Violation(
                    "instance-vs-specialization", apath,
                    f"argument {c.position} of {owner} must be a specialization "
                    f"of {c.required.name}; {got} is an instance of it"))
            else:
                out.append(Violation(
                    "arg-isa" if isa else "arg-genls", apath,
                    f"argument {c.position} of {owner} must be "
                    f"{'an instance' if isa else 'a specialization'} "
                    f"of {c.required.name}, got {got}"))
        for c in self._inter_arg.get(owner, ()):
            if c.if_position > len(args) or c.then_position > len(args):
                out.append(Violation("structural", path,
                                     f"{owner} is missing arguments required by an "
                                     "inter-argument constraint"))
                continue
            if_arg = args[c.if_position - 1]
            then_arg = args[c.then_position - 1]
            if not (self.known(if_arg) and is_ground(then_arg)
                    and c.if_type in self.genls_closure(if_arg)):
                continue
            if self.known(then_arg) and c.then_type in self.genls_closure(then_arg):
                continue
            out.append(Violation(
                "inter-arg", path + (c.then_position,),
                f"{owner}: argument {c.if_position} specializes {c.if_type.name}, "
                f"so argument {c.then_position} must specialize {c.then_type.name}; "
                f"got {print_expr(then_arg)}"))

    def _walk_plausibility(self, e: Expr, path: tuple, positive: bool,
                           out: list, skip: set):
        if isinstance(e, (Constant, Numeral, Text, TypedVar, QueryVar)) \
                or positive and id(e) in skip:
            return
        if isinstance(e, And):
            for i, a in enumerate(e.args):
                if isinstance(a, (Numeral, Text)):
                    out.append(Violation("structural", path + (i,),
                                         "conjunct is not a sentence"))
                    continue
                self._walk_plausibility(a, path + (i,), positive, out, skip)
            return
        if isinstance(e, Not):
            self._walk_plausibility(e.arg, path + (0,), not positive, out,
                                    skip)
            return
        if isinstance(e, (Kappa, TheSetOf, Exists)):
            self._walk_plausibility(e.body, path + (0,), positive, out, skip)
            return
        if isinstance(e, (App, Nat)):
            app = isinstance(e, App)
            head, args = e.predicate if app else e.functor, e.args
            if isinstance(head, Constant):
                sig = None if app else self._signatures.get(head.name)
                if sig is not None and sig.arity != len(args):
                    out.append(Violation("structural", path,
                                         f"{head.name} takes {sig.arity} "
                                         f"arguments, got {len(args)}"))
                if app and positive and len(args) == 2 and (
                        head == _GENLS and self.disjoint_known(*args)
                        or head == _ISA and self.known(args[0])
                        and any(self.disjoint_known(p, args[1])
                                for p in self.isa_parents(args[0]))):
                    out.append(Violation("known-false", path,
                                         f"{print_expr(e)} contradicts a "
                                         "disjointness declaration"))
                self._check_owner_args(head.name, args, path, out)
            elif app and isinstance(head, Nat):
                self._walk_plausibility(head, path + (0,), positive, out, skip)
            else:
                out.append(Violation("structural", path + (0,),
                                     "predicate must be a constant or function term"
                                     if app else "function term head must be a constant"))
            for i, a in enumerate(args, start=1):
                self._walk_plausibility(a, path + (i,), positive, out, skip)
            return
        out.append(Violation("structural", path, f"unexpected node {e!r}"))

    def check_plausibility(self, e: Expr, passed: Iterable = ()) -> list:
        """Collect every constraint violation in *e*.  An empty list means
        the expression is plausible.

        *passed* holds terms that were checked whole and found plausible,
        such as the children a composition puts into *e*.  What the walk
        finds in a subterm depends only on the subterm and its polarity, so
        it skips a subterm that is one of them (by identity) where it meets
        it at positive polarity.  At negative polarity, under a ``not``, the
        checks differ, and the subterm is walked."""
        out: list = []
        self._walk_plausibility(e, (), True, out, {id(p) for p in passed})
        return out


# ---------------------------------------------------------------------------
# Loading

class _Loader:
    """Builds a KnowledgeBase one top-level form at a time (the handler
    given to ``sexpr.load_forms``), then ``validate`` checks it whole.
    Its names and atoms are made by *names*.  What only ``validate``
    reads (kind evidence, the function terms seen) stays here."""

    def __init__(self, names: Names):
        self.names = names
        self.kb = KnowledgeBase()
        self.findings: list[Finding] = []
        self.declared: dict[str, str] = {}
        self.evidence: dict[str, str] = {}     # collection evidence wins
        self.nats_seen: set[Nat] = set()

    def error(self, code: str, message: str):
        self.findings.append(Finding(code, message))

    def register(self, e: Expr, evidence: str | None = None):
        if isinstance(e, Constant):
            self.kb._terms.add(e.name)
            if evidence == "collection":
                self.evidence[e.name] = evidence
            elif evidence == "individual":
                self.evidence.setdefault(e.name, evidence)
            return
        if isinstance(e, Nat):
            self.nats_seen.add(e)
        for child in children(e):
            self.register(child)

    def _term_from(self, node, what: str) -> Expr | None:
        e = from_sexpr(node, self.names)
        if not _is_term(e):
            self.error("kb-form", f"{what} must be a term, got {print_expr(e)}")
            return None
        return e

    def _load_link(self, form, kind: str):
        if len(form) != 3:
            raise FormError("kb-form", f"({kind} ...) takes two terms")
        s = self._term_from(form[1], f"{kind} specific")
        g = self._term_from(form[2], f"{kind} general")
        if s is None or g is None:
            return
        if s == g:
            raise FormError("kb-self-link", f"({kind} {print_expr(s)} "
                            f"{print_expr(g)}) relates a term to itself")
        kb = self.kb
        if kind == "isa":
            self.register(s, "individual" if isinstance(s, Constant) else None)
            self.register(g, "collection")
            kb._isa.setdefault(s, []).append(g)
        else:
            self.register(s, "collection" if isinstance(s, Constant) else None)
            self.register(g, "collection")
            kb._genls.setdefault(s, []).append(g)

    def load_form(self, form, findings: list):
        self.findings = findings        # the list load_forms collects
        if not isinstance(form, sexpr.SexprList) or not form:
            raise FormError("kb-form",
                            f"stray atom {sexpr.to_text(form)} at top level")
        kb, names = self.kb, self.names
        head = names.name(form[0]) if isinstance(form[0], sexpr.Symbol) else None
        if head in ("isa", "genls"):
            self._load_link(form, head)
        elif head == "fact":
            if len(form) != 3 or not _symbols(form[1]):
                raise FormError("kb-form", "(fact CTX (pred args...)) expected")
            context = constant_name(form[1], names)
            atom = from_sexpr(form[2], names)
            if not isinstance(atom, App):
                raise FormError("kb-form", "fact body must be a predicate "
                                f"application, got {print_expr(atom)}")
            if not is_ground(atom):
                raise FormError("kb-form",
                                f"fact must be ground: {print_expr(atom)}")
            self.register(atom)
            key = print_expr(atom.predicate)
            kb._facts.setdefault(key, []).append((context, atom.args))
        elif head == "fn":
            if (len(form) != 4 or not _symbols(form[1])
                    or not _is_integer(form[2])
                    or not isinstance(form[3], sexpr.SexprList)):
                raise FormError("kb-form", "(fn Functor ARITY (RULE ...)) expected")
            name = constant_name(form[1], names)
            arity = int(form[2])
            rule = form[3]
            if arity < 1:
                raise FormError("kb-form", f"fn {name}: arity must be positive")
            if (len(rule) != 2 or not _symbols(rule[0])
                    or rule[0] not in ("resultIsa", "resultGenls",
                                       "resultGenlsArg")):
                raise FormError("kb-form", f"fn {name}: bad result rule")
            rk = names.name(rule[0])
            if rk == "resultGenlsArg":
                if not _is_integer(rule[1]):
                    raise FormError("kb-form",
                                    f"fn {name}: resultGenlsArg needs an index")
                rv: object = int(rule[1])
                if not (1 <= rv <= arity):
                    raise FormError("kb-form", f"fn {name}: result argument "
                                    f"index {rv} exceeds arity {arity}")
            elif _symbols(rule[1]):
                rv = constant_name(rule[1], names)
                self.register(names.constant(rv), "collection")
            else:
                raise FormError("kb-form", f"fn {name}: {rk} takes a collection")
            if name in kb._signatures and kb._signatures[name] != FunctionSignature(name, arity, rk, rv):
                raise FormError("kb-conflict", f"fn {name} declared twice with "
                                               "different signatures")
            self.register(names.constant(name))
            kb._signatures[name] = FunctionSignature(name, arity, rk, rv)
        elif head in ("argIsa", "argGenls"):
            if (len(form) != 4 or not _symbols(form[1], form[3])
                    or not _is_integer(form[2])):
                raise FormError("kb-form", f"({head} pred N C) expected")
            owner, pos = constant_name(form[1], names), int(form[2])
            req = names.constant(constant_name(form[3], names))
            if pos < 1:
                raise FormError("kb-form",
                                f"{head} {owner}: position must be positive")
            self.register(names.constant(owner))
            self.register(req, "collection")
            kb._arg_constraints.setdefault(owner, []).append(
                ArgConstraint(owner, pos, head, req))
        elif head == "interArgGenls":
            if (len(form) != 6 or not _symbols(form[1], form[3], form[5])
                    or not _is_integer(form[2])
                    or not _is_integer(form[4])):
                raise FormError("kb-form",
                                "(interArgGenls pred N1 C1 N2 C2) expected")
            owner = constant_name(form[1], names)
            p1, c1 = int(form[2]), names.constant(constant_name(form[3], names))
            p2, c2 = int(form[4]), names.constant(constant_name(form[5], names))
            if p1 == p2:
                raise FormError("kb-form", f"interArgGenls {owner}: positions "
                                "must be distinct")
            self.register(names.constant(owner))
            self.register(c1, "collection")
            self.register(c2, "collection")
            kb._inter_arg.setdefault(owner, []).append(
                InterArgConstraint(owner, p1, c1, p2, c2))
        elif head == "disjoint":
            if len(form) != 3:
                raise FormError("kb-form", "(disjoint C1 C2) expected")
            a = self._term_from(form[1], "disjoint")
            b = self._term_from(form[2], "disjoint")
            if a is None or b is None:
                return
            if a == b:
                raise FormError("kb-form",
                                "a collection cannot be disjoint with itself")
            self.register(a, "collection")
            self.register(b, "collection")
            kb._disjoint.add(frozenset((a, b)))
        elif head in ("individual", "collection"):
            if len(form) != 2 or not _symbols(form[1]):
                raise FormError("kb-form", f"({head} Term) expected")
            name = constant_name(form[1], names)
            # the literal, so that every kind in the KB is one of two strings
            kind = "individual" if head == "individual" else "collection"
            prior = self.declared.get(name)
            if prior is not None and prior != kind:
                raise FormError("kb-conflict",
                                f"{name} declared both individual and collection")
            self.register(names.constant(name))
            self.declared[name] = kind
        else:
            raise FormError("kb-form",
                            f"unknown form ({sexpr.to_text(form[0])} ...)")

    def validate(self):
        kb = self.kb
        kb._kinds = {**self.evidence, **self.declared}    # declarations win
        # genls cycles would make closure queries diverge
        for cycle in _find_cycles(kb._genls):
            names = " -> ".join(print_expr(t) for t in cycle)
            self.error("kb-genls-cycle", f"genls cycle: {names}")
        # declared arities must match every use
        for nat in sorted(self.nats_seen, key=print_expr):
            if not isinstance(nat.functor, Constant):
                continue
            sig = kb._signatures.get(nat.functor.name)
            if sig is not None and sig.arity != len(nat.args):
                self.error("kb-arity",
                           f"{print_expr(nat)} has {len(nat.args)} arguments; "
                           f"{nat.functor.name} is declared with arity {sig.arity}")
        # constraints must fit declared arities
        for owner, constraints in kb._arg_constraints.items():
            sig = kb._signatures.get(owner)
            if sig is None:
                continue
            for c in constraints:
                if c.position > sig.arity:
                    self.error("kb-arity",
                               f"{c.kind} on {owner} position {c.position} exceeds "
                               f"declared arity {sig.arity}")


def _find_cycles(graph: dict) -> list:
    """Cycles in a successor map, each reported once as a node path.  A
    depth-first walk on an explicit stack, so a long chain cannot exhaust
    the interpreter's recursion limit."""
    done: set = set()
    cycles = []
    for root in graph:
        if root in done:
            continue
        path = [root]                       # the grey nodes, root first
        on_path = {root}
        pending = [iter(graph[root])]       # successors left, per path node
        while pending:
            for succ in pending[-1]:
                if succ in on_path:
                    cycles.append(tuple(path[path.index(succ):]) + (succ,))
                elif succ not in done:
                    path.append(succ)
                    on_path.add(succ)
                    pending.append(iter(graph.get(succ, ())))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                pending.pop()
    return cycles


def load_kb_lenient(paths: Iterable | None = None, *, text: str | None = None,
                    names: Names | None = None) -> tuple:
    """Load and return (kb, findings); only an unreadable file raises.
    *names* is the load's name table (``logic.Names``), by default its own."""
    loader = _Loader(Names() if names is None else names)
    loader.findings = sexpr.load_forms(paths, text, "kb", loader.load_form)
    loader.validate()
    return loader.kb, loader.findings


def load_kb(paths: Iterable | None = None, *, text: str | None = None,
            names: Names | None = None) -> KnowledgeBase:
    """Load a KB, rejecting any malformed input or genls cycle."""
    return sexpr.strict(load_kb_lenient(paths, text=text, names=names))


def lint_kb(kb: KnowledgeBase) -> list:
    """Consistency checks beyond load validation: no declared disjointness
    of known terms may contradict the subsumption order."""
    findings = []
    for pair in sorted(kb.disjoint_pairs, key=lambda p: sorted(print_expr(t) for t in p)):
        a, b = sorted(pair, key=print_expr)
        if kb.known(a) and kb.known(b) and (
                a in kb.genls_closure(b) or b in kb.genls_closure(a)):
            findings.append(Finding(
                "kb-disjoint-subsumption",
                f"{print_expr(a)} and {print_expr(b)} are declared disjoint but "
                "one specializes the other"))
    return findings
