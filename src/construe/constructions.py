"""Construction data model, the construction-definition DSL, template
variant expansion, and the three-tier exact-match repository index.

A construction pairs one or more natural-language templates with exactly
one logic template, plus optional anaphoric slots, an output variable and
type, and positive/negative semantic tests:

    (construction :id color-of-thing
      :lang en
      :nl "$Color#0 $PartiallyTangible#1"
      :logic (SubcollectionOfWithRelationToFn $PartiallyTangible#1
                                              mainColorOfObject $Color#0)
      :output-type (slot 1))

Template strings are tokenized with the same rules as input text.  Square
brackets give alternatives: ``[a|b]`` matches "a" or "b", and ``{}`` (or a
trailing ``|``) adds an empty alternative, so ``[the{}]`` makes "the"
optional.  Alternatives may attach to a word ("place[d|]") or contain
several tokens.  The cross product of all alternatives is stored as
variants; each variant also gets a skeleton key (typed slots collapsed to
untyped placeholders) and a lexical key (the literal strings only).  The
repository also keeps every prefix of every skeleton key, so that
retrieval can drop a partial tiling as soon as no stored key extends it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from . import sexpr, tagger
from .kb import KnowledgeBase, constant_name
from .logic import (MAX_TERM_DEPTH, TYPED_VAR_RE, Constant, Expr, Names,
                    QueryVar, TypedVar, free_vars, from_sexpr, iter_free_vars,
                    print_expr, term_depth)
from .sexpr import Finding, FormError, LoadError
from .value import Value

# A template slot is the logic template's typed variable itself.
TypedSlot = TypedVar


class Literal(Value):
    """A template word; *folded* is its case-folded key, made at load."""

    __slots__ = _fields = ("text", "folded")


class Alternation(Value):
    """*alternatives* are element sequences; a sequence may be empty."""

    __slots__ = _fields = ("alternatives",)


class NlTemplate(Value):
    __slots__ = _fields = ("language", "elements")


class TemplateVariant(Value):
    """One spelling of a construction: Literal and TypedVar elements only.
    ``slots`` are its typed variables, in order."""

    _fields = ("construction_id", "language", "elements")
    __slots__ = _fields + ("slots",)

    def _derive(self) -> tuple:
        return (tuple([e for e in self.elements
                       if isinstance(e, TypedVar)]),)


SKELETON_SLOT = None  # placeholder marking a collapsed typed variable
# The source of an edge seeded from a tagged concept; no construction may
# take it as its id.
LEXICAL_SOURCE = "lex"


def derive_keys(variant: TemplateVariant) -> tuple:
    """(skeleton key, lexical key) for a variant.  Typed variables collapse
    to untyped placeholders in the skeleton and disappear from the lexical
    key; literals are case-folded."""
    skeleton = tuple(SKELETON_SLOT if isinstance(e, TypedVar) else e.folded
                     for e in variant.elements)
    lexical = tuple(f for f in skeleton if f is not SKELETON_SLOT)
    return skeleton, lexical


def typed_key(skeleton: tuple, slot_types) -> tuple:
    """The typed-tier key of a skeleton key whose slots take
    *slot_types*, in order."""
    types = iter(slot_types)
    return tuple(("type", next(types)) if k is SKELETON_SLOT else ("lit", k)
                 for k in skeleton)


class Construction(Value):
    """A construction as loaded.  *output_type* is a TermId string,
    ("slot", k) or None.  ``variants`` (``expand_variants`` of it) and
    ``logic_slots`` (the typed variables of the logic template) are derived
    once, when it is made."""

    _fields = ("id", "nl_templates", "logic_template", "anaphoric_refs",
               "output_var", "output_type", "tests_positive", "tests_negative")
    __slots__ = _fields + ("variants", "logic_slots")
    _defaults = {"anaphoric_refs": (), "output_var": None,
                 "output_type": None, "tests_positive": (),
                 "tests_negative": ()}

    def _derive(self) -> tuple:
        return (tuple(expand_variants(self)),
                frozenset(_slot_occurrences(self.logic_template)))

    def nl_slots(self) -> set:
        return set().union(*(v.slots for v in self.variants))

    def all_slots(self) -> set:
        return self.nl_slots() | set(self.anaphoric_refs)


# ---------------------------------------------------------------------------
# Template string parsing

class _TemplateError(Exception):
    pass


def _split_chunks(s: str) -> list:
    chunks, buf, depth = [], [], 0
    for ch in s:
        if ch == "[":
            depth += 1
            buf.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise _TemplateError("unbalanced ']' in template")
            buf.append(ch)
        elif ch.isspace() and depth == 0:
            if buf:
                chunks.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise _TemplateError("unbalanced '[' in template")
    if buf:
        chunks.append("".join(buf))
    return chunks


def _parse_plain(piece: str, names: Names) -> list:
    """Elements of bracket-free template text: typed variables and literal
    tokens, segmented exactly like input text."""
    elements: list = []
    pos = 0

    def literal_run(text):
        if "$" in text:
            raise _TemplateError(f"unreadable typed variable in {piece!r}")
        if not text:    # most runs: nothing between two typed variables
            return []
        return [Literal(names.name(t.surface), names.name(t.surface.casefold()))
                for t in tagger.tokenize(text)]

    for m in TYPED_VAR_RE.finditer(piece):
        elements.extend(literal_run(piece[pos:m.start()]))
        elements.append(names.atom(sexpr.Symbol(m.group())))
        pos = m.end()
    elements.extend(literal_run(piece[pos:]))
    return elements


def _chunk_alternative_strings(chunk: str) -> list | None:
    """Expand the bracket groups of one whitespace-delimited chunk into the
    full list of alternative strings, or None when the chunk has none."""
    if "[" not in chunk:
        return None
    parts = []
    i = 0
    while i < len(chunk):
        if chunk[i] == "[":
            j = chunk.index("]", i)
            if "[" in chunk[i + 1:j]:
                raise _TemplateError(f"nested alternation in {chunk!r}")
            body = chunk[i + 1:j].replace("{}", "|")
            alts = [a.strip() for a in body.split("|")]
            seen, uniq = set(), []
            for a in alts:
                if a not in seen:
                    seen.add(a)
                    uniq.append(a)
            parts.append(uniq)
            i = j + 1
        else:
            j = i
            while j < len(chunk) and chunk[j] != "[":
                j += 1
            parts.append([chunk[i:j]])
            i = j
    return ["".join(combo) for combo in itertools.product(*parts)]


def parse_template(text: str, language: str,
                   names: Names | None = None) -> NlTemplate:
    names = Names() if names is None else names
    elements: list = []
    for chunk in _split_chunks(text):
        alt_strings = _chunk_alternative_strings(chunk)
        if alt_strings is None:
            elements.extend(_parse_plain(chunk, names))
        else:
            alternatives = tuple(tuple(_parse_plain(a, names))
                                 for a in alt_strings)
            elements.append(Alternation(alternatives))
    if not elements:
        raise _TemplateError("empty template")
    return NlTemplate(language, tuple(elements))


def expand_variants(c: Construction) -> list:
    """All stored variants of a construction: the cross product of every
    alternation, for every language template."""
    out = []
    for template in c.nl_templates:
        choice_sets = []
        for e in template.elements:
            if isinstance(e, Alternation):
                choice_sets.append(list(e.alternatives))
            else:
                choice_sets.append([(e,)])
        for combo in itertools.product(*choice_sets):
            elements = tuple(itertools.chain.from_iterable(combo))
            out.append(TemplateVariant(c.id, template.language, elements))
    return out


# ---------------------------------------------------------------------------
# DSL loading

def _slot_occurrences(e: Expr) -> set:
    return {v for v in iter_free_vars(e) if v.__class__ is TypedVar}


def _validate(c: Construction, sink: list) -> bool:
    """Append a finding to *sink* for each invariant *c* breaks; true when
    it breaks none."""
    before = len(sink)

    def err(code, msg):
        sink.append(Finding(code, f"construction {c.id}: {msg}"))

    nl = c.nl_slots()
    anaphoric = set(c.anaphoric_refs)
    bound = nl | anaphoric
    logic_slots = c.logic_slots
    # one unifying integer names one slot
    by_index: dict = {}
    for s in sorted(bound | logic_slots, key=print_expr):
        prior = by_index.setdefault(s.index, s)
        if prior != s:
            err("cons-slot-index",
                f"unifying integer {s.index} names both {print_expr(prior)} "
                f"and {print_expr(s)}")
    if anaphoric & nl:
        overlap = ", ".join(sorted(map(print_expr, anaphoric & nl)))
        err("cons-anaphoric", f"anaphoric slots also occur in a template: {overlap}")
    for s in sorted(map(print_expr, logic_slots - bound)):
        err("cons-unbound-slot",
            f"{s} in the logic template is neither a template slot nor "
            "an anaphoric reference")
    for label, tests in (("test+", c.tests_positive), ("test-", c.tests_negative)):
        for t in tests:
            for s in sorted(map(print_expr, _slot_occurrences(t) - bound)):
                err("cons-unbound-slot", f"{s} in a {label} is unbound")
    if c.output_var is not None:
        if c.output_var not in free_vars(c.logic_template):
            err("cons-output-var",
                f"output variable {print_expr(c.output_var)} does not occur free in "
                "the logic template")
    if isinstance(c.output_type, tuple):
        k = c.output_type[1]
        if k not in {s.index for s in bound}:
            err("cons-output-type", f"output type refers to unknown slot #{k}")
    for v in c.variants:
        if not v.elements:
            err("cons-empty-variant", "an alternation choice leaves a variant empty")
            break
        if len(v.slots) != len(set(v.slots)):
            err("cons-duplicate-slot", "a variant uses the same slot twice")
            break
    return len(sink) == before


def _template(value, names: Names, cid, key: str) -> Expr:
    """The logic of a :logic, :test+ or :test- value."""
    e = from_sexpr(value, names)
    if term_depth(e) > MAX_TERM_DEPTH:
        raise FormError("cons-form", f"{cid or '?'}: {key} nests deeper than "
                                     f"{MAX_TERM_DEPTH} levels")
    return e


def _parse_form(form, names: Names) -> Construction:
    """The construction a (construction ...) form defines, before
    ``_validate``; a malformed form raises ``FormError``."""
    if not isinstance(form, sexpr.SexprList) or not form \
            or not isinstance(form[0], sexpr.Symbol) or form[0] != "construction":
        raise FormError("cons-form", "expected a (construction ...) form")
    items = list(form[1:])
    cid = None
    lang = "en"
    templates: list = []
    logic_template = None
    logic_count = 0
    anaphoric: list = []
    output_var = None
    output_type = None
    tests_pos: list = []
    tests_neg: list = []
    i = 0
    while i < len(items):
        key = items[i]
        if not (isinstance(key, sexpr.Symbol) and str(key).startswith(":")):
            raise FormError("cons-form",
                            f"expected a :keyword, got {sexpr.to_text(key)}")
        if i + 1 >= len(items):
            raise FormError("cons-form", f"{key} is missing its value")
        value = items[i + 1]
        i += 2
        k = str(key)
        if k in (":id", ":lang") and not isinstance(value, sexpr.Symbol):
            raise FormError("cons-form", f"{k} takes a symbol")
        if k == ":id":
            cid = names.name(value)
            if cid == LEXICAL_SOURCE:
                raise FormError("cons-form", f":id {cid} is reserved for the "
                                "edges of tagged concepts")
        elif k == ":lang":
            lang = names.name(value)
        elif k == ":nl":
            if isinstance(value, sexpr.Symbol) or not isinstance(value, str):
                raise FormError("cons-form", ":nl takes a quoted template string")
            try:
                templates.append(parse_template(value, lang, names))
            except _TemplateError as terr:
                raise FormError("cons-template", f"{cid or '?'}: {terr}") from None
        elif k == ":logic":
            logic_count += 1
            logic_template = _template(value, names, cid, k)
        elif k == ":anaphoric":
            if not isinstance(value, sexpr.SexprList):
                raise FormError("cons-form",
                                ":anaphoric takes a list of typed variables")
            for item in value:
                v = from_sexpr(item, names)
                if not isinstance(v, TypedVar):
                    raise FormError("cons-form", f"{cid or '?'}: anaphoric "
                                    "entries must be typed variables")
                anaphoric.append(v)
        elif k == ":output-var":
            output_var = from_sexpr(value, names)
            if not isinstance(output_var, QueryVar):
                raise FormError("cons-form", f"{cid or '?'}: :output-var takes "
                                "a query variable")
        elif k == ":output-type":
            if isinstance(value, sexpr.SexprList):
                if not (len(value) == 2 and str(value[0]) == "slot"
                        and isinstance(value[1], Fraction)
                        and value[1].denominator == 1):
                    raise FormError("cons-form", f"{cid or '?'}: :output-type "
                                    "takes a term or (slot k) with an integer k")
                output_type = ("slot", int(value[1]))
            elif isinstance(value, sexpr.Symbol):
                output_type = constant_name(value, names, "cons-form")
            else:
                raise FormError("cons-form", f"{cid or '?'}: bad :output-type")
        elif k in (":test+", ":test-"):
            (tests_pos if k == ":test+" else tests_neg).append(
                _template(value, names, cid, k))
        else:
            raise FormError("cons-form", f"unknown key {k}")
    if cid is None:
        raise FormError("cons-form", "construction without :id")
    if not templates:
        raise FormError("cons-form",
                        f"construction {cid}: at least one :nl template required")
    if logic_count == 0:
        raise FormError("cons-no-logic",
                        f"construction {cid}: missing logic template")
    if logic_count > 1:
        raise FormError("cons-two-logic",
                        f"construction {cid}: exactly one logic template is "
                        f"allowed, found {logic_count}")
    return Construction(cid, tuple(templates), logic_template, tuple(anaphoric),
                        output_var, output_type, tuple(tests_pos),
                        tuple(tests_neg))


def parse_construction(dsl_text: str) -> Construction:
    """Parse one (construction ...) form, enforcing every invariant."""
    repo = load_constructions(text=dsl_text)
    if len(repo.constructions) != 1:
        raise LoadError([Finding("cons-syntax", "expected exactly one form, "
                                 f"found {len(repo.constructions)}")])
    [c] = repo.constructions.values()
    return c


class Repository:
    """Constructions plus the lexical / skeleton / typed lookup tiers, all
    built when it is made.  Immutable; lookups are safe for concurrent use."""

    def __init__(self, constructions: Iterable[Construction] = (),
                 names: Names | None = None):
        """Index *constructions*, whose ids are distinct.  *names* makes
        the constants of their slot types, so that under the table of the
        KB's load they are the very constants of the KB."""
        names = Names() if names is None else names
        self.constructions = {c.id: c for c in constructions}
        self.variants: list[TemplateVariant] = [
            v for c in self.constructions.values() for v in c.variants]
        # the type of every slot, as the constant naming it
        self.used_types: frozenset = frozenset(
            names.constant(s.type) for c in self.constructions.values()
            for s in c.all_slots())
        hits: dict[str, dict] = {"lexical": {}, "skeleton": {}, "typed": {}}
        # a tier holds equal variants once; only one construction's
        # alternations can spell a variant twice
        for v in dict.fromkeys(self.variants):
            skeleton, lexical = derive_keys(v)
            typed = typed_key(skeleton, [s.type for s in v.slots])
            for tier, key in (("lexical", lexical), ("skeleton", skeleton),
                              ("typed", typed)):
                hits[tier].setdefault((v.language, key), []).append(v)
        self._tiers: dict[str, dict] = {
            tier: {key: tuple(vs) for key, vs in index.items()}
            for tier, index in hits.items()}
        # (language, skeleton key) -> per slot position, the slot types
        # that the key's variants name there
        self._slot_types: dict[tuple, tuple] = {
            key: tuple(frozenset(s.type for s in position)
                       for position in zip(*(v.slots for v in vs)))
            for key, vs in self._tiers["skeleton"].items()}
        self._skeleton_prefixes: dict[str, set] = {}
        for language, skeleton in self._tiers["skeleton"]:
            self._skeleton_prefixes.setdefault(language, set()).update(
                skeleton[:i] for i in range(len(skeleton) + 1))

    def lookup(self, tier: str, key: tuple, language: str = "en") -> tuple:
        """Exact-match retrieval on one tier: the stored variants, each
        once, in the order they were given; ``()`` when nothing matches."""
        return self._tiers[tier].get((language, tuple(key)), ())

    def slot_types(self, skeleton: tuple, language: str = "en") -> tuple:
        """Per slot position of the stored skeleton key, the set of slot
        types that its variants name there."""
        return self._slot_types[(language, skeleton)]

    def skeleton_prefixes(self, language: str = "en") -> set:
        """Every prefix of every stored skeleton key of *language*, the
        empty and the full keys included.  A tiling whose partial skeleton
        is not in this set can never complete to a stored variant."""
        return self._skeleton_prefixes.get(language, set())


def _add_form(accepted: dict, names: Names, form, findings: list):
    c = _parse_form(form, names)
    if _validate(c, findings):
        if c.id in accepted:
            raise FormError("cons-duplicate-id",
                            f"construction {c.id} defined twice")
        accepted[c.id] = c


def load_constructions_lenient(paths: Iterable | None = None, *,
                               text: str | None = None,
                               names: Names | None = None) -> tuple:
    """Load and return (repository, findings); only an unreadable file
    raises.  *names* is the load's name table (``logic.Names``), by default
    its own."""
    accepted, names = {}, Names() if names is None else names
    findings = sexpr.load_forms(
        paths, text, "cons",
        lambda form, found: _add_form(accepted, names, form, found))
    return Repository(accepted.values(), names), findings


def load_constructions(paths: Iterable | None = None, *,
                       text: str | None = None,
                       names: Names | None = None) -> Repository:
    return sexpr.strict(
        load_constructions_lenient(paths, text=text, names=names))


def lint_constructions(repo: Repository, kb: KnowledgeBase) -> list:
    """Checks that need the KB: every slot type must resolve to a known
    term, or no text can ever satisfy the slot."""
    findings = []
    for cid in sorted(repo.constructions):
        c = repo.constructions[cid]
        for s in sorted(c.all_slots(), key=print_expr):
            if not kb.known(Constant(s.type)):
                findings.append(Finding(
                    "cons-unknown-type",
                    f"construction {cid}: slot type {s.type} is not in the KB"))
    return findings
