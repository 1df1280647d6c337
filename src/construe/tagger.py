"""Lexicon-driven concept tagging.

Input text is tokenized on whitespace, with hyphens, brackets and common
punctuation kept as boundary tokens.  Tokens the lexicon knows nothing
about are split into sub-word segments when every segment has a reading
(so "G12V" can become G / 12 / V), and hyphen-adjacent tokens are joined
back together when the joined surface is a lexicon entry ("K-Ras").
Digit runs always read as their numeric value.  All ambiguity is kept:
one span may carry many candidate concepts, and spans may overlap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import sexpr
from .logic import (MAX_TERM_DEPTH, Constant, Expr, Names, Nat, Numeral,
                    from_sexpr, print_expr, term_depth)
from .sexpr import FormError
from .value import Value

_BOUNDARY_CHARS = set("-()[]{}.,;:!?")
_MAX_SEGMENT_LEN = 64


class Token(Value):
    """*start* and *end* are character offsets into the text; *parent* is
    set on sub-word tokens."""

    __slots__ = _fields = ("surface", "start", "end", "parent")
    _defaults = {"parent": None}

    def __repr__(self):
        return f"Token({self.surface!r}, {self.start}, {self.end})"


class TagSpan(Value):
    """The concepts of the tokens [start, end)."""

    __slots__ = _fields = ("start", "end", "concepts")


class TagChart(Value):
    """The tokens of a text and the tag spans over them.  ``by_span`` maps
    (start, end) to the concepts of the first span there."""

    _fields = ("text", "tokens", "spans")
    __slots__ = _fields + ("by_span",)

    def _derive(self) -> tuple:
        by_span: dict = {}
        for span in self.spans:
            by_span.setdefault((span.start, span.end), span.concepts)
        return (by_span,)

    def concepts_at(self, start: int, end: int) -> tuple:
        return self.by_span.get((start, end), ())

    def token_concepts(self, i: int) -> tuple:
        return self.concepts_at(i, i + 1)


class Lexicon:
    """Surface-form to concept map.  Single-character entries only match
    with their exact case; longer entries are case-insensitive unless
    flagged otherwise."""

    def __init__(self):
        # surface -> its readings, de-duplicated and sorted by print_expr
        self._exact: dict[str, tuple] = {}
        self._folded: dict[str, tuple] = {}
        self._multiword_lens: set[int] = set()

    def add(self, surface: str, readings: Iterable[Expr], exact_case: bool = False):
        if not surface:
            raise ValueError("empty lexicon surface")
        readings = tuple(readings)
        if not readings:
            raise ValueError(f"no readings for lexicon entry {surface!r}")
        if exact_case or len(surface) == 1:
            table, key = self._exact, surface
        else:
            table, key = self._folded, surface.casefold()
        table[key] = _merged(table.get(key, ()), readings)
        if " " in surface:
            self._multiword_lens.add(surface.count(" ") + 1)

    def lookup(self, surface: str) -> tuple:
        """All readings for a surface form, deterministically ordered."""
        exact = self._exact.get(surface)
        folded = self._folded.get(surface.casefold())
        if exact is None:
            return folded or ()
        return exact if folded is None else _merged(exact, folded)

    @property
    def multiword_lengths(self) -> tuple:
        return tuple(sorted(self._multiword_lens))


def _merged(first: tuple, second: tuple) -> tuple:
    """The readings of *first* then *second*, each once, sorted by
    ``print_expr`` (a stable sort, so equal texts keep that order)."""
    return tuple(sorted(dict.fromkeys(first + second), key=print_expr))


def _is_surface(item) -> bool:
    """A non-empty quoted string."""
    return isinstance(item, str) and not isinstance(item, sexpr.Symbol) \
        and item != ""


def _load_entry(lex: Lexicon, names: Names, form, findings: list):
    """Add one (lex ...) or (lex-nat ...) form to *lex*, its names and
    atoms made by *names*."""
    if not isinstance(form, sexpr.SexprList) or not form:
        raise FormError("lex-form", f"stray atom {sexpr.to_text(form)}")
    head = str(form[0]) if isinstance(form[0], sexpr.Symbol) else None
    if head == "lex":
        if len(form) < 3 or not _is_surface(form[1]):
            raise FormError("lex-form", '(lex "surface" Term ...) expected')
        exact = False
        symbols = []
        for item in form[2:]:
            if isinstance(item, sexpr.Symbol) and str(item) == ":exact-case":
                exact = True
                continue
            # read as a term, so that #$Foo is Foo
            reading = from_sexpr(item, names)
            if isinstance(reading, Constant):
                symbols.append(reading)
            else:
                findings.append(sexpr.Finding(
                    "lex-form", f"bad reading {sexpr.to_text(item)} for "
                                f"{sexpr.to_text(form[1])}"))
        if symbols:
            lex.add(form[1], symbols, exact_case=exact)
    elif head == "lex-nat":
        if len(form) != 3 or not _is_surface(form[1]):
            raise FormError("lex-form", '(lex-nat "surface" EXPR) expected')
        reading = from_sexpr(form[2], names)
        if not isinstance(reading, Nat):
            raise FormError("lex-form", "lex-nat reading must be a function "
                                        f"term: {print_expr(reading)}")
        if term_depth(reading) > MAX_TERM_DEPTH:
            raise FormError("lex-form", "lex-nat reading nests deeper than "
                                        f"{MAX_TERM_DEPTH} levels")
        lex.add(form[1], (reading,))
    else:
        raise FormError("lex-form",
                        f"unknown form ({sexpr.to_text(form[0])} ...)")


def load_lexicon_lenient(paths: Iterable | None = None, *,
                         text: str | None = None,
                         names: Names | None = None) -> tuple:
    """Load and return (lexicon, findings); only an unreadable file raises.
    *names* is the load's name table (``logic.Names``), by default its own."""
    lex, names = Lexicon(), Names() if names is None else names
    return lex, sexpr.load_forms(
        paths, text, "lex",
        lambda form, found: _load_entry(lex, names, form, found))


def load_lexicon(paths: Iterable | None = None, *, text: str | None = None,
                 names: Names | None = None) -> Lexicon:
    return sexpr.strict(load_lexicon_lenient(paths, text=text, names=names))


# ---------------------------------------------------------------------------
# Tokenization

def tokenize(text: str) -> list:
    """Whitespace split, then boundary characters become their own tokens."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] in _BOUNDARY_CHARS:
            tokens.append(Token(text[i], i, i + 1))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _BOUNDARY_CHARS:
            j += 1
        tokens.append(Token(text[i:j], i, j))
        i = j
    return tokens


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def segment(surface: str, lexicon: Lexicon) -> list:
    """The preferred decomposition of *surface* into two or more
    consecutive segments, each a lexicon hit or a maximal digit run:
    fewest segments, then longer segments first, left to right.  Returns
    ``[segments]``, or ``[]`` when there is no such decomposition."""
    n = len(surface)
    if n < 2 or n > _MAX_SEGMENT_LEN:
        return []
    # best[i]: the preferred decomposition of surface[i:], None if none
    best: list = [None] * n + [()]
    for i in range(n - 1, -1, -1):
        digits_end = i
        while digits_end < n and _is_digits(surface[digits_end]):
            digits_end += 1
        # longest first, so the first with the fewest segments is preferred;
        # at 0 the whole surface is not a decomposition
        for j in range(n if i else n - 1, i, -1):
            rest = best[j]
            if rest is None or (best[i] is not None
                                and len(rest) + 1 >= len(best[i])):
                continue
            if j == digits_end or lexicon.lookup(surface[i:j]):
                best[i] = (surface[i:j],) + rest
    return [] if best[0] is None else [list(best[0])]


def _readings(token: Token, lexicon: Lexicon) -> tuple:
    """The token's readings, each once: a digit run also reads as its
    value."""
    found = lexicon.lookup(token.surface)
    if _is_digits(token.surface):
        value = Numeral(Fraction(int(token.surface)))
        if value not in found:
            found += (value,)
    return found


def _join_hyphenated(tokens: list, lexicon: Lexicon) -> list:
    """Reassemble hyphen-separated runs whose joined surface the lexicon
    knows, longest first."""
    out = []
    i = 0
    while i < len(tokens):
        joined = None
        # a run looks like word (- word)+ with adjacent character spans
        limit = i
        while (limit + 2 < len(tokens)
               and tokens[limit + 1].surface == "-"
               and tokens[limit].end == tokens[limit + 1].start
               and tokens[limit + 1].end == tokens[limit + 2].start):
            limit += 2
        for j in range(limit, i, -2):
            surface = "".join(t.surface for t in tokens[i:j + 1])
            if lexicon.lookup(surface):
                joined = Token(surface, tokens[i].start, tokens[j].end)
                i = j + 1
                break
        if joined is not None:
            out.append(joined)
        else:
            out.append(tokens[i])
            i += 1
    return out


def _split_unknown(tokens: list, lexicon: Lexicon) -> list:
    """Replace tokens without any reading by their preferred sub-word
    decomposition, when one exists."""
    out = []
    for tok in tokens:
        if lexicon.lookup(tok.surface) or _is_digits(tok.surface):
            out.append(tok)
            continue
        decompositions = segment(tok.surface, lexicon)
        if not decompositions:
            out.append(tok)
            continue
        offset = tok.start
        for piece in decompositions[0]:
            out.append(Token(piece, offset, offset + len(piece), parent=tok))
            offset += len(piece)
    return out


def tag(text: str, lexicon: Lexicon) -> TagChart:
    """Tag *text* with every candidate concept the lexicon offers.  No
    consolidation: every reading of every span is kept, and no span
    carries one concept twice."""
    tokens = tokenize(text)
    tokens = _join_hyphenated(tokens, lexicon)
    tokens = _split_unknown(tokens, lexicon)

    spans = []
    for i, tok in enumerate(tokens):
        readings = _readings(tok, lexicon)
        if readings:
            spans.append(TagSpan(i, i + 1, readings))
    for length in lexicon.multiword_lengths:
        for i in range(0, len(tokens) - length + 1):
            surface = " ".join(t.surface for t in tokens[i:i + length])
            readings = lexicon.lookup(surface)
            if readings:
                spans.append(TagSpan(i, i + length, readings))
    spans.sort(key=lambda s: (s.start, s.end))
    return TagChart(text, tokens, spans)
