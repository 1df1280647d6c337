"""Lexicon-driven concept tagging.

Input text is tokenized on whitespace, with hyphens, brackets and common
punctuation kept as boundary tokens, by one compiled pattern.  In text
that holds a hyphen, hyphen-adjacent tokens are joined back together when
the joined surface is a lexicon entry ("K-Ras").  Each token's readings
are then looked up once; a token the lexicon knows nothing about is split
into sub-word segments when every segment has a reading (so "G12V" can
become G / 12 / V), and only substrings of a length that some entry has
are looked up.  Digit runs always read as their numeric value.  A
multiword entry matches only tokens that whitespace separates in the
text.  All ambiguity is kept: one span may carry many candidate concepts,
and spans may overlap.  ``lint_lexicon`` names the entries that no text
can tag.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from . import sexpr
from .logic import (MAX_TERM_DEPTH, Constant, Expr, Names, Nat, Numeral,
                    from_sexpr, print_expr, term_depth)
from .sexpr import FormError
from .value import Value

# a boundary character (- ( ) [ ] { } . , ; : ! ?), or a run of characters
# that are neither those nor whitespace; in a str pattern, ``\s`` matches
# what ``str.isspace`` accepts
_TOKEN_RE = re.compile(r"[-()\[\]{}.,;:!?]|[^-()\[\]{}.,;:!?\s]+")
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
        # the folded first word of each multiword entry -> the word
        # counts of the entries it starts
        self._multiword: dict[str, set] = {}
        # the lengths of the keys of both tables, and the shortest (the
        # longest surface ``segment`` takes while there is none)
        self._key_lens: set[int] = set()
        self._shortest_key = _MAX_SEGMENT_LEN
        # every surface added, as written, in the order first added
        self.surfaces: dict[str, None] = {}

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
        self._key_lens.add(len(key))
        self._shortest_key = min(self._shortest_key, len(key))
        self.surfaces[surface] = None
        if " " in surface:
            self._multiword.setdefault(surface.split(" ")[0].casefold(),
                                       set()).add(surface.count(" ") + 1)

    def lookup(self, surface: str) -> tuple:
        """All readings for a surface form, deterministically ordered."""
        exact = self._exact.get(surface)
        folded = self._folded.get(surface.casefold())
        if exact is None:
            return folded or ()
        return exact if folded is None else _merged(exact, folded)


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
    return [Token(m.group(), m.start(), m.end())
            for m in _TOKEN_RE.finditer(text)]


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def segment(surface: str, lexicon: Lexicon) -> list:
    """The preferred decomposition of *surface* into two or more
    consecutive segments, each a lexicon hit or a maximal digit run:
    fewest segments, then longer segments first, left to right.  Returns
    ``[segments]``, or ``[]`` when there is no such decomposition.

    An ASCII substring folds to a key of its own length, so one is looked
    up only when some key of the lexicon has that length, and an ASCII
    surface of letters only, shorter than two of the shortest keys, has
    no decomposition."""
    n = len(surface)
    if n < 2 or n > _MAX_SEGMENT_LEN:
        return []
    lengths = range(n + 1)
    if surface.isascii():
        if n < 2 * lexicon._shortest_key and surface.isalpha():
            return []
        lengths = lexicon._key_lens
    # best[i]: the preferred decomposition of surface[i:], None if none
    best: list = [None] * n + [()]
    digits_end = n      # the end of the digit run at i, or i if none
    for i in range(n - 1, -1, -1):
        if not _is_digits(surface[i]):
            digits_end = i
        # longest first, so the first with the fewest segments is preferred;
        # at 0 the whole surface is not a decomposition
        for j in range(n if i else n - 1, i, -1):
            rest = best[j]
            if rest is None or (best[i] is not None
                                and len(rest) + 1 >= len(best[i])):
                continue
            if j == digits_end or (j - i in lengths
                                   and lexicon.lookup(surface[i:j])):
                best[i] = (surface[i:j],) + rest
    return [] if best[0] is None else [list(best[0])]


def _readings(surface: str, lexicon: Lexicon) -> tuple:
    """The readings of a token's *surface*, each once: a digit run also
    reads as its value."""
    found = lexicon.lookup(surface)
    if _is_digits(surface):
        value = Numeral(Fraction(int(surface)))
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


def _tokens(text: str, lexicon: Lexicon) -> tuple:
    """(tokens, their readings) of *text*: hyphen runs that the lexicon
    knows joined, and each token without readings replaced by its
    preferred sub-word decomposition, when one exists.  Each token is
    looked up once."""
    tokens = tokenize(text)
    if "-" in text:
        tokens = _join_hyphenated(tokens, lexicon)
    out, readings = [], []
    for tok in tokens:
        found = _readings(tok.surface, lexicon)
        decompositions = () if found else segment(tok.surface, lexicon)
        if not decompositions:
            out.append(tok)
            readings.append(found)
            continue
        offset = tok.start
        for piece in decompositions[0]:
            out.append(Token(piece, offset, offset + len(piece), parent=tok))
            readings.append(_readings(piece, lexicon))
            offset += len(piece)
    return out, readings


def tag(text: str, lexicon: Lexicon) -> TagChart:
    """Tag *text* with every candidate concept the lexicon offers.  No
    consolidation: every reading of every span is kept, and no span
    carries one concept twice.  A multiword entry matches only tokens that
    whitespace separates in the text, their surfaces joined by one
    space."""
    tokens, readings = _tokens(text, lexicon)
    spans = [TagSpan(i, i + 1, found)
             for i, found in enumerate(readings) if found]
    multiword = lexicon._multiword
    if multiword:
        for i, tok in enumerate(tokens):
            for length in multiword.get(tok.surface.casefold(), ()):
                window = tokens[i:i + length]
                if len(window) == length and all(
                        a.end < b.start for a, b in zip(window, window[1:])):
                    found = lexicon.lookup(" ".join(t.surface for t in window))
                    if found:
                        spans.append(TagSpan(i, i + length, found))
        spans.sort(key=lambda s: (s.start, s.end))
    return TagChart(text, tokens, spans)


def lint_lexicon(lexicon: Lexicon) -> list:
    """Entries that tagging can never produce.  ``tag`` looks an entry up
    under the surface of one token, or of tokens that whitespace separates
    joined by single spaces; so the text that spells the entry, tokenized,
    joined and split as ``tag`` does, must give the entry back."""
    findings = []
    for surface in lexicon.surfaces:
        tokens, _ = _tokens(surface, lexicon)
        spelled = " ".join(t.surface for t in tokens)
        if spelled != surface:
            findings.append(sexpr.Finding(
                "lex-unreachable", f"lexicon entry {surface!r} can never be "
                                   f"tagged: its text tags as {spelled!r}"))
    return findings
