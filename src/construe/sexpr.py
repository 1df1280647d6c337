"""Minimal s-expression reader shared by the expression, knowledge-base,
lexicon and construction-file parsers, and the one place resource files
are read from disk.

``parse_all`` makes one pass of a single compiled pattern over the text
and builds forms on an explicit stack, so nesting depth is limited only
by memory.  Atoms that look like integers, ratios or decimals become
``Fraction``; other atoms become ``Symbol``; quoted strings become plain
``str`` (``\\n`` and ``\\t`` escapes decoded, any other escaped character
taken literally); ``¬X`` reads as ``(not X)``; ``;`` starts a comment.
Every ``Symbol`` and ``SexprList`` carries the 1-based line and column of
its first character.  Columns count source characters, so they stay
exact after a string with escapes or with line breaks inside it, and a
``\\n`` escape does not start a new line (the character-at-a-time reader
this one replaced got both wrong).  Errors are ``SexprError``: an
unterminated string (reported first if the text has one), an unbalanced
parenthesis, an unexpected ``)``, a dangling ``¬``, or a ratio with a
zero denominator.  ``atom`` reads one whole atom by the same rules, for
text that is not a source file (a JSON-encoded term).  ``to_text`` writes
a form back as one line of text, so that messages quote forms as a
resource file writes them.

``load_forms`` is the one way a resource file is read: it reads every
source as UTF-8, parses it, hands each top-level form to a per-form
handler and collects the ``Finding``s.  A handler rejects its form by
raising ``FormError(code, message)``, which becomes one located finding.
A lenient loader returns ``(resource, findings)``; ``strict`` turns that
into the resource, or raises ``LoadError`` carrying the findings, which is
the one way a strict load fails.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

from .value import Value


class Finding(Value):
    """One diagnostic from loading or linting."""

    __slots__ = _fields = ("code", "message")


class LoadError(Exception):
    """A resource that did not load; *findings* say why."""

    def __init__(self, findings):
        super().__init__("; ".join(f"{f.code}: {f.message}" for f in findings))
        self.findings = findings


class FormError(Exception):
    """A top-level resource form its handler rejects: ``load_forms``
    records ``Finding(code, message)`` at the form."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.finding = Finding(code, message)


class SexprError(Exception):
    """Malformed s-expression input."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class Symbol(str):
    """Bare identifier token. Compares as its string value; carries a
    source position for error reporting."""

    line = 0
    col = 0


class SexprList(list):
    """Parenthesized form. A plain list with a source position."""

    line = 0
    col = 0


# Blanks before a token are part of its match (one match per token, not
# one more per blank run); the group number names the token kind, and a
# comment or blanks at the very end match with no group.  A line break is
# a token of its own, so that lines can be counted.
_TOKEN_RE = re.compile(r"""
    [^\S\n]*
    (?:(\()                                  # 1
      |(\))                                  # 2
      |([^\s()";¬]+)                         # 3 atom or number
      |(\n)                                  # 4
      |"([^"\\]*(?:\\.[^"\\]*)*)"            # 5 string body
      |(¬)                                   # 6 negation sign
      |(")                                   # 7 string without an end
      |;[^\n]*
      |\Z)
""", re.VERBOSE | re.DOTALL)
_OPEN, _CLOSE, _ATOM, _NEWLINE, _STRING, _NEG, _UNTERMINATED = range(1, 8)
_NUMBER_RE = re.compile(r"[+-]?\d+(?:/\d+|\.\d+)?")
_ATOM_RE = re.compile(r'[^\s()";¬]+')     # the atom token of _TOKEN_RE
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(m) -> str:
    return _ESCAPES.get(m.group(1), m.group(1))


def _position(text: str, offset: int) -> tuple:
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _error_at(text: str, offset: int, message: str) -> SexprError:
    # an unterminated string further on is reported first
    for later in _TOKEN_RE.finditer(text, offset + 1):
        if later.lastindex == _UNTERMINATED:
            return SexprError("unterminated string",
                              *_position(text, later.start(_UNTERMINATED)))
    return SexprError(message, *_position(text, offset))


def parse_all(text: str) -> list:
    """Read every top-level form in *text*."""
    forms: list = []
    cur, cur_neg = forms, False     # list receiving forms; is it a ¬ frame
    stack: list = []                # enclosing (list, is ¬ frame) pairs
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == _ATOM:
            tok = m[_ATOM]
            if tok[-1].isdecimal() and _NUMBER_RE.fullmatch(tok):
                try:
                    form = Fraction(tok)
                except ZeroDivisionError:
                    raise _error_at(text, m.start(_ATOM),
                                    f"zero denominator in {tok}") from None
            else:
                form = Symbol(tok)
                form.line = line
                form.col = m.start(_ATOM) - line_start + 1
        elif kind == _OPEN:
            form = SexprList()
            form.line = line
            form.col = m.start(_OPEN) - line_start + 1
            stack.append((cur, cur_neg))
            cur, cur_neg = form, False
            continue
        elif kind == _CLOSE:
            if cur_neg or not stack:
                raise _error_at(text, m.start(_CLOSE), "unexpected ')'")
            form = cur
            cur, cur_neg = stack.pop()
        elif kind == _NEWLINE:
            line += 1
            line_start = m.end()
            continue
        elif kind == _STRING:
            form = m[_STRING]
            if "\n" in form:
                line += form.count("\n")
                line_start = text.rfind("\n", 0, m.end()) + 1
            if "\\" in form:
                form = _ESCAPE_RE.sub(_unescape, form)
        elif kind == _NEG:
            col = m.start(_NEG) - line_start + 1
            neg = Symbol("not")
            neg.line, neg.col = line, col
            form = SexprList([neg])
            form.line, form.col = line, col
            stack.append((cur, cur_neg))
            cur, cur_neg = form, True
            continue
        elif kind == _UNTERMINATED:
            raise SexprError("unterminated string", line,
                             m.start(_UNTERMINATED) - line_start + 1)
        else:                       # a comment, or blanks at the end
            continue
        cur.append(form)
        while cur_neg:              # a ¬ frame is complete with one form
            form = cur
            cur, cur_neg = stack.pop()
            cur.append(form)
    if stack:
        raise SexprError("dangling negation sign" if cur_neg
                         else "unbalanced parenthesis", cur.line, cur.col)
    return forms


def atom(text: str):
    """The number or symbol (with no position) that *text* reads as when
    it is one whole atom.  Any other text, or a ratio with a zero
    denominator, raises ``SexprError`` with ``parse_all``'s message."""
    if not _ATOM_RE.fullmatch(text):
        raise SexprError(f"not one atom: {quote(text)}")
    if _NUMBER_RE.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise SexprError(f"zero denominator in {text}") from None
    return Symbol(text)


def quote(text: str) -> str:
    """*text* as an s-expression string literal that ``parse_all`` reads
    back as *text*, on one line: ``\\``, ``"``, newline and tab
    escaped."""
    return '"%s"' % (text.replace("\\", "\\\\").replace('"', '\\"')
                     .replace("\n", "\\n").replace("\t", "\\t"))


def to_text(form) -> str:
    """*form* written as one line of s-expression text, for messages: a
    symbol as read, a number as its value (``3/2``, ``5``), a string
    quoted with ``\\n`` and ``\\t`` escaped, a list in parentheses.  An
    explicit stack, so a deeply nested form prints too."""
    parts: list = []
    stack = [iter((form,))]
    while stack:
        for item in stack[-1]:
            if parts and parts[-1] != "(":
                parts.append(" ")
            if isinstance(item, list):
                parts.append("(")
                stack.append(iter(item))
                break
            parts.append(item if isinstance(item, Symbol)
                         else quote(item) if isinstance(item, str)
                         else str(item))
        else:
            stack.pop()
            if stack:
                parts.append(")")
    return "".join(parts)


def parse_one(text: str):
    """Read exactly one form; trailing content is an error."""
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError(f"expected exactly one form, found {len(forms)}", 1, 1)
    return forms[0]


def strict(loaded: tuple):
    """The resource of a lenient load's ``(resource, findings)``; a load
    with findings raises ``LoadError`` with them."""
    resource, findings = loaded
    if findings:
        raise LoadError(findings)
    return resource


def load_forms(paths: Iterable | None, text: str | None, prefix: str,
               load_form: Callable) -> list:
    """Call ``load_form(form, findings)`` on every top-level form of an
    inline *text* (named ``<string>``) and then of every file in *paths*,
    and return *findings*.

    A file that cannot be read as UTF-8 raises ``LoadError`` naming it
    before any form is loaded.  A source that does not parse adds one
    ``{prefix}-syntax`` finding naming it and the position.  A handler
    rejects its form by raising ``FormError``, which adds that one finding;
    a handler that finds several faults in one form appends them to
    *findings* itself.  A handler that raises ``SexprError``
    (``ExprSyntaxError`` is one) adds one ``{prefix}-syntax`` finding.
    Every finding a form gives is prefixed with the source and the form's
    line and column (only the source for a number or string, which have no
    position).  Loading goes on with the next source or form."""
    sources = [] if text is None else [("<string>", text)]
    for p in paths or ():
        try:
            sources.append((str(p), Path(p).read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as err:
            reason = getattr(err, "strerror", None) or err
            raise LoadError([Finding(f"{prefix}-read",
                                     f"cannot read {p}: {reason}")]) from err
    findings: list = []
    for name, content in sources:
        try:
            forms = parse_all(content)
        except SexprError as err:
            findings.append(Finding(f"{prefix}-syntax", f"{name}: {err}"))
            continue
        for form in forms:
            before = len(findings)
            try:
                load_form(form, findings)
            except FormError as err:
                findings.append(err.finding)
            except SexprError as err:
                findings.append(Finding(f"{prefix}-syntax", str(err)))
            if len(findings) > before:
                # a number or string atom carries no position
                line = getattr(form, "line", 0)
                where = (f"{name}: form at line {line}, column {form.col}: "
                         if line else f"{name}: ")
                findings[before:] = [Finding(f.code, where + f.message)
                                     for f in findings[before:]]
    return findings
