"""AS-path regular expressions (router-style as-path access lists).

The paper notes routing policies "have been growing in size and
complexity" since the NSFNet; the workhorse of that complexity on real
routers is the *as-path access list*: a regular expression over AS
numbers.  This module implements the classic dialect:

=========  =========================================================
token      meaning
=========  =========================================================
``1239``   matches the AS number 1239
``.``      matches any single AS
``_``      matches a boundary (start, end, or between two ASes) —
           so ``_701_`` means "701 appears anywhere on the path"
``^`` /    anchors at the start / end of the path
``$``
``*`` /    zero-or-more / one-or-more / zero-or-one of the previous
``+`` /    element
``?``
``[ ]``    an AS-number set, e.g. ``[701 1239 3561]``
``( )``    grouping
``|``      alternation (between groups or elements)
=========  =========================================================

Implementation: the pattern compiles to an NFA evaluated with the
standard simultaneous-state-set algorithm (linear in path length, no
exponential backtracking), so hostile patterns cannot blow up the
simulated router CPU beyond the modelled policy cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple


__all__ = ["AsPathRegexError", "AsPathRegex", "compile_regex"]


class AsPathRegexError(ValueError):
    """Raised for malformed patterns."""


# -- tokens -------------------------------------------------------------------

_BOUNDARY = "_"


def _tokenize(pattern: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(pattern) and pattern[j].isdigit():
                j += 1
            tokens.append(pattern[i:j])
            i = j
        elif ch in ".^$*+?()|[]_":
            tokens.append(ch)
            i += 1
        else:
            raise AsPathRegexError(
                f"unexpected character {ch!r} in pattern {pattern!r}"
            )
    return tokens


# -- NFA construction (Thompson-style) ------------------------------------------
#
# States are integers; transitions are (state, matcher, next_state)
# where matcher is one of:
#   ("as", frozenset) — consume one AS in the set (empty set = any)
#   ("any",)          — consume any one AS
#   ("bound",)        — zero-width boundary assertion
#   ("eps",)          — epsilon


@dataclass
class _Fragment:
    start: int
    accepts: List[int]


class _Builder:
    def __init__(self) -> None:
        self.transitions: List[Tuple[int, tuple, int]] = []
        self._next_state = 0

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def add(self, src: int, matcher: tuple, dst: int) -> None:
        self.transitions.append((src, matcher, dst))


class _Parser:
    """Recursive-descent pattern parser producing an NFA fragment."""

    def __init__(self, tokens: List[str], builder: _Builder) -> None:
        self.tokens = tokens
        self.pos = 0
        self.nfa = builder

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise AsPathRegexError("unexpected end of pattern")
        self.pos += 1
        return token

    # alternation := concat ('|' concat)*
    def parse_alternation(self) -> _Fragment:
        fragments = [self.parse_concat()]
        while self.peek() == "|":
            self.take()
            fragments.append(self.parse_concat())
        if len(fragments) == 1:
            return fragments[0]
        start = self.nfa.new_state()
        accepts: List[int] = []
        for fragment in fragments:
            self.nfa.add(start, ("eps",), fragment.start)
            accepts.extend(fragment.accepts)
        return _Fragment(start, accepts)

    # concat := repeated+
    def parse_concat(self) -> _Fragment:
        fragments: List[_Fragment] = []
        while self.peek() is not None and self.peek() not in ("|", ")"):
            fragments.append(self.parse_repeated())
        if not fragments:
            # empty branch: match the empty path
            state = self.nfa.new_state()
            return _Fragment(state, [state])
        current = fragments[0]
        for nxt in fragments[1:]:
            for accept in current.accepts:
                self.nfa.add(accept, ("eps",), nxt.start)
            current = _Fragment(current.start, nxt.accepts)
        return current

    # repeated := atom ('*' | '+' | '?')?
    def parse_repeated(self) -> _Fragment:
        fragment = self.parse_atom()
        suffix = self.peek()
        if suffix not in ("*", "+", "?"):
            return fragment
        self.take()
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        self.nfa.add(start, ("eps",), fragment.start)
        for accept in fragment.accepts:
            self.nfa.add(accept, ("eps",), end)
            if suffix in ("*", "+"):
                self.nfa.add(accept, ("eps",), fragment.start)  # loop
        if suffix in ("*", "?"):
            self.nfa.add(start, ("eps",), end)  # skip
        return _Fragment(start, [end])

    # atom := ASN | '.' | '_' | '[' set ']' | '(' alternation ')'
    def parse_atom(self) -> _Fragment:
        token = self.take()
        if token.isdigit():
            return self._single(("as", frozenset({int(token)})))
        if token == ".":
            return self._single(("any",))
        if token == _BOUNDARY:
            return self._single(("bound",))
        if token == "[":
            members: Set[int] = set()
            while True:
                inner = self.take()
                if inner == "]":
                    break
                if not inner.isdigit():
                    raise AsPathRegexError(
                        f"AS set may only contain AS numbers, got {inner!r}"
                    )
                members.add(int(inner))
            if not members:
                raise AsPathRegexError("empty AS set")
            return self._single(("as", frozenset(members)))
        if token == "(":
            fragment = self.parse_alternation()
            closing = self.take()
            if closing != ")":
                raise AsPathRegexError("unbalanced parenthesis")
            return fragment
        raise AsPathRegexError(f"unexpected token {token!r}")

    def _single(self, matcher: tuple) -> _Fragment:
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        self.nfa.add(start, matcher, end)
        return _Fragment(start, [end])


class AsPathRegex:
    """A compiled AS-path regular expression.

    Use :func:`compile_regex` (or ``AsPathRegex(pattern)``) and call
    :meth:`search` for the router-style match (unanchored unless the
    pattern carries ``^`` / ``$``).
    """

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern.strip()
        anchored_start = self.pattern.startswith("^")
        anchored_end = self.pattern.endswith("$") and not self.pattern.endswith("\\$")
        body = self.pattern
        if anchored_start:
            body = body[1:]
        if anchored_end:
            body = body[:-1]
        self.anchored_start = anchored_start
        self.anchored_end = anchored_end
        builder = _Builder()
        parser = _Parser(_tokenize(body), builder)
        fragment = parser.parse_alternation()
        if parser.peek() is not None:
            raise AsPathRegexError(
                f"trailing tokens at {parser.pos} in {pattern!r}"
            )
        self._start = fragment.start
        self._accepts = set(fragment.accepts)
        # Index transitions by source state.
        self._by_state: dict = {}
        for src, matcher, dst in builder.transitions:
            self._by_state.setdefault(src, []).append((matcher, dst))

    # -- evaluation ---------------------------------------------------------

    def _epsilon_closure(self, states: Set[int], at_boundary: bool) -> Set[int]:
        stack = list(states)
        closure = set(states)
        while stack:
            state = stack.pop()
            for matcher, dst in self._by_state.get(state, ()):
                if matcher[0] == "eps" or (
                    matcher[0] == "bound" and at_boundary
                ):
                    if dst not in closure:
                        closure.add(dst)
                        stack.append(dst)
        return closure

    def _run(self, path: Sequence[int], start_index: int) -> bool:
        """True if the NFA accepts some substring starting at
        ``start_index`` (ending anywhere unless end-anchored)."""
        n = len(path)
        states = self._epsilon_closure({self._start}, at_boundary=True)
        index = start_index
        while True:
            if states & self._accepts:
                if not self.anchored_end or index == n:
                    return True
            if index >= n:
                return False
            symbol = path[index]
            next_states: Set[int] = set()
            for state in states:
                for matcher, dst in self._by_state.get(state, ()):
                    kind = matcher[0]
                    if kind == "any":
                        next_states.add(dst)
                    elif kind == "as" and symbol in matcher[1]:
                        next_states.add(dst)
            index += 1
            if not next_states:
                return False
            states = self._epsilon_closure(
                next_states, at_boundary=True
            )

    def search(self, path: Iterable[int]) -> bool:
        """Router semantics: unanchored unless ^/$ are present."""
        sequence = tuple(path)
        if self.anchored_start:
            return self._run(sequence, 0)
        for start in range(len(sequence) + 1):
            if self._run(sequence, start):
                return True
        return False

    def __repr__(self) -> str:
        return f"AsPathRegex({self.pattern!r})"


def compile_regex(pattern: str) -> AsPathRegex:
    """Compile a router-style AS-path regular expression."""
    return AsPathRegex(pattern)
