"""Parser for SNAP's concrete syntax (Figure 1 / Appendix F notation).

Accepted grammar (prec: ``+`` < ``;`` < statement; ``|`` < ``&`` < ``!``)::

    policy  := seq ('+' seq)*
    seq     := stmt (';' stmt)*
    stmt    := 'if' pred 'then' policy 'else' stmt
             | 'atomic' '(' policy ')'
             | '(' policy ')'                      -- may continue as pred
             | '!' predicate ...
             | NAME indices? ('<-' expr | '++' | '--' | '=' expr)?
    pred    := andp ('|' andp)*
    andp    := unary ('&' unary)*
    unary   := '!' unary | '(' pred ')' | 'id' | 'drop' | test
    test    := NAME indices? ('=' expr)?           -- bare state ref = True

Identifier resolution: a bare name with no index is, in order, a *binding*
from ``definitions`` (a named sub-policy such as ``assign-egress``), a
*parameter* from ``params`` (e.g. ``threshold``), a known *field*, or a
:class:`Symbol` constant.  A name with indices is a state variable.

``#`` and ``//`` start comments.  The notation follows the paper exactly,
including hyphenated identifiers (``susp-client``), dotted protocol fields
(``dns.rdata``), IP prefixes, and the ``s[e]`` boolean sugar.  A name may
end in one ``@suffix`` — the per-port shards ``count@1`` that
:func:`repro.analysis.sharding.shard_by_inport` generates.
"""

from __future__ import annotations

import re

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.fields import DEFAULT_REGISTRY, FieldRegistry
from repro.lang.values import Symbol
from repro.util.ipaddr import IPPrefix

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<ip>\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}(/\d{1,2})?)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow><-)
  | (?P<incr>\+\+)
  | (?P<decr>--)
  | (?P<op>[=;+&|!()\[\],])
  | (?P<neg>¬)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:[.-][A-Za-z0-9_]+)*(?:@[A-Za-z0-9_]+)?)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset(["if", "then", "else", "id", "drop", "atomic", "True", "False", "not"])


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(source: str):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, column)
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            line += text.count("\n")
            if "\n" in text:
                line_start = match.start() + text.rindex("\n") + 1
        else:
            column = match.start() - line_start + 1
            if kind == "name" and text in _KEYWORDS:
                kind = text if text not in ("True", "False", "not") else kind
                if text in ("True", "False"):
                    kind = "bool"
                elif text == "not":
                    kind = "neg"
                else:
                    kind = text
            tokens.append(_Token(kind, text, line, column))
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, fields: FieldRegistry, definitions, params):
        self.tokens = tokens
        self.pos = 0
        self.fields = fields
        self.definitions = definitions or {}
        self.params = params or {}

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, text: str | None = None):
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.accept(kind, text)
        if token is None:
            got = self.peek()
            want = text or kind
            raise ParseError(f"expected {want!r}, got {got.text!r}", got.line, got.column)
        return token

    def error(self, message: str):
        token = self.peek()
        raise ParseError(message, token.line, token.column)

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ast.Policy:
        policy = self.policy()
        self.expect("eof")
        return policy

    def policy(self) -> ast.Policy:
        left = self.seq()
        while self.accept("op", "+"):
            left = ast.Parallel(left, self.seq())
        return left

    def seq(self) -> ast.Policy:
        left = self.stmt()
        while self.accept("op", ";"):
            left = ast.Seq(left, self.stmt())
        return left

    def stmt(self) -> ast.Policy:
        token = self.peek()
        if token.kind == "if":
            return self.conditional()
        if token.kind == "atomic":
            self.next()
            self.expect("op", "(")
            body = self.policy()
            self.expect("op", ")")
            return ast.Atomic(body)
        if token.kind == "neg" or (token.kind == "op" and token.text == "!"):
            pred = self.pred_unary()
            return self.pred_continue(pred)
        if token.kind == "op" and token.text == "(":
            self.next()
            inner = self.policy()
            self.expect("op", ")")
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text in ("&", "|"):
                if not isinstance(inner, ast.Predicate):
                    self.error("left operand of '&'/'|' must be a predicate")
                return self.pred_continue(inner)
            return inner
        if token.kind == "id":
            self.next()
            return self.pred_continue(ast.Id())
        if token.kind == "drop":
            self.next()
            return self.pred_continue(ast.Drop())
        if token.kind == "name":
            return self.name_statement()
        self.error(f"unexpected token {token.text!r} at start of statement")

    def conditional(self) -> ast.Policy:
        self.expect("if")
        pred = self.predicate()
        self.expect("then")
        then = self.policy()
        self.expect("else")
        orelse = self.stmt()
        return ast.If(pred, then, orelse)

    def name_statement(self) -> ast.Policy:
        name_token = self.expect("name")
        name = name_token.text
        indices = self.indices()
        token = self.peek()
        if token.kind == "arrow":
            self.next()
            value = self.expression()
            if indices:
                return ast.StateMod(name, self._index_expr(indices), value)
            field = self._field_name(name)
            if field is None:
                self.error(f"{name!r} is not a known packet field")
            if not isinstance(value, ast.Value):
                self.error("field modification rhs must be a literal value")
            return ast.Mod(field, value.value)
        if token.kind == "incr":
            self.next()
            if not indices:
                self.error("'++' requires a state variable index")
            return ast.StateIncr(name, self._index_expr(indices))
        if token.kind == "decr":
            self.next()
            if not indices:
                self.error("'--' requires a state variable index")
            return ast.StateDecr(name, self._index_expr(indices))
        pred = self.finish_test(name, indices, name_token)
        return self.pred_continue(pred)

    # -- predicates ---------------------------------------------------

    def predicate(self) -> ast.Predicate:
        left = self.pred_and()
        while self.accept("op", "|"):
            left = ast.Or(left, self.pred_and())
        return left

    def pred_and(self) -> ast.Predicate:
        left = self.pred_unary()
        while self.accept("op", "&"):
            left = ast.And(left, self.pred_unary())
        return left

    def pred_unary(self) -> ast.Predicate:
        token = self.peek()
        if token.kind == "neg" or (token.kind == "op" and token.text == "!"):
            self.next()
            return ast.Not(self.pred_unary())
        if token.kind == "op" and token.text == "(":
            self.next()
            pred = self.predicate()
            self.expect("op", ")")
            return pred
        if token.kind == "id":
            self.next()
            return ast.Id()
        if token.kind == "drop":
            self.next()
            return ast.Drop()
        if token.kind == "name":
            name_token = self.next()
            indices = self.indices()
            return self.finish_test(name_token.text, indices, name_token)
        self.error(f"expected a predicate, got {token.text!r}")

    def pred_continue(self, left: ast.Predicate) -> ast.Predicate:
        """Continue parsing '&'/'|' operators after a parsed atom."""
        while True:
            if self.accept("op", "&"):
                left = ast.And(left, self.pred_unary())
            elif self.accept("op", "|"):
                right = self.pred_and()
                left = ast.Or(left, right)
            else:
                return left

    def finish_test(self, name: str, indices, name_token) -> ast.Predicate:
        if self.accept("op", "="):
            rhs = self.expression()
            if indices:
                return ast.StateTest(name, self._index_expr(indices), rhs)
            field = self._field_name(name)
            if field is None:
                raise ParseError(
                    f"{name!r} is not a known packet field (register it or "
                    "declare it as a state variable with an index)",
                    name_token.line,
                    name_token.column,
                )
            if isinstance(rhs, ast.Field):
                raise ParseError(
                    "field-field tests are not part of SNAP's source syntax "
                    "(they arise only inside xFDDs)",
                    name_token.line,
                    name_token.column,
                )
            if not isinstance(rhs, ast.Value):
                raise ParseError(
                    "rhs of a field test must be a literal value",
                    name_token.line,
                    name_token.column,
                )
            return ast.Test(field, rhs.value)
        if indices:
            # Boolean sugar: bare ``s[e]`` means ``s[e] = True`` (Fig. 1, l.8).
            return ast.StateTest(name, self._index_expr(indices), True)
        # A bare name: named sub-policy, or error.
        if name in self.definitions:
            bound = self.definitions[name]
            if isinstance(bound, ast.Predicate):
                return bound
            # A non-predicate binding is fine in statement position; the
            # caller (pred_continue) only allows &/| on predicates, which
            # will fail naturally if misused.
            return bound
        raise ParseError(
            f"unknown identifier {name!r} (not a definition, parameter, or "
            "state reference)",
            name_token.line,
            name_token.column,
        )

    # -- expressions ----------------------------------------------------

    def indices(self):
        indices = []
        while self.accept("op", "["):
            indices.append(self.expression())
            self.expect("op", "]")
        return indices

    def _index_expr(self, indices) -> ast.Expr:
        return indices[0] if len(indices) == 1 else ast.Vector(indices)

    def expression(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "int":
            self.next()
            return ast.Value(int(token.text))
        if token.kind == "ip":
            self.next()
            prefix = IPPrefix(token.text)
            # A /32 literal is just an address value; keep prefixes as tests.
            return ast.Value(prefix.network if prefix.is_host else prefix)
        if token.kind == "bool":
            self.next()
            return ast.Value(token.text == "True")
        if token.kind == "string":
            self.next()
            raw = token.text[1:-1]
            return ast.Value(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if token.kind == "op" and token.text == "(":
            self.next()
            items = [self.expression()]
            while self.accept("op", ","):
                items.append(self.expression())
            self.expect("op", ")")
            if len(items) == 1:
                return items[0]
            return ast.Vector(items)
        if token.kind == "name":
            self.next()
            name = token.text
            if name in self.params:
                return ast.as_expr(self.params[name])
            field = self._field_name(name)
            if field is not None:
                return ast.Field(field)
            return ast.Value(Symbol(name))
        self.error(f"expected an expression, got {token.text!r}")

    def _field_name(self, name: str) -> str | None:
        """Canonical (lowercase) field name, or None if not a field."""
        lowered = name.lower()
        if lowered in self.fields:
            return lowered
        return None


def parse(
    source: str,
    fields: FieldRegistry | None = None,
    definitions: dict | None = None,
    params: dict | None = None,
) -> ast.Policy:
    """Parse SNAP source text into a policy AST.

    ``definitions`` binds bare names to previously built policies (so
    programs can reference ``assign-egress`` etc.); ``params`` substitutes
    named constants such as ``threshold``.
    """
    registry = fields or DEFAULT_REGISTRY
    tokens = _tokenize(source)
    return _Parser(tokens, registry, definitions, params).parse()


def parse_predicate(
    source: str,
    fields: FieldRegistry | None = None,
    params: dict | None = None,
) -> ast.Predicate:
    """Parse text that must denote a predicate (e.g. an ``assumption``)."""
    policy = parse(source, fields=fields, params=params)
    if not isinstance(policy, ast.Predicate):
        # Predicates built with + / ; of predicates are semantically
        # predicates but structurally policies; reject for clarity.
        if isinstance(policy, (ast.Parallel, ast.Seq)):
            rebuilt = _as_predicate(policy)
            if rebuilt is not None:
                return rebuilt
        raise ParseError("expected a predicate, got a policy with effects")
    return policy


def _as_predicate(policy: ast.Policy):
    """Rebuild + / ; over predicates as | / & (they coincide on predicates)."""
    if isinstance(policy, ast.Predicate):
        return policy
    if isinstance(policy, ast.Parallel):
        left = _as_predicate(policy.left)
        right = _as_predicate(policy.right)
        if left is not None and right is not None:
            return ast.Or(left, right)
    if isinstance(policy, ast.Seq):
        left = _as_predicate(policy.left)
        right = _as_predicate(policy.right)
        if left is not None and right is not None:
            return ast.And(left, right)
    return None
