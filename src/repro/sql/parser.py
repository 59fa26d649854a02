"""Recursive-descent SQL parser.

Grammar (conjunctive WHERE, comma joins — the dialect the paper's example
queries and the SSB queries use):

    select    := SELECT item (',' item)* FROM table (',' table)*
                 [WHERE bool]
                 [GROUP BY expr (',' expr)*]
                 [HAVING bool]
                 [ORDER BY expr [ASC|DESC] (',' ...)*]
                 [LIMIT number] [';']
    item      := '*' | expr [AS ident | ident]
    table     := ident [AS ident | ident]
    bool      := andpred (OR andpred)*           -- AND binds tighter
    andpred   := boolprim (AND boolprim)*
    boolprim  := NOT boolprim | '(' bool ')' | pred
                                                 -- disambiguated by backtrack
    pred      := expr cmp expr | expr BETWEEN expr AND expr
               | expr [NOT] IN '(' literal (',' literal)* ')'
    expr      := term (('+'|'-') term)*
    term      := factor (('*'|'/'|'%') factor)*
    factor    := ['-'] (number | string | '@'ident | qualified
               | agg '(' (expr|'*'|DISTINCT expr) ')' | '(' expr ')')
    qualified := ident ['.' ident]
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.sql.ast_nodes import (
    AGGREGATE_FUNCS,
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    Expr,
    InList,
    Literal,
    Negation,
    OrderItem,
    Parameter,
    Predicate,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize


def _number(text: str) -> int | float:
    """Value of a NUMBER token, an ``int`` when integral (``1e3``, ``2.0``).
    Digit-only text converts exactly: ``float`` rounds it past 2**53."""
    value = float(text)
    if not value.is_integer():
        return value
    return int(text) if text.isdecimal() else int(value)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        # Positional ``?`` placeholders are numbered left to right in
        # lexical order ("0", "1", ...), the order a parameter list
        # passed to ``execute_prepared`` binds them in.
        self._param_ordinal = 0

    # -- token helpers ---------------------------------------------------- #

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != TokenType.END:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word.upper()}, found {token.value!r} "
                f"at offset {token.position}"
            )
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_punct(self, symbol: str) -> Token:
        token = self._peek()
        if token.type != TokenType.PUNCT or token.value != symbol:
            raise ParseError(
                f"expected {symbol!r}, found {token.value!r} "
                f"at offset {token.position}"
            )
        return self._advance()

    def _accept_punct(self, symbol: str) -> bool:
        token = self._peek()
        if token.type == TokenType.PUNCT and token.value == symbol:
            self._advance()
            return True
        return False

    # -- statement --------------------------------------------------------- #

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        select_star = False
        items: list[SelectItem] = []
        if self._accept_punct("*"):
            select_star = True
        else:
            items.append(self._parse_select_item())
            while self._accept_punct(","):
                items.append(self._parse_select_item())
        self._expect_keyword("from")
        tables = [self._parse_table_ref()]
        while self._accept_punct(","):
            tables.append(self._parse_table_ref())
        predicates: list[Predicate] = []
        if self._accept_keyword("where"):
            predicates = self._parse_bool_conjuncts()
        group_by: list[Expr] = []
        having: list[Predicate] = []
        order_by: list[OrderItem] = []
        limit: int | None = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expr())
            while self._accept_punct(","):
                group_by.append(self._parse_expr())
        if self._accept_keyword("having"):
            having = self._parse_bool_conjuncts()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        if self._accept_keyword("limit"):
            token = self._advance()
            if token.type != TokenType.NUMBER:
                raise ParseError(f"LIMIT needs a number, got {token.value!r}")
            limit = int(_number(token.value))
        self._accept_punct(";")
        trailing = self._peek()
        if trailing.type != TokenType.END:
            raise ParseError(
                f"unexpected trailing token {trailing.value!r} "
                f"at offset {trailing.position}"
            )
        return SelectStatement(
            select_items=tuple(items),
            tables=tuple(tables),
            where=tuple(predicates),
            group_by=tuple(group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            select_star=select_star,
        )

    def _parse_select_item(self) -> SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            token = self._advance()
            if token.type != TokenType.IDENT:
                raise ParseError(f"expected alias after AS, got {token.value!r}")
            alias = token.value
        elif self._peek().type == TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        token = self._advance()
        if token.type != TokenType.IDENT:
            raise ParseError(f"expected table name, got {token.value!r}")
        alias = None
        if self._accept_keyword("as"):
            alias_token = self._advance()
            if alias_token.type != TokenType.IDENT:
                raise ParseError("expected alias after AS")
            alias = alias_token.value
        elif self._peek().type == TokenType.IDENT:
            alias = self._advance().value
        return TableRef(name=token.value, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expr=expr, descending=descending)

    # -- predicates ----------------------------------------------------------- #

    def _parse_bool_conjuncts(self) -> list[Predicate]:
        """Parse a boolean expression, flattened to top-level conjuncts."""
        predicate = self._parse_or()
        if isinstance(predicate, Conjunction):
            return list(predicate.parts)
        return [predicate]

    def _parse_or(self) -> Predicate:
        arms = [self._parse_and()]
        while self._accept_keyword("or"):
            arms.append(self._parse_and())
        if len(arms) == 1:
            return arms[0]
        return Disjunction(arms=tuple(arms))

    def _parse_and(self) -> Predicate:
        parts = [self._parse_bool_primary()]
        while self._accept_keyword("and"):
            parts.append(self._parse_bool_primary())
        if len(parts) == 1:
            return parts[0]
        return Conjunction(parts=tuple(parts))

    def _parse_bool_primary(self) -> Predicate:
        if self._accept_keyword("not"):
            return Negation(inner=self._parse_bool_primary())
        # '(' opens either a boolean group or an arithmetic sub-expression;
        # try the boolean reading first and backtrack on failure.
        token = self._peek()
        if token.type == TokenType.PUNCT and token.value == "(":
            saved = self._pos, self._param_ordinal
            self._advance()
            try:
                inner = self._parse_or()
                self._expect_punct(")")
                return inner
            except ParseError:
                self._pos, self._param_ordinal = saved
        return self._parse_predicate()

    def _parse_predicate(self) -> Predicate:
        left = self._parse_expr()
        if self._accept_keyword("between"):
            low = self._parse_expr()
            self._expect_keyword("and")
            high = self._parse_expr()
            return Between(expr=left, low=low, high=high)
        if self._peek().is_keyword("in") or self._peek().is_keyword("not"):
            negated = self._accept_keyword("not")
            self._expect_keyword("in")
            self._expect_punct("(")
            values = [self._parse_literal()]
            while self._accept_punct(","):
                values.append(self._parse_literal())
            self._expect_punct(")")
            in_list = InList(expr=left, values=tuple(values))
            return Negation(inner=in_list) if negated else in_list
        token = self._peek()
        if token.type != TokenType.OPERATOR or token.value not in (
            "=", "<", ">", "<=", ">=", "<>", "!=",
        ):
            raise ParseError(
                f"expected comparison operator, got {token.value!r} "
                f"at offset {token.position}"
            )
        op = self._advance().value
        right = self._parse_expr()
        return Comparison(op=op, left=left, right=right)

    def _parse_literal(self) -> Literal:
        token = self._advance()
        if token.type == TokenType.NUMBER:
            return Literal(_number(token.value))
        if token.type == TokenType.STRING:
            return Literal(token.value)
        raise ParseError(f"expected literal, got {token.value!r}")

    # -- expressions -------------------------------------------------------------- #

    def _parse_expr(self) -> Expr:
        expr = self._parse_term()
        while True:
            token = self._peek()
            if token.type == TokenType.OPERATOR and token.value in ("+", "-"):
                op = self._advance().value
                expr = BinaryOp(op=op, left=expr, right=self._parse_term())
            else:
                return expr

    def _parse_term(self) -> Expr:
        expr = self._parse_factor()
        while True:
            token = self._peek()
            if token.type == TokenType.OPERATOR and token.value in ("/", "%"):
                op = self._advance().value
                expr = BinaryOp(op=op, left=expr, right=self._parse_factor())
            elif token.type == TokenType.PUNCT and token.value == "*":
                self._advance()
                expr = BinaryOp(op="*", left=expr, right=self._parse_factor())
            else:
                return expr

    def _parse_factor(self) -> Expr:
        token = self._peek()
        if token.type == TokenType.OPERATOR and token.value == "-":
            self._advance()
            inner = self._parse_factor()
            return BinaryOp(op="-", left=Literal(0), right=inner)
        token = self._advance()
        if token.type == TokenType.NUMBER:
            return Literal(_number(token.value))
        if token.type == TokenType.STRING:
            return Literal(token.value)
        if token.type == TokenType.PUNCT and token.value == "?":
            name = str(self._param_ordinal)
            self._param_ordinal += 1
            return Parameter(name=name)
        if token.type == TokenType.PUNCT and token.value == "(":
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if token.type == TokenType.KEYWORD and token.value in AGGREGATE_FUNCS:
            return self._parse_aggregate(token.value)
        if token.type == TokenType.IDENT:
            if token.value.startswith("@"):
                return Parameter(name=token.value[1:])
            if self._accept_punct("."):
                column = self._advance()
                if column.type not in (TokenType.IDENT, TokenType.KEYWORD):
                    raise ParseError(
                        f"expected column name after '.', got {column.value!r}"
                    )
                return ColumnRef(table=token.value.lower(), column=column.value.lower())
            return ColumnRef(table=None, column=token.value.lower())
        raise ParseError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _parse_aggregate(self, func: str) -> AggregateCall:
        self._expect_punct("(")
        if self._accept_punct("*"):
            if func != "count":
                raise ParseError(f"{func.upper()}(*) is not valid SQL")
            self._expect_punct(")")
            return AggregateCall(func=func, argument=None)
        self._accept_keyword("distinct")  # parsed, treated as plain agg
        argument = self._parse_expr()
        self._expect_punct(")")
        return AggregateCall(func=func, argument=argument)


def parse(sql: str) -> SelectStatement:
    """Parse SQL text into a :class:`SelectStatement`."""
    return _Parser(tokenize(sql)).parse_select()
