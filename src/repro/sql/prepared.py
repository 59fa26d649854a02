"""Prepared statements: parse/bind once, execute many times.

Follows the "parse once, process once" single-pass statement design:
:func:`prepare_statement` runs the front end exactly once — tokenize,
parse, then *deferred* binding (``bind(..., defer=True)``), which
resolves every column and classifies every predicate while leaving
:class:`~repro.sql.ast_nodes.Parameter` placeholders in place.  The
result is an immutable :class:`PreparedStatement`: normalized SQL text
(the program-cache key), typed parameter slots, and the bound template
query.  Executing it later only substitutes literals into the already
classified predicate lists (:meth:`PreparedStatement.bind_execution`) —
no re-parsing, no re-resolution, and (with a
:class:`~repro.engine.cache.ProgramCache`) no re-lowering.

Placeholder spellings: ``@name`` binds by name, ``?`` binds by position
(the parser numbers them "0", "1", ... left to right).  Parameters can
appear anywhere a scalar expression can — filters, residual predicates,
HAVING, select arithmetic, ORDER BY — but not inside ``IN (...)``
lists, which the grammar restricts to literals.

Raw SQL reaches the same template through :func:`parameterize`, the
normalize stage: text that differs only in WHERE / HAVING literals
shares one prepared statement and one compiled program
(docs/serving.md, "What becomes a parameter").

Thread-safety: :class:`PreparedStatement` is immutable after
construction and ``bind_execution`` builds a fresh
:class:`~repro.sql.binder.BoundQuery` per call, so one prepared
statement may be shared and executed by any number of threads
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.common.errors import BindError
from repro.sql.ast_nodes import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    OrderItem,
    Parameter,
    Predicate,
    SelectItem,
    SelectStatement,
    fold_constants,
    walk_predicate_exprs,
)
from repro.sql.binder import (
    BoundQuery,
    _substitute_predicate,
    bind,
    param_map,
    substitute_parameters,
)
from repro.sql.lexer import NUMBER, STRING_TAIL, unquote
from repro.sql.parser import _number
from repro.storage.catalog import Catalog
from repro.storage.types import DataType


@dataclass(frozen=True)
class ParameterSlot:
    """One placeholder of a prepared statement.

    ``positional`` marks slots spelled ``?`` (bound by list position);
    ``dtype`` is the column type the placeholder is compared against
    when that is derivable from a filter/HAVING comparison, else None.
    """

    name: str
    positional: bool
    dtype: DataType | None = None

    def __str__(self) -> str:
        label = "?" if self.positional else f"@{self.name}"
        return f"{label}:{self.dtype.name if self.dtype else 'any'}"


@dataclass(frozen=True)
class PreparedStatement:
    """An immutable compile-once query template.

    ``bound`` is the deferred-bound template: columns resolved,
    predicates classified, parameters still symbolic.  ``normalized_sql``
    is the deterministic rendering of the parsed AST — two textual
    spellings of the same statement normalize identically, and parameter
    markers render as markers, so it is the cache key that lets every
    parameter binding share one compiled program.  ``bound`` holds
    ``Table`` objects; ``fingerprint`` is the catalog's when they were
    resolved, and engines re-bind ``statement`` once it has moved on.
    """

    sql: str
    normalized_sql: str
    statement: SelectStatement
    bound: BoundQuery
    slots: tuple[ParameterSlot, ...]
    fingerprint: tuple

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(slot.name for slot in self.slots)

    def bind_execution(
        self, params: dict[str, object] | list | tuple | None = None
    ) -> tuple[BoundQuery, dict[str, object]]:
        """Substitute parameter values into the template.

        Returns ``(exec_bound, values)``: a fresh, fully literal
        :class:`BoundQuery` sharing the template's resolution work, and
        the normalized name->value dict (for program specialization).
        Raises :class:`BindError` on missing, unknown, or non-scalar
        values.
        """
        values = param_map(params)
        known = {slot.name for slot in self.slots}
        unknown = sorted(set(values) - known)
        if unknown:
            raise BindError(
                f"unknown parameter(s) {unknown} for prepared statement "
                f"expecting [{', '.join(self.parameter_names)}]"
            )
        missing = [name for name in self.parameter_names
                   if name not in values]
        if missing:
            raise BindError(
                f"missing value(s) for parameter(s) {missing}"
            )
        if not self.slots:
            return self.bound, {}
        return _substitute_bound(self.bound, values), values


# The lexemes that matter to lifting, found without visiting the names
# between them.  A match starts on one character that cannot be part of
# a name (the pattern opens with that set, so the search skips names at
# C speed) and is either what the character opens — a comment or string,
# consumed whole so nothing inside reads as a literal; or a "stop": a
# placeholder, ``)``, a quote that never closes — or the number or
# clause keyword right behind it.  So no digit of ``p_brand1`` and no
# column ``t.limit`` is taken; a keyword glued to a literal (``5group``)
# is missed, which only ever leaves literals unlifted.  NUMBER and the
# string tails are the tokenizer's own patterns.
_OPENED_STRING = "|".join(
    rf"(?<={quote}){tail}" for quote, tail in STRING_TAIL.items())
_LIFT = re.compile(
    r"[^\w#.](?:(?<=[-'\"?@)])(?:(?<=-)-[^\n]*"
    rf"|(?P<string>{_OPENED_STRING})|(?<=[^-])(?P<stop>))"
    rf"|(?=[\d.wWhHgGoOlLiI])(?:(?P<number>{NUMBER})"
    r"|(?P<clause>(?i:where|having|group|order|limit|in))(?![\w#])))"
)


def parameterize(sql: str) -> tuple[str, list[int | float | str]] | None:
    """Lift WHERE / HAVING literals into positional ``?`` parameters.

    Returns ``(template text, values in lexical order)``, or ``None``
    when the text is to be prepared as written: it already carries
    ``?`` / ``@name`` placeholders, or a string never closes.  Select
    list, GROUP BY and ORDER BY literals stay because lowering reads
    them (``SUM(x * 5)`` changes the route); IN-lists and LIMIT because
    the grammar takes literals only there.  Values follow the parser's
    own rule (``_number``: digit-only text stays an exact ``int``), so
    ``parse(template)`` with the values substituted is ``parse(sql)``.
    """
    pieces: list[str] = []
    values: list[int | float | str] = []
    lifting = in_list = False
    copied = 0
    for match in _LIFT.finditer(sql):
        kind = match.lastgroup
        if kind is None:  # a comment
            continue
        if kind == "clause":
            word = match.group(kind).lower()
            if word == "in":
                in_list = True
            else:
                lifting = word in ("where", "having")
        elif kind == "stop":
            if match.group() != ")":
                return None
            in_list = False
        elif lifting and not in_list:
            # A string starts on the match's first character, a number
            # behind it.
            start = match.start() + (kind == "number")
            text = sql[start:match.end()]
            pieces += (sql[copied:start], "?")
            copied = match.end()
            values.append(_number(text) if kind == "number"
                          else unquote(text))
    pieces.append(sql[copied:])
    return "".join(pieces), values


def _substitute_expr(expr: Expr, values: dict[str, object]) -> Expr:
    return fold_constants(substitute_parameters(expr, values))


def _substitute_bound(
    template: BoundQuery, values: dict[str, object]
) -> BoundQuery:
    """A literal execution bound from a parameter-typed template.

    Resolution artifacts (tables, column resolution, join predicates,
    group keys) are value-independent and shared; everything that can
    carry an expression is substituted and re-folded.
    """
    return BoundQuery(
        statement=template.statement,
        tables=template.tables,
        resolution=template.resolution,
        join_predicates=template.join_predicates,
        filters={
            binding: [_substitute_predicate(p, values) for p in conjuncts]
            for binding, conjuncts in template.filters.items()
        },
        select_items=[
            SelectItem(expr=_substitute_expr(item.expr, values),
                       alias=item.alias)
            for item in template.select_items
        ],
        group_by=template.group_by,
        order_by=[
            OrderItem(expr=_substitute_expr(item.expr, values),
                      descending=item.descending)
            for item in template.order_by
        ],
        limit=template.limit,
        residuals=[_substitute_predicate(p, values)
                   for p in template.residuals],
        having=[_substitute_predicate(p, values) for p in template.having],
        group_exprs={
            key: _substitute_expr(expr, values)
            for key, expr in template.group_exprs.items()
        },
    )


def _iter_statement_exprs(statement: SelectStatement):
    """Every expression of the statement, in clause order — the order
    the parser numbered positional markers in."""
    for item in statement.select_items:
        yield item.expr
    for predicate in statement.where:
        yield from walk_predicate_exprs(predicate)
    yield from statement.group_by
    for predicate in statement.having:
        yield from walk_predicate_exprs(predicate)
    for item in statement.order_by:
        yield item.expr


def _collect_parameters(statement: SelectStatement) -> list[Parameter]:
    """Distinct parameters in first-appearance (clause) order."""
    seen: dict[str, Parameter] = {}
    for expr in _iter_statement_exprs(statement):
        for node in expr.walk():
            if isinstance(node, Parameter) and node.name not in seen:
                seen[node.name] = node
    return list(seen.values())


def _infer_slot_types(
    statement: SelectStatement, bound: BoundQuery
) -> dict[str, DataType]:
    """Parameter name -> column dtype, where a filter/HAVING comparison
    pins the placeholder against a resolvable column."""

    def column_dtype(expr: Expr) -> DataType | None:
        if isinstance(expr, ColumnRef):
            resolved = bound.resolution.get(expr)
            return resolved.dtype if resolved else None
        return None

    inferred: dict[str, DataType] = {}

    def note(param: Expr, other: Expr) -> None:
        if isinstance(param, Parameter) and param.name not in inferred:
            dtype = column_dtype(other)
            if dtype is not None:
                inferred[param.name] = dtype

    def visit(predicate: Predicate) -> None:
        if isinstance(predicate, Comparison):
            note(predicate.left, predicate.right)
            note(predicate.right, predicate.left)
        elif isinstance(predicate, Between):
            note(predicate.low, predicate.expr)
            note(predicate.high, predicate.expr)

    for predicate in statement.where:
        visit(predicate)
    for predicate in statement.having:
        visit(predicate)
    return inferred


def render_statement(statement: SelectStatement) -> str:
    """Deterministic one-line rendering of a parsed statement.

    Normalizes whitespace, keyword case, and literal spelling (via the
    AST nodes' canonical ``__str__``); parameter markers render as
    ``@name`` markers, so every binding of the same template renders to
    the same text.  This is the program-cache key.
    """
    if statement.select_star:
        select = "*"
    else:
        select = ", ".join(
            f"{item.expr} AS {item.alias}" if item.alias else str(item.expr)
            for item in statement.select_items
        )
    tables = ", ".join(
        f"{ref.name} AS {ref.alias}" if ref.alias else ref.name
        for ref in statement.tables
    )
    parts = [f"SELECT {select}", f"FROM {tables}"]
    if statement.where:
        parts.append(
            "WHERE " + " AND ".join(str(p) for p in statement.where)
        )
    if statement.group_by:
        parts.append(
            "GROUP BY " + ", ".join(str(e) for e in statement.group_by)
        )
    if statement.having:
        parts.append(
            "HAVING " + " AND ".join(str(p) for p in statement.having)
        )
    if statement.order_by:
        parts.append("ORDER BY " + ", ".join(
            f"{item.expr} DESC" if item.descending else str(item.expr)
            for item in statement.order_by
        ))
    if statement.limit is not None:
        parts.append(f"LIMIT {statement.limit}")
    return " ".join(parts)


def prepare_statement(
    statement: SelectStatement, catalog: Catalog, sql: str = ""
) -> PreparedStatement:
    """Build the compile-once template for a parsed statement."""
    fingerprint = catalog.fingerprint()
    bound = bind(statement, catalog, defer=True)
    parameters = _collect_parameters(statement)
    types = _infer_slot_types(statement, bound)
    slots = tuple(
        ParameterSlot(
            name=param.name,
            positional=param.name.isdigit(),
            dtype=types.get(param.name),
        )
        for param in parameters
    )
    return PreparedStatement(
        sql=sql,
        normalized_sql=render_statement(statement),
        statement=statement,
        bound=bound,
        slots=slots,
        fingerprint=fingerprint,
    )
