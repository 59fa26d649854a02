"""Abstract syntax tree for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass

AGGREGATE_FUNCS = ("sum", "count", "avg", "min", "max")


class Expr:
    """Base class for scalar expressions."""

    def walk(self):
        """Yield this node and all descendants."""
        yield self


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference ``table.column``."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal(Expr):
    """A number or string constant."""

    value: float | int | str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expr):
    """A named ``@parameter`` substituted at execution time."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic over two sub-expressions."""

    op: str
    left: Expr
    right: Expr

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class AggregateCall(Expr):
    """SUM/COUNT/AVG/MIN/MAX over an expression (or ``*`` for COUNT)."""

    func: str
    argument: Expr | None  # None encodes COUNT(*)

    def walk(self):
        yield self
        if self.argument is not None:
            yield from self.argument.walk()

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        return f"{self.func.upper()}({inner})"


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


class Predicate:
    """Base class for WHERE-clause conjuncts."""


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left op right`` with op in =, <, >, <=, >=, <>, !=."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Between(Predicate):
    """``expr BETWEEN low AND high`` (inclusive)."""

    expr: Expr
    low: Expr
    high: Expr

    def __str__(self) -> str:
        return f"{self.expr} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList(Predicate):
    """``expr IN (v1, v2, ...)``."""

    expr: Expr
    values: tuple[Literal, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.expr} IN ({inner})"


@dataclass(frozen=True)
class Negation(Predicate):
    """``NOT predicate`` (also encodes ``expr NOT IN (...)``)."""

    inner: Predicate

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """AND of sub-predicates (appears inside OR arms and parentheses)."""

    parts: tuple[Predicate, ...]

    def __str__(self) -> str:
        return "(" + " AND ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Disjunction(Predicate):
    """OR of sub-predicates (each arm may itself be a conjunction)."""

    arms: tuple[Predicate, ...]

    def __str__(self) -> str:
        return "(" + " OR ".join(str(a) for a in self.arms) + ")"


def evaluate_literal_arithmetic(
    op: str, left: float, right: float
) -> float | None:
    """Literal arithmetic with the runtime's float64 semantics, or
    ``None`` when folding would change behaviour (zero divisors produce
    runtime-specific NaN/identity handling, so they stay unfolded)."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right if right != 0.0 else None
    if op == "%":
        return left % right if right != 0.0 else None
    return None


def fold_constants(expr: Expr) -> Expr:
    """Collapse literal-only arithmetic into a single :class:`Literal`.

    The parser has no unary minus node — ``-5`` parses as
    ``(0 - 5)`` — and parameter substitution can likewise leave
    all-literal arithmetic behind.  Statistics-based chunk pruning and
    selectivity estimation only see through plain literals, so an
    unfolded constant silently disables both (every chunk scanned).
    Folding produces a *float* literal because the runtime evaluates
    arithmetic in float64; string operands never fold.
    """
    if isinstance(expr, BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if (
            isinstance(left, Literal)
            and isinstance(right, Literal)
            and not isinstance(left.value, str)
            and not isinstance(right.value, str)
        ):
            value = evaluate_literal_arithmetic(
                expr.op, float(left.value), float(right.value)
            )
            if value is not None:
                return Literal(value)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOp(op=expr.op, left=left, right=right)
    if isinstance(expr, AggregateCall) and expr.argument is not None:
        argument = fold_constants(expr.argument)
        if argument is expr.argument:
            return expr
        return AggregateCall(func=expr.func, argument=argument)
    return expr


def walk_predicate_exprs(predicate: Predicate):
    """Yield every scalar expression appearing inside a predicate tree."""
    if isinstance(predicate, Comparison):
        yield predicate.left
        yield predicate.right
    elif isinstance(predicate, Between):
        yield predicate.expr
        yield predicate.low
        yield predicate.high
    elif isinstance(predicate, InList):
        yield predicate.expr
    elif isinstance(predicate, Negation):
        yield from walk_predicate_exprs(predicate.inner)
    elif isinstance(predicate, Conjunction):
        for part in predicate.parts:
            yield from walk_predicate_exprs(part)
    elif isinstance(predicate, Disjunction):
        for arm in predicate.arms:
            yield from walk_predicate_exprs(arm)
    else:
        raise TypeError(f"unknown predicate {predicate!r}")


def map_predicate_exprs(predicate: Predicate, fn) -> Predicate:
    """Rebuild a predicate tree with ``fn`` applied to each expression."""
    if isinstance(predicate, Comparison):
        return Comparison(op=predicate.op, left=fn(predicate.left),
                          right=fn(predicate.right))
    if isinstance(predicate, Between):
        return Between(expr=fn(predicate.expr), low=fn(predicate.low),
                       high=fn(predicate.high))
    if isinstance(predicate, InList):
        return InList(expr=fn(predicate.expr), values=predicate.values)
    if isinstance(predicate, Negation):
        return Negation(inner=map_predicate_exprs(predicate.inner, fn))
    if isinstance(predicate, Conjunction):
        return Conjunction(parts=tuple(
            map_predicate_exprs(p, fn) for p in predicate.parts
        ))
    if isinstance(predicate, Disjunction):
        return Disjunction(arms=tuple(
            map_predicate_exprs(a, fn) for a in predicate.arms
        ))
    raise TypeError(f"unknown predicate {predicate!r}")


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT with conjunctive WHERE predicates."""

    select_items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: tuple[Predicate, ...] = ()
    group_by: tuple[Expr, ...] = ()
    having: tuple[Predicate, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    select_star: bool = False

    def aggregates(self) -> list[AggregateCall]:
        """All aggregate calls appearing in the select list."""
        found: list[AggregateCall] = []
        for item in self.select_items:
            found.extend(
                node for node in item.expr.walk()
                if isinstance(node, AggregateCall)
            )
        return found

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates())
