"""Name/type resolution of parsed queries against a catalog.

The binder resolves every :class:`ColumnRef` to a unique (table binding,
column, type), substitutes ``@parameters``, classifies WHERE conjuncts
into per-table filters vs join predicates, and validates the aggregate
structure.  Both the baseline engines' planner and TCUDB's pattern
matcher consume the resulting :class:`BoundQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.common.errors import BindError
from repro.sql.ast_nodes import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    OrderItem,
    Parameter,
    Predicate,
    SelectItem,
    SelectStatement,
    fold_constants,
    map_predicate_exprs,
    walk_predicate_exprs,
)
from repro.storage.catalog import Catalog
from repro.storage.statistics import ColumnStats
from repro.storage.table import Table
from repro.storage.types import DataType


#: Pseudo-binding of computed GROUP BY keys (``GROUP BY d_year % 10``).
#: ``#`` cannot appear in a SQL identifier, so the binding never collides
#: with a FROM-clause table; the planner's ``Compute`` node materializes
#: the expression under ``#group.gN`` before aggregation.
COMPUTED_GROUP_BINDING = "#group"


@dataclass(frozen=True)
class BoundColumn:
    """A column reference resolved to a unique table binding."""

    binding: str  # FROM-clause alias (lowercase)
    column: str  # column name (lowercase)
    dtype: DataType

    @property
    def key(self) -> str:
        return f"{self.binding}.{self.column}"

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class BoundTable:
    binding: str
    table: Table


@dataclass(frozen=True)
class JoinPredicate:
    """A comparison between columns of two different tables."""

    op: str
    left: BoundColumn
    right: BoundColumn

    @property
    def is_equi(self) -> bool:
        return self.op == "="


@dataclass
class BoundQuery:
    """A fully resolved SELECT."""

    statement: SelectStatement
    tables: list[BoundTable]
    resolution: dict[ColumnRef, BoundColumn]
    join_predicates: list[JoinPredicate]
    filters: dict[str, list[Predicate]]  # binding -> local conjuncts
    select_items: list[SelectItem]
    group_by: list[BoundColumn]
    order_by: list[OrderItem]
    limit: int | None = None
    # Conjuncts spanning several tables without being join conditions
    # (e.g. cross-table ORs); applied after the joins.
    residuals: list[Predicate] = field(default_factory=list)
    having: list[Predicate] = field(default_factory=list)
    # Computed GROUP BY keys: ``#group.gN`` key -> bound expression.  The
    # matching BoundColumn (binding COMPUTED_GROUP_BINDING) appears in
    # ``group_by``; the planner projects the expression before Aggregate.
    group_exprs: dict[str, Expr] = field(default_factory=dict)

    def binding(self, name: str) -> BoundTable:
        for bound in self.tables:
            if bound.binding == name:
                return bound
        raise BindError(f"no table bound as {name!r}")

    def resolve(self, ref: ColumnRef) -> BoundColumn:
        bound = self.resolution.get(ref)
        if bound is None:
            raise BindError(f"unresolved column reference {ref}")
        return bound

    def column_stats(self, column: BoundColumn) -> ColumnStats:
        return self.binding(column.binding).table.stats(column.column)

    def aggregates(self) -> list[AggregateCall]:
        return self.statement.aggregates()

    @cached_property
    def read_past_filters(self) -> frozenset[str]:
        """Keys of the columns something past the per-table scan filters
        reads: join and group keys, select / ORDER BY / computed group
        expressions, residual and HAVING predicates.  A column only its
        own table's filters read is needed for the scan's mask alone."""
        columns = {column for join in self.join_predicates
                   for column in (join.left, join.right)}
        columns.update(self.group_by)
        exprs = [item.expr for item in (*self.select_items, *self.order_by)]
        exprs.extend(self.group_exprs.values())
        for predicate in (*self.residuals, *self.having):
            exprs.extend(walk_predicate_exprs(predicate))
        columns.update(self.resolution.get(node) for expr in exprs
                       for node in expr.walk() if isinstance(node, ColumnRef))
        return frozenset(column.key for column in columns
                         if column is not None)

    @property
    def has_aggregates(self) -> bool:
        return bool(self.aggregates())


def substitute_parameters(
    expr: Expr,
    params: dict[str, object],
    defer: bool = False,
) -> Expr:
    """Replace @parameters with literals, recursively.

    With ``defer=True`` a parameter without a supplied value is left in
    place instead of raising — the deferred-binding mode ``prepare``
    uses to build a reusable parameter-typed template.  Statistics
    treat the surviving :class:`Parameter` nodes as unknown values
    (default selectivity, no pruning), so the template's structure is
    valid for *every* later parameter binding.
    """
    if isinstance(expr, Parameter):
        if expr.name not in params:
            if defer:
                return expr
            raise BindError(f"missing value for parameter @{expr.name}")
        value = params[expr.name]
        if not isinstance(value, (int, float, str)):
            raise BindError(f"parameter @{expr.name} must be a scalar")
        return Literal(value)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op,
            left=substitute_parameters(expr.left, params, defer),
            right=substitute_parameters(expr.right, params, defer),
        )
    if isinstance(expr, AggregateCall) and expr.argument is not None:
        return AggregateCall(
            func=expr.func,
            argument=substitute_parameters(expr.argument, params, defer),
        )
    return expr


def _substitute_predicate(
    pred: Predicate,
    params: dict[str, object],
    defer: bool = False,
) -> Predicate:
    # Constant-fold after substitution: unary minus parses as (0 - x)
    # and @parameters may complete literal arithmetic — unfolded
    # constants blind statistics-based pruning and selectivity.
    return map_predicate_exprs(
        pred,
        lambda expr: fold_constants(
            substitute_parameters(expr, params, defer)
        ),
    )


class _Binder:
    def __init__(self, statement: SelectStatement, catalog: Catalog,
                 params: dict[str, object], defer: bool = False):
        self._statement = statement
        self._catalog = catalog
        self._params = params
        self._defer = defer
        self._tables: list[BoundTable] = []
        self._resolution: dict[ColumnRef, BoundColumn] = {}

    def bind(self) -> BoundQuery:
        self._bind_tables()
        statement = self._statement
        select_items = self._bind_select_items(statement)
        join_predicates, filters, residuals = self._classify_predicates(
            statement
        )
        group_by, group_exprs = self._bind_group_by(statement)
        having = [self._bind_having(p) for p in statement.having]
        order_by = [
            OrderItem(
                expr=fold_constants(
                    substitute_parameters(item.expr, self._params,
                                          self._defer)
                ),
                descending=item.descending,
            )
            for item in statement.order_by
        ]
        for item in order_by:
            for node in item.expr.walk():
                if isinstance(node, ColumnRef):
                    self._resolve_or_alias(node, select_items)
        return BoundQuery(
            statement=statement,
            tables=self._tables,
            resolution=self._resolution,
            join_predicates=join_predicates,
            filters=filters,
            select_items=select_items,
            group_by=group_by,
            order_by=order_by,
            limit=statement.limit,
            residuals=residuals,
            having=having,
            group_exprs=group_exprs,
        )

    # -- tables ------------------------------------------------------------ #

    def _bind_tables(self) -> None:
        seen: set[str] = set()
        for ref in self._statement.tables:
            binding = ref.binding_name
            if binding in seen:
                raise BindError(f"duplicate table binding {binding!r}")
            seen.add(binding)
            self._tables.append(
                BoundTable(binding=binding, table=self._catalog.get(ref.name))
            )

    # -- column resolution ---------------------------------------------------- #

    def _resolve_column(self, ref: ColumnRef) -> BoundColumn:
        cached = self._resolution.get(ref)
        if cached is not None:
            return cached
        candidates: list[BoundColumn] = []
        for bound in self._tables:
            if ref.table is not None and ref.table != bound.binding:
                # Also accept the real table name as qualifier.
                if ref.table != bound.table.name.lower():
                    continue
            if bound.table.has_column(ref.column):
                candidates.append(
                    BoundColumn(
                        binding=bound.binding,
                        column=ref.column,
                        dtype=bound.table.dtype(ref.column),
                    )
                )
        if not candidates:
            raise BindError(f"unknown column {ref}")
        if len(candidates) > 1:
            raise BindError(f"ambiguous column {ref}")
        self._resolution[ref] = candidates[0]
        return candidates[0]

    def _resolve_or_alias(
        self, ref: ColumnRef, select_items: list[SelectItem]
    ) -> None:
        """ORDER BY may name a select-list alias instead of a column."""
        if ref.table is None:
            aliases = {
                (item.alias or "").lower() for item in select_items if item.alias
            }
            if ref.column in aliases:
                return
        self._resolve_column(ref)

    def _bind_expr(self, expr: Expr) -> Expr:
        expr = fold_constants(
            substitute_parameters(expr, self._params, self._defer)
        )
        for node in expr.walk():
            if isinstance(node, ColumnRef):
                self._resolve_column(node)
        return expr

    def _bind_group_by(
        self, statement: SelectStatement
    ) -> tuple[list[BoundColumn], dict[str, Expr]]:
        """Bind GROUP BY keys: plain columns resolve directly, computed
        expressions become ``#group.gN`` columns the planner projects
        before aggregation (the expression-GROUP-BY rewrite)."""
        group_by: list[BoundColumn] = []
        group_exprs: dict[str, Expr] = {}
        for expr in statement.group_by:
            expr = fold_constants(
                substitute_parameters(expr, self._params, self._defer)
            )
            if isinstance(expr, ColumnRef):
                group_by.append(self._resolve_column(expr))
                continue
            for node in expr.walk():
                if isinstance(node, AggregateCall):
                    raise BindError(
                        "aggregate calls cannot appear in GROUP BY"
                    )
                if isinstance(node, Literal) and isinstance(node.value, str):
                    raise BindError(
                        "string literals in GROUP BY expressions are not "
                        "supported"
                    )
                if isinstance(node, ColumnRef):
                    self._resolve_column(node)
            column = BoundColumn(
                binding=COMPUTED_GROUP_BINDING,
                column=f"g{len(group_exprs)}",
                dtype=DataType.FLOAT64,
            )
            group_by.append(column)
            group_exprs[column.key] = expr
        return group_by, group_exprs

    # -- select list ------------------------------------------------------------ #

    def _bind_select_items(self, statement: SelectStatement) -> list[SelectItem]:
        items: list[SelectItem] = []
        if statement.select_star:
            for bound in self._tables:
                for column in bound.table.column_names:
                    ref = ColumnRef(table=bound.binding, column=column.lower())
                    self._resolve_column(ref)
                    items.append(SelectItem(expr=ref, alias=column))
            return items
        for item in statement.select_items:
            bound_expr = self._bind_expr(item.expr)
            self._validate_aggregate_nesting(bound_expr)
            items.append(SelectItem(expr=bound_expr, alias=item.alias))
        return items

    @staticmethod
    def _validate_aggregate_nesting(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, AggregateCall) and node.argument is not None:
                inner = [
                    n for n in node.argument.walk()
                    if isinstance(n, AggregateCall)
                ]
                if inner:
                    raise BindError("nested aggregate calls are not allowed")

    # -- predicate classification -------------------------------------------------- #

    def _classify_predicates(
        self, statement: SelectStatement
    ) -> tuple[
        list[JoinPredicate], dict[str, list[Predicate]], list[Predicate]
    ]:
        joins: list[JoinPredicate] = []
        filters: dict[str, list[Predicate]] = {
            bound.binding: [] for bound in self._tables
        }
        residuals: list[Predicate] = []
        for predicate in statement.where:
            predicate = _substitute_predicate(predicate, self._params,
                                          self._defer)
            join = self._try_join_predicate(predicate)
            if join is not None:
                joins.append(join)
                continue
            bindings = self._predicate_bindings(predicate)
            if len(bindings) == 1:
                filters[next(iter(bindings))].append(predicate)
            else:
                # Multi-table (or table-free) conjuncts that are not join
                # conditions are applied after the joins complete.
                residuals.append(predicate)
        return joins, filters, residuals

    def _bind_having(self, predicate: Predicate) -> Predicate:
        predicate = _substitute_predicate(predicate, self._params,
                                          self._defer)
        for expr in walk_predicate_exprs(predicate):
            self._validate_aggregate_nesting(expr)
            for node in expr.walk():
                if isinstance(node, ColumnRef):
                    self._resolve_column(node)
        return predicate

    def _try_join_predicate(self, predicate: Predicate) -> JoinPredicate | None:
        if not isinstance(predicate, Comparison):
            return None
        if not isinstance(predicate.left, ColumnRef):
            return None
        if not isinstance(predicate.right, ColumnRef):
            return None
        left = self._resolve_column(predicate.left)
        right = self._resolve_column(predicate.right)
        if left.binding == right.binding:
            return None
        return JoinPredicate(op=predicate.op, left=left, right=right)

    def _predicate_bindings(self, predicate: Predicate) -> set[str]:
        bindings: set[str] = set()
        for expr in walk_predicate_exprs(predicate):
            for node in expr.walk():
                if isinstance(node, ColumnRef):
                    bindings.add(self._resolve_column(node).binding)
        return bindings


def bind(
    statement: SelectStatement,
    catalog: Catalog,
    params: dict[str, object] | list | tuple | None = None,
    defer: bool = False,
) -> BoundQuery:
    """Resolve a parsed statement against the catalog.

    ``params`` supplies parameter values: a dict keyed by ``@name`` (or
    by ordinal string for ``?`` markers), or a positional list/tuple
    that binds ``?`` markers left to right.  With ``defer=True``,
    parameters without values survive as :class:`Parameter` nodes — the
    template-binding mode behind :func:`repro.sql.prepared.prepare_statement`.
    """
    return _Binder(statement, catalog, param_map(params), defer).bind()


def param_map(params: dict[str, object] | list | tuple | None) -> dict:
    """Normalize a parameter collection to the dict the binder consumes.

    Positional sequences map to the ordinal names the parser assigned
    to ``?`` markers ("0", "1", ... in lexical order).
    """
    if params is None:
        return {}
    if isinstance(params, dict):
        return params
    if isinstance(params, (list, tuple)):
        return {str(index): value for index, value in enumerate(params)}
    raise BindError(
        f"parameters must be a dict, list or tuple, not "
        f"{type(params).__name__}"
    )
