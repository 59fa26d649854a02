"""Prepared statements: `?`/@name placeholders, deferred binding, and
the differential guarantee that prepared execution is row-identical to
one-shot execution for every parameter binding.

Tier-1: runs in the default suite (and in the REPRO_WORKERS=2 CI leg,
which exercises the same paths with the morsel pool engaged).
"""

import pytest

from differential_utils import assert_results_match
from repro.common.errors import BindError, ParseError
from repro.datasets.ssb import ssb_catalog
from repro.engine import create_engine
from repro.sql.ast_nodes import Parameter
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse
from repro.sql.prepared import prepare_statement, render_statement
from repro.storage.types import DataType

TCU_REL = 2e-3


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)


@pytest.fixture(scope="module")
def reference(catalog):
    return create_engine("reference", catalog)


@pytest.fixture(scope="module")
def tcudb(catalog):
    return create_engine("tcudb", catalog)


JOIN_AGG_TEMPLATE = (
    "select d.d_year, sum(lo.lo_revenue) from lineorder as lo, ddate as d "
    "where lo.lo_orderdate = d.d_datekey and d.d_year >= ? "
    "group by d.d_year order by d.d_year"
)


class TestPlaceholderParsing:
    def test_question_mark_tokenizes_as_punct(self):
        tokens = tokenize("select ? from t")
        marks = [t for t in tokens if t.value == "?"]
        assert len(marks) == 1
        assert marks[0].type == TokenType.PUNCT

    def test_positional_markers_numbered_left_to_right(self):
        statement = parse(
            "select a.x from a where a.x > ? and a.y < ? and a.z = ?"
        )
        names = [
            node.name
            for predicate in statement.where
            for node in predicate.left.walk()  # type: ignore[attr-defined]
            if isinstance(node, Parameter)
        ]
        # Parameters sit on the comparison right sides here.
        names = [
            node.name
            for predicate in statement.where
            for node in predicate.right.walk()  # type: ignore[attr-defined]
            if isinstance(node, Parameter)
        ]
        assert names == ["0", "1", "2"]

    def test_backtracking_over_a_parenthesis_keeps_the_numbering(self):
        # "(" is first tried as a boolean group; giving that reading up
        # must give back the ordinals it handed out.
        (first, second), = [
            (predicate.left, predicate.right)
            for predicate in parse(
                "select a.x from a where (a.x + ?) * ? > ?").where
        ]
        names = [node.name for node in first.walk()
                 if isinstance(node, Parameter)]
        assert names == ["0", "1"] and second == Parameter("2")

    def test_mixed_named_and_positional(self):
        statement = parse(
            "select a.x from a where a.x > @low and a.y < ?"
        )
        found = sorted(
            node.name
            for predicate in statement.where
            for expr in (predicate.left, predicate.right)
            for node in expr.walk()
            if isinstance(node, Parameter)
        )
        assert found == ["0", "low"]

    def test_in_lists_stay_literal_only(self):
        # The grammar restricts IN (...) to literals; a marker inside is
        # a parse error, not a silent mis-bind.
        with pytest.raises(ParseError):
            parse("select a.x from a where a.x in (?, 2)")


class TestPrepareStatement:
    def test_slots_and_type_inference(self, catalog):
        sql = (
            "select d.d_year, sum(lo.lo_revenue) "
            "from lineorder as lo, ddate as d "
            "where lo.lo_orderdate = d.d_datekey and d.d_year >= ? "
            "and d.d_yearmonth = @month group by d.d_year"
        )
        prepared = prepare_statement(parse(sql), catalog, sql)
        assert prepared.parameter_names == ("0", "month")
        by_name = {slot.name: slot for slot in prepared.slots}
        assert by_name["0"].positional
        assert not by_name["month"].positional
        assert by_name["0"].dtype == DataType.INT64
        assert by_name["month"].dtype == DataType.STRING

    def test_between_markers_infer_column_type(self, catalog):
        sql = (
            "select lo.lo_revenue from lineorder as lo, ddate as d "
            "where lo.lo_orderdate = d.d_datekey "
            "and lo.lo_discount between ? and ?"
        )
        prepared = prepare_statement(parse(sql), catalog, sql)
        assert [slot.dtype for slot in prepared.slots] == [
            DataType.INT64, DataType.INT64,
        ]

    def test_normalized_sql_ignores_spelling(self, catalog):
        a = "select  d.d_year , count(*)  from ddate as d GROUP BY d.d_year"
        b = "SELECT d.d_year, COUNT(*) FROM ddate AS d group by d.d_year"
        norm_a = render_statement(parse(a))
        norm_b = render_statement(parse(b))
        assert norm_a == norm_b

    def test_normalized_sql_renders_markers_not_values(self, catalog):
        prepared = prepare_statement(
            parse(JOIN_AGG_TEMPLATE), catalog, JOIN_AGG_TEMPLATE
        )
        assert "@0" in prepared.normalized_sql
        assert "1993" not in prepared.normalized_sql

    def test_template_is_reusable_across_bindings(self, catalog):
        prepared = prepare_statement(
            parse(JOIN_AGG_TEMPLATE), catalog, JOIN_AGG_TEMPLATE
        )
        first, _ = prepared.bind_execution([1993])
        second, _ = prepared.bind_execution([1997])
        # Fresh bound queries; the template keeps its Parameter nodes.
        assert first is not second
        template_filters = [
            str(p) for conjuncts in prepared.bound.filters.values()
            for p in conjuncts
        ]
        assert any("@0" in text for text in template_filters)

    def test_bind_execution_validates_parameters(self, catalog):
        prepared = prepare_statement(
            parse(JOIN_AGG_TEMPLATE), catalog, JOIN_AGG_TEMPLATE
        )
        with pytest.raises(BindError, match="missing"):
            prepared.bind_execution([])
        with pytest.raises(BindError, match="unknown"):
            prepared.bind_execution({"0": 1993, "extra": 1})
        with pytest.raises(BindError, match="scalar"):
            prepared.bind_execution([[1992, 1993]])


#: (template, parameter bindings) — each binding also renders a literal
#: one-shot query for the differential comparison.  Covers filters,
#: BETWEEN ranges, residual predicates, HAVING thresholds, aggregate
#: arguments (hybrid path) and repeated markers.
PARAM_CORPUS = [
    (
        JOIN_AGG_TEMPLATE,
        [[1992], [1995], [1998]],
    ),
    (
        "select d.d_year, sum(lo.lo_extendedprice * lo.lo_discount) "
        "from lineorder as lo, ddate as d "
        "where lo.lo_orderdate = d.d_datekey "
        "and lo.lo_discount between ? and ? and lo.lo_quantity < ? "
        "group by d.d_year",
        [[1, 3, 25], [2, 6, 40]],
    ),
    (
        "select c.c_nation, sum(lo.lo_revenue) "
        "from lineorder as lo, customer as c, ddate as d "
        "where lo.lo_custkey = c.c_custkey "
        "and lo.lo_orderdate = d.d_datekey and c.c_region = @region "
        "group by c.c_nation order by c.c_nation",
        [{"region": "ASIA"}, {"region": "AMERICA"}],
    ),
    (
        "select d.d_year, count(*) from lineorder as lo, ddate as d "
        "where lo.lo_orderdate = d.d_datekey group by d.d_year "
        "having sum(lo.lo_revenue) > ? order by d.d_year",
        [[1_000_000], [40_000_000]],
    ),
    (
        # Parameter inside the aggregate argument: the pattern matcher
        # rejects non-literal factors, so this exercises the hybrid
        # (grouped-reduce) template with per-row argument evaluation.
        "select d.d_year, sum(lo.lo_revenue * ?) "
        "from lineorder as lo, ddate as d "
        "where lo.lo_orderdate = d.d_datekey group by d.d_year "
        "order by d.d_year",
        [[2], [10]],
    ),
    (
        # The same named parameter used twice (filter + HAVING).
        "select d.d_year, sum(lo.lo_supplycost) "
        "from lineorder as lo, ddate as d "
        "where lo.lo_orderdate = d.d_datekey and lo.lo_quantity > @q "
        "group by d.d_year having count(*) > @q",
        [{"q": 10}, {"q": 30}],
    ),
]


def _inline(template: str, params) -> str:
    """Render the literal one-shot spelling of a parameter binding."""
    if isinstance(params, dict):
        sql = template
        for name, value in params.items():
            literal = repr(value) if isinstance(value, str) else str(value)
            sql = sql.replace(f"@{name}", literal)
        return sql
    sql_parts = template.split("?")
    out = [sql_parts[0]]
    for value, part in zip(params, sql_parts[1:]):
        literal = repr(value) if isinstance(value, str) else str(value)
        out.append(literal)
        out.append(part)
    return "".join(out)


class TestPreparedDifferential:
    @pytest.mark.parametrize(
        "template,bindings",
        PARAM_CORPUS,
        ids=[f"q{i}" for i in range(len(PARAM_CORPUS))],
    )
    def test_reference_prepared_matches_one_shot(
        self, reference, template, bindings
    ):
        prepared = reference.prepare(template)
        for params in bindings:
            got = reference.execute_prepared(prepared, params)
            expected = reference.execute(_inline(template, params))
            assert_results_match(
                got, expected, rel=1e-9,
                context=f"reference prepared {template!r} {params!r}",
            )

    @pytest.mark.parametrize(
        "template,bindings",
        PARAM_CORPUS,
        ids=[f"q{i}" for i in range(len(PARAM_CORPUS))],
    )
    def test_tcudb_prepared_matches_reference(
        self, reference, tcudb, template, bindings
    ):
        prepared = tcudb.prepare(template)
        for params in bindings:
            got = tcudb.execute_prepared(prepared, params)
            expected = reference.execute(_inline(template, params))
            assert_results_match(
                got, expected, rel=TCU_REL,
                context=f"tcudb prepared {template!r} {params!r}",
            )

    def test_positional_params_via_one_shot_execute(self, reference):
        got = reference.execute(JOIN_AGG_TEMPLATE, params=[1994])
        expected = reference.execute(_inline(JOIN_AGG_TEMPLATE, [1994]))
        assert_results_match(got, expected, rel=1e-9,
                             context="one-shot positional params")
