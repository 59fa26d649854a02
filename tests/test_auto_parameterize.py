"""Auto-parameterized one-shot SQL: the normalize stage against its own
oracle (an AST round trip), the statement memo in ``ProgramCache``,
lifted ≡ inlined ≡ Reference along every ``engine_variants`` cell,
statements that outlive ``register(replace=True)``, and the report
strings that render on first read.

Tier-1; also in the chaos CI leg (the memo is state that concurrent
sessions share).
"""

import gc
import re
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # perfbench

import test_bugfix_stats as bugfix  # noqa: E402
from differential_utils import (  # noqa: E402
    assert_results_match,
    engine_variants,
)
from perfbench.workloads import HIT_SQL, MISS_SQL, PREPARED  # noqa: E402
from repro.bench.verify import TCU_REL  # noqa: E402
from repro.common.errors import (  # noqa: E402
    BindError,
    LexError,
    ParseError,
    ReproError,
    UnknownTableError,
)
from repro.common.faults import (  # noqa: E402
    SITE_CACHE_GET,
    FaultPlan,
    FaultRule,
    inject,
)
from repro.common.rng import make_rng  # noqa: E402
from repro.datasets.ssb import ssb_catalog  # noqa: E402
from repro.engine import create_engine  # noqa: E402
from repro.engine.base import Deferred  # noqa: E402
from repro.engine.cache import ProgramCache  # noqa: E402
from repro.engine.tcudb import (  # noqa: E402
    TCUDBEngine,
    TCUDBOptions,
    ops,
)
from repro.engine.tcudb.codegen import emit_tensor_program  # noqa: E402
from repro.engine.tcudb.cost import Strategy  # noqa: E402
from repro.engine.tcudb.optimizer import OptimizerDecision  # noqa: E402
from repro.engine.tcudb.program import TensorProgram  # noqa: E402
from repro.serve import QueryServer  # noqa: E402
from repro.sql.ast_nodes import (  # noqa: E402
    OrderItem,
    SelectItem,
    fold_constants,
    map_predicate_exprs,
)
from repro.sql.binder import param_map, substitute_parameters  # noqa: E402
from repro.sql.parser import parse  # noqa: E402
from repro.sql.prepared import parameterize  # noqa: E402
from repro.workloads.ssb_queries import SSB_QUERIES  # noqa: E402
from test_fuzz_queries import QueryGenerator  # noqa: E402

pytestmark = pytest.mark.engine_matrix

B = 2 ** 53

YEARLY = ("select d.d_year, count(*) from lineorder as lo, ddate as d "
          "where lo.lo_orderdate = d.d_datekey and d.d_year >= {} "
          "group by d.d_year order by d.d_year")


def fuzz_corpus(n, seed=9120622):
    generator = QueryGenerator(make_rng(seed))
    return [generator.generate() for _ in range(n)]


# --------------------------------------------------------------------- #
# (a) The normalize stage: AST round trip
# --------------------------------------------------------------------- #

LEXICAL_EDGES = [
    "select a from t where s = 'it''s' and u = \"double\"\"d\"",
    "select a from t -- it's 5 o'clock \"\n where a = 5 -- and b = '7\n",
    "select a from t where a = 1e3 and b = 2.0 and c = .5 and d = 0.5e1",
    "select a from t where a = 1.b",
    "select p_brand1 from part where p_brand1 = 'MFGR#12' and p_size1 = 1",
    "select a from t where a = -5 and b between -1.5 and - 2",
    "select a from t where a between 5 and 3 and 1 = 1",
    "select a from t where a = 5-3 and b = 5--3\n and c = 2",
    f"select a from t where a = {'9' * 400} or a = {'1' * 30}",
    f"select a from t where a > {B - 1} and a < {B + 1} and a <> {B}",
    "select a * 2, 'tag' from t where a in (1, 2) and not (b = 3 or c = 'x')"
    " group by a % 10 having sum(b * 5) > 7 and count(*) > 2"
    " order by a + 1 limit 9",
    "select a from t where t.limit = 4 and t.in = 5 limit 6",
    "SELECT a FROM t WHERE a NOT IN ('x', 'y''z') AND b=7 GROUP BY a"
    " HAVING COUNT(*)>1 ORDER BY a LIMIT 2;",
]


def stamped(statement, values=()):
    """*statement* with ``values`` substituted and constants folded,
    clause by clause — what binding does to either spelling."""
    mapping = param_map(list(values))

    def fold(expr):
        return fold_constants(substitute_parameters(expr, mapping))

    def predicates(conjuncts):
        return tuple(map_predicate_exprs(p, fold) for p in conjuncts)

    return replace(
        statement,
        select_items=tuple(SelectItem(fold(item.expr), item.alias)
                           for item in statement.select_items),
        where=predicates(statement.where),
        group_by=tuple(fold(expr) for expr in statement.group_by),
        having=predicates(statement.having),
        order_by=tuple(OrderItem(fold(item.expr), item.descending)
                       for item in statement.order_by),
    )


def assert_round_trip(sql):
    template, values = parameterize(sql)
    try:
        original = stamped(parse(sql))
    except ReproError as error:  # the same refusal, then
        with pytest.raises(type(error)):
            parse(template)
        return template, values
    lifted = stamped(parse(template), values)
    # repr as well: Literal(2) == Literal(2.0), an int is not a float.
    assert (lifted, repr(lifted)) == (original, repr(original)), sql
    return template, values


def test_round_trip_over_the_corpora():
    statements = (fuzz_corpus(300) + list(SSB_QUERIES.values())
                  + list(HIT_SQL.values()) + LEXICAL_EDGES
                  + [sql.format(v=2_345) for sql in MISS_SQL.values()])
    lifted_values = 0
    for sql in statements:
        template, values = assert_round_trip(sql)
        lifted_values += len(values)
        # Only WHERE / HAVING text changed; IN-lists and LIMIT did not.
        for clause in (r"\bin\s*\([^)]*\)", r"\blimit\s+\S+",
                       r"^.*?\bfrom\b", r"\bgroup\s+by\b.*?(?=\bhaving\b|$)",
                       r"\border\s+by\b.*$"):
            found = re.findall(clause, template, re.I | re.S)
            assert "?" not in "".join(found), (clause, template)
    assert lifted_values > 400


def test_only_where_and_having_operands_lift():
    sql = LEXICAL_EDGES[10]
    template, values = parameterize(sql)
    assert values == [3, "x", 5, 7, 2]
    assert template == (
        "select a * 2, 'tag' from t where a in (1, 2) and not (b = ? or c = ?)"
        " group by a % 10 having sum(b * ?) > ? and count(*) > ?"
        " order by a + 1 limit 9")
    # A qualified name is a column even when it spells a keyword.
    template, values = parameterize(LEXICAL_EDGES[11])
    assert values == [4, 5] and template.endswith("limit 6")
    # Exact integers survive; past float's range the parser's inf does.
    _, values = parameterize(LEXICAL_EDGES[9])
    assert values == [B - 1, B + 1, B]
    assert all(type(value) is int for value in values)
    _, values = parameterize(LEXICAL_EDGES[8])
    assert values == [float("inf"), int("1" * 30)]
    _, values = parameterize(LEXICAL_EDGES[2])
    assert [(v, type(v)) for v in values] == [
        (1000, int), (2, int), (0.5, float), (5, int)]


def test_round_trip_over_generated_spellings():
    """Predicates assembled from awkward operands, with and without
    blanks, comments and line breaks between the lexemes."""
    rng = make_rng(77)
    operands = ["a", "b1", "t.in", "t.limit", "p#1", "5", "1.5", ".5", "1e3",
                "-5", "5-3", "'s'", "'i''s'", '"d"', "'-- ?'", "'5'",
                "(a+1)", "sum(a*2)", f"{B + 1}"]
    gaps = ["", " ", "\n", " --x'1\n", "  "]

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    def predicate():
        gap = pick(gaps)
        shape = int(rng.integers(0, 5))
        if shape == 0:
            return f"a in{gap}({pick(['1', '1,2', chr(39) + 'x)' + chr(39)])})"
        if shape == 1:
            return f"a between {pick(operands)} and {pick(operands)}"
        text = (f"{pick(operands)}{gap}{pick(['=', '<', '<>', '>='])}"
                f"{gap}{pick(operands)}")
        return f"not ({text})" if shape == 2 else text

    parsed = lifted = 0
    for _ in range(800):
        sql = "select a, 7 from t where " + pick([" and ", " or "]).join(
            predicate() for _ in range(int(rng.integers(1, 4))))
        sql += pick(["", " group by a%10", " group by a having count(*)>2",
                     " having sum(a*3) > 1e2"])
        sql += pick(["", " order by a+1", " limit 3", " order by a limit 4;"])
        try:
            parse(sql)
        except ReproError:
            continue
        parsed += 1
        _, values = assert_round_trip(sql)
        lifted += len(values)
    assert parsed > 500 and lifted > 2 * parsed


def test_a_keyword_glued_to_a_literal_is_prepared_as_written():
    """``5limit`` lexes as two tokens; the normalizer only looks for a
    keyword where a name could start, misses it, and lifts LIMIT's
    literal: the lifted text does not parse, so the statement is
    prepared as written — correct, merely not shared."""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=1000, seed=13)
    sql = "select d_year from ddate where d_year=1993limit 3"
    template, values = parameterize(sql)
    assert values == [1993, 3]
    with pytest.raises(ParseError):
        parse(template)
    cache = ProgramCache()
    got = TCUDBEngine(catalog, program_cache=cache).execute(sql)
    assert got.extra["statement"] == "literal" and got.n_rows == 3
    assert cache.stats()["statement_misses"] == 1


@pytest.mark.parametrize("sql", [
    "select a from t where a = ?",
    "select a from t where a = @x and b = 5",
    "select a from t where a = 5 and b = ? -- c",
    "select a from t where a = 'never closed",
])
def test_placeholders_and_open_strings_are_not_lifted(sql):
    assert parameterize(sql) is None


def test_marks_inside_strings_and_comments_do_lift():
    template, values = parameterize(
        "select a from t where s = 'what?' and m = '@x' -- ? @y\n and a = 1")
    assert values == ["what?", "@x", 1] and template.count("?") == 4


# --------------------------------------------------------------------- #
# (b) The statement memo
# --------------------------------------------------------------------- #


class Bound:
    """Stands in for a prepared statement: the memo reads only this."""

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint


def test_memo_shares_lock_capacity_lru_and_clear():
    cache = ProgramCache(capacity=2)
    first, second, third = Bound("fp"), Bound("fp"), Bound("fp")
    assert cache.statement("a", "fp") is None
    cache.remember("a", first)
    cache.remember("b", second)
    assert cache.statement("a", "fp") is first  # refresh: "b" is LRU
    cache.remember("c", third)
    assert cache.statement("b", "fp") is None
    assert cache.statement("c", "fp") is third
    # Bound under another fingerprint: dropped, not served.
    assert cache.statement("a", "other") is None
    assert cache.statement("a", "fp") is None
    stats = cache.stats()
    assert (stats["statement_hits"], stats["statement_misses"]) == (2, 4)
    # The program counters keep their meaning.
    assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)
    assert stats["hit_rate"] is None and stats["evictions"] == 0
    cache.put("k", "fp", "program")
    cache.clear()
    assert cache.statement("c", "fp") is None and len(cache) == 0


@pytest.fixture(scope="module")
def catalog():
    return ssb_catalog(scale_factor=1, rows_per_sf=1000, seed=13)


@pytest.fixture(scope="module")
def reference(catalog):
    return create_engine("reference", catalog)


def test_statement_label_names_the_front_end_path(catalog):
    cache = ProgramCache()
    engine = TCUDBEngine(catalog, program_cache=cache)
    sql = YEARLY.format(1994)
    assert engine.execute(sql).extra["statement"] == "auto-parameterized"
    assert engine.execute(YEARLY.format(1996)).extra["statement"] == (
        "auto-parameterized")
    marked = YEARLY.format("?")
    assert engine.execute(marked, [1994]).extra["statement"] == "literal"
    assert engine.execute(sql, params={}).extra["statement"] == "literal"
    prepared = engine.prepare(marked)
    assert engine.execute(prepared, [1994]).extra["statement"] == "prepared"
    stats = cache.stats()
    # One memo entry; the lifted text and the marked text render to one
    # normalized SQL and share a program, the inlined literal has its own.
    assert (stats["statement_misses"], stats["statement_hits"]) == (1, 1)
    assert (stats["entries"], stats["misses"], stats["hits"]) == (2, 2, 3)
    # No cache, no memo: parse, bind and lower per call.
    assert TCUDBEngine(catalog).execute(sql).extra["statement"] == "literal"


@pytest.mark.parametrize("sql, error", [
    ("select d_year from ddate where d_year = 'open", LexError),
    ("select d_year from ddate where d_year = 1993 1994", ParseError),
    ("select d_year from ddate where d_year in (1993, d_year)", ParseError),
    ("select d_year from ddate where no_such_column = 1993", BindError),
    ("select d_year from ddate, ddate where d_year = 1993", BindError),
    ("select d_year from no_such_table where d_year = 1993",
     UnknownTableError),
])
def test_errors_are_those_of_the_text_as_written(catalog, sql, error):
    with pytest.raises(error) as inlined:
        TCUDBEngine(catalog).execute(sql)
    cache = ProgramCache()
    with pytest.raises(error) as lifted:
        TCUDBEngine(catalog, program_cache=cache).execute(sql)
    assert str(lifted.value) == str(inlined.value)
    assert cache.stats()["entries"] == 0


def test_poisoned_template_leaves_the_memo_consistent(catalog):
    """The ``cache.get`` fault site evicts the program and recompiles;
    the statement stays memoized and the shape compiles once more, not
    once per request."""
    cache = ProgramCache()
    engine = TCUDBEngine(catalog, program_cache=cache)
    expected = engine.execute(YEARLY.format(1993))
    plan = FaultPlan([FaultRule(site=SITE_CACHE_GET, kind="poison", n=1)])
    with inject(plan):
        for year in (1993, 1995, 1993):
            got = engine.execute(YEARLY.format(year))
    assert_results_match(got, expected, rel=0, context="after poison")
    stats = cache.stats()
    assert (stats["poisoned"], stats["entries"]) == (1, 1)
    assert (stats["statement_misses"], stats["statement_hits"]) == (1, 3)
    assert (stats["misses"], stats["hits"]) == (1, 3)


def test_two_sessions_one_shape_different_literals(catalog, reference):
    """Concurrent sessions sending one shape with their own literals get
    their own rows, from one compilation."""
    years = (1993, 1996)
    expected = {year: reference.execute(YEARLY.format(year)) for year in years}
    with QueryServer(catalog, max_concurrent=4) as server:
        server.session().execute(YEARLY.format(1992), timeout=60)  # compile
        results, errors = {year: [] for year in years}, []
        barrier = threading.Barrier(len(years))

        def run(session, year):
            try:
                barrier.wait(timeout=10)
                for _ in range(6):
                    results[year].append(
                        session.execute(YEARLY.format(year), timeout=60))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=run, args=(server.session(), year))
                   for year in years]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        stats = server.cache_stats()
    for year in years:
        assert len(results[year]) == 6
        for got in results[year]:
            assert_results_match(got, expected[year], rel=TCU_REL,
                                 context=f"d_year >= {year}")
    assert (stats["entries"], stats["statement_misses"]) == (1, 1)
    assert (stats["statement_hits"], stats["hits"]) == (12, 12)


# --------------------------------------------------------------------- #
# (c) Same answers, same model: lifted ≡ inlined ≡ Reference
# --------------------------------------------------------------------- #


def respelled(sql, shift):
    """*sql* with every WHERE / HAVING number moved by ``shift``: the
    same shape under new literals (strings keep their value)."""
    template, values = parameterize(sql)
    spelled = iter(
        "'" + value.replace("'", "''") + "'" if isinstance(value, str)
        else str(value + shift) for value in values)
    return re.sub(r"\?", lambda _: next(spelled), template)


def observed(result):
    rows = result.require_table().rows() if result.table is not None else None
    return (repr(rows), result.n_rows, repr(result.seconds),
            result.extra.get("executed_by"), result.extra.get("strategy"),
            result.extra.get("precision"), result.extra.get("fallback_kind"))


def test_lifted_matches_inlined_and_reference_in_every_cell(
        catalog, reference):
    # The seed only keeps the suite quick: none of these shapes is a
    # half-second join projection.  They run natively, hybrid and by
    # fallback alike.
    shapes = fuzz_corpus(40, seed=21)
    texts = [respelled(sql, shift) for sql in shapes for shift in (0, 1, 7)]
    oracle = {text: reference.execute(text) for text in texts}
    failures, routes = [], set()
    cells = zip(engine_variants(catalog),
                engine_variants(catalog, cached=True))
    for (cell, inlined), (_, lifted) in cells:
        expected = {text: observed(inlined.execute(text)) for text in texts}
        # Two of three spellings are served by a statement and a
        # program compiled under another literal.
        for text in texts:
            context = f"{cell}: {text}"
            got = lifted.execute(text)
            routes.add(got.extra["executed_by"])
            if observed(got) != expected[text]:
                failures.append(context)
            assert_results_match(got, oracle[text], rel=TCU_REL,
                                 context=context)
        stats = lifted.program_cache.stats()
        assert stats["statement_misses"] <= len(shapes), cell
        assert stats["statement_hits"] == 2 * len(shapes), cell
        assert stats["misses"] == stats["entries"] <= len(shapes), cell
    assert not failures, "\n".join(failures[:5])
    assert routes >= {"TCU", "TCU-hybrid", "YDB-fallback"}


def test_prepared_third_arm_of_the_bugfix_pins():
    """Integers at and above 2**53 match the same rows lifted as
    inlined (tests/test_bugfix_stats.py, bug 4)."""
    pins = bugfix.TestIntegersAbove2To53
    (_, _), (_, _), (_, _), (_, plain) = pins._engines()
    lifted = TCUDBEngine(plain.catalog, program_cache=ProgramCache(),
                         options=TCUDBOptions(chunk_rows=2,
                                              force_strategy=Strategy.DENSE))
    for condition, params, expected in pins.CASES:
        inlined = pins.TEMPLATE.format(condition)
        for value in params:
            inlined = inlined.replace("?", str(value), 1)
        got = lifted.execute(inlined)
        assert pins._kept(got) == expected, inlined
        assert got.extra["executed_by"] == "TCU"
        assert got.extra["statement"] == "auto-parameterized"
        assert repr(got.seconds) == repr(plain.execute(inlined).seconds)
    # Eleven pins, seven shapes (=, <, <=, >, >=, ? <, BETWEEN, <>).
    assert lifted.program_cache.stats()["statement_misses"] == 8


def test_stat_pruning_sees_the_bound_values(catalog):
    """``lo_orderkey`` is clustered: under 16-row chunks a selective
    literal prunes most of ``lineorder``, and pruned chunks are never
    charged — through a shared template exactly as inlined."""
    sql = ("select d.d_year, sum(lo.lo_revenue) from lineorder as lo, "
           "ddate as d where lo.lo_orderdate = d.d_datekey "
           "and lo.lo_orderkey < {} group by d.d_year")
    options = TCUDBOptions(chunk_rows=16)
    inlined = TCUDBEngine(catalog, options=options)
    cache = ProgramCache()
    lifted = TCUDBEngine(catalog, options=options, program_cache=cache)
    everything = lifted.execute(sql.format(10 ** 9))
    selective = lifted.execute(sql.format(40))
    assert cache.stats()["statement_hits"] == 1
    assert repr(selective.seconds) == repr(
        inlined.execute(sql.format(40)).seconds)
    assert repr(everything.seconds) == repr(
        inlined.execute(sql.format(10 ** 9)).seconds)
    assert selective.seconds < everything.seconds


LIFTED_HAVING = (
    "select d.d_year, sum(lo.lo_revenue) from lineorder as lo, ddate as d "
    "where lo.lo_orderdate = d.d_datekey group by d.d_year "
    "having sum(lo.lo_revenue * {}) > {} and sum(lo.lo_revenue * {}) < {}")


@pytest.mark.parametrize("values, calls", [
    ((2, 2.5e7, 2, 2.9e7), 1),
    ((2, 2.5e7, 3, 4.4e7), 2),
], ids=["one-call", "two-calls"])
def test_lifted_having_calls_find_their_substituted_finals(values, calls):
    """HAVING's ``SUM(lo_revenue * ?)`` calls lift with its literals.
    The template's two calls substitute to one call or to two, and the
    harvest keys its finals by the substituted calls the substituted
    HAVING reads — one-shot and prepared alike.  (The fuzz catalog:
    five of its seven years pass both bounds.)"""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=2000, seed=13)
    engine = TCUDBEngine(catalog, program_cache=ProgramCache())
    inlined = LIFTED_HAVING.format(*values)
    expected = create_engine("reference", catalog).execute(inlined)
    one_shot = engine.execute(inlined)
    prepared = engine.execute_prepared(
        engine.prepare(LIFTED_HAVING.format(*"????")), list(values))
    assert one_shot.extra["statement"] == "auto-parameterized"
    for got in (one_shot, prepared):
        assert got.extra["executed_by"] == "TCU-hybrid"
        substituted = re.findall(r"SUM\(\(lo\.lo_revenue \* \d+\)\)",
                                 got.extra["program_listing"])
        assert len(substituted) == 2 and len(set(substituted)) == calls
        assert got.n_rows == expected.n_rows == 5
        assert_results_match(got, expected, rel=TCU_REL, context=inlined)


def test_prepared_select_items_read_the_substituted_finals(catalog,
                                                          reference):
    """Select items may carry parameters — inside an aggregate's
    argument, or as the computed GROUP BY key they equal — and are
    stamped with the values of the calls and keys they read."""
    sql = ("select d.d_year % @m as y, sum(lo.lo_revenue * @w) as r "
           "from lineorder as lo, ddate as d "
           "where lo.lo_orderdate = d.d_datekey group by d.d_year % @m")
    engine = TCUDBEngine(catalog, program_cache=ProgramCache())
    statement = engine.prepare(sql)
    for m, w in ((3, 2), (4, 5)):
        got = engine.execute_prepared(statement, {"m": m, "w": w})
        inlined = sql.replace("@m", str(m)).replace("@w", str(w))
        assert got.extra["executed_by"] == "TCU-hybrid"
        assert got.require_table().column_names == ["y", "r"]
        assert_results_match(got, reference.execute(inlined), rel=TCU_REL,
                             context=inlined)


# --------------------------------------------------------------------- #
# (d) Statements that outlive register(replace=True)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("engine_name, cached", [
    ("tcudb", True), ("tcudb", False), ("ydb", False), ("reference", False),
])
def test_every_path_answers_from_the_replaced_table(engine_name, cached):
    """A bound statement holds ``Table`` objects: after a table is
    replaced, a held prepared statement, repeated raw text and the same
    shape under a new literal all read the new table."""
    catalog = ssb_catalog(scale_factor=1, rows_per_sf=1000, seed=5)
    kwargs = {"program_cache": ProgramCache()} if cached else {}
    engine = create_engine(engine_name, catalog, **kwargs)
    held = engine.prepare(YEARLY.format("?"))
    before = engine.execute_prepared(held, [1992])
    engine.execute(YEARLY.format(1992))
    other = ssb_catalog(scale_factor=1, rows_per_sf=1000, seed=6)
    catalog.register(other.get("lineorder"), replace=True)
    oracle = create_engine("reference", catalog)
    expected = oracle.execute(YEARLY.format(1992))
    assert expected.require_table().rows() != before.require_table().rows()
    for context, got in (
        ("held statement", engine.execute_prepared(held, [1992])),
        ("held statement again", engine.execute_prepared(held, [1992])),
        ("repeated text", engine.execute(YEARLY.format(1992))),
    ):
        assert_results_match(got, expected, rel=TCU_REL, context=context)
    assert_results_match(engine.execute(YEARLY.format(1995)),
                         oracle.execute(YEARLY.format(1995)), rel=TCU_REL,
                         context="same shape, new literal")
    # A dropped table is the error of a fresh bind, never stale rows.
    catalog.drop("ddate")
    for run in (lambda: engine.execute_prepared(held, [1992]),
                lambda: engine.execute(YEARLY.format(1992))):
        with pytest.raises(UnknownTableError):
            run()


# --------------------------------------------------------------------- #
# (e) Report strings on demand
# --------------------------------------------------------------------- #

STAR = ("select c.c_nation, sum(lo.lo_revenue), avg(lo.lo_quantity) "
        "from lineorder as lo, customer as c "
        "where lo.lo_custkey = c.c_custkey and c.c_region = 'ASIA' "
        "group by c.c_nation order by c.c_nation")


@pytest.fixture
def calls(monkeypatch):
    """Counts of the three renderers an execution must not call."""
    seen = {"generated_code": 0, "describe": 0, "explain": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(TensorProgram, "generated_code")
    counted(TensorProgram, "describe")
    counted(OptimizerDecision, "explain")
    return seen


def test_strings_render_on_first_read_only(catalog, calls):
    engine = TCUDBEngine(catalog, program_cache=ProgramCache())
    result = engine.execute(STAR)
    assert result.extra["executed_by"] == "TCU"
    assert set(calls.values()) == {0}
    assert "generated_code" in result.extra
    assert isinstance(dict.__getitem__(result.extra, "program_listing"),
                      Deferred)
    n_decisions = len(result.extra["decisions"])
    assert result.plan_description == result.plan_description
    assert calls == {"generated_code": 0, "describe": 1,
                     "explain": n_decisions}
    assert result.extra["program_listing"] is result.extra["program_listing"]
    assert result.extra.get("generated_code") is result.extra["generated_code"]
    assert calls == {"generated_code": 1, "describe": 2,
                     "explain": n_decisions}
    assert type(result.extra["program_listing"]) is str
    assert result.plan_description.startswith(
        result.extra["program_listing"] + "\n---\noperator: ")
    assert result.extra.get("no such key", 7) == 7
    # Assignment replaces a rendered or an unrendered string alike.
    fresh = engine.execute(STAR)
    fresh.plan_description = "mine"
    fresh.extra["program_listing"] = "mine too"
    assert (fresh.plan_description, fresh.extra["program_listing"]) == (
        "mine", "mine too")


def test_lazy_strings_are_the_eager_ones(catalog, monkeypatch):
    """What renders late equals what the run itself would have rendered
    with its values in hand — each operator's emission taken the moment
    it has executed, before the run drops any value it read — over the
    corpus."""
    contexts = []
    emitted: dict = {}
    finalize = TCUDBEngine._finalize

    def keep_context(self, bound, program, ctx, output):
        contexts.append((program, ctx))
        return finalize(self, bound, program, ctx, output)

    def emitting(inner):
        def execute(self, ctx):
            value = inner(self, ctx)
            emitted.setdefault(ctx, {})[self.id] = self.emission(ctx)
            return value
        return execute

    monkeypatch.setattr(TCUDBEngine, "_finalize", keep_context)
    for op_type in vars(ops).values():
        if (isinstance(op_type, type) and issubclass(op_type, ops.TensorOp)
                and "execute" in vars(op_type)):
            monkeypatch.setattr(op_type, "execute",
                                emitting(vars(op_type)["execute"]))
    engine = TCUDBEngine(catalog, program_cache=ProgramCache())
    rendered = 0
    for sql in fuzz_corpus(60, seed=31337) + [STAR]:
        contexts.clear()
        emitted.clear()
        result = engine.execute(sql)
        if not contexts or not result.extra["decisions"]:
            assert result.extra.get("generated_code") is None
            continue
        (program, ctx), = contexts[-1:]
        eager = emit_tensor_program(
            program.strategy,
            [e for op in program.ops
             if (e := emitted[ctx][op.id]) is not None],
            ctx.decisions)
        assert result.extra["generated_code"] == eager, sql
        assert result.extra["program_listing"] == program.describe()
        assert result.plan_description == "\n---\n".join(
            [program.describe()]
            + [d.explain() for d in result.extra["decisions"]])
        rendered += 1
    assert rendered >= 20


def test_a_held_result_keeps_no_operand_alive(catalog, monkeypatch):
    """Only the ``QueryResult`` is held: the run's context, its operand
    build output, that output's arrays, the product grids and the
    harvested finals are gone — by reference count, with no cyclic
    collection — strings unread."""
    operands = []
    execute = ops.ValueFill.execute
    harvest = ops.GridAggregate.execute

    def watched(self, ctx):
        value = execute(self, ctx)
        operands.extend([weakref.ref(value), weakref.ref(value.left),
                         weakref.ref(value.left.keys_mapped),
                         weakref.ref(ctx)])
        return value

    def harvested(self, ctx):
        groups = harvest(self, ctx)
        operands.extend(weakref.ref(array) for array in (
            *ctx.value(self.input).grids, *groups.finals.values()))
        return groups

    monkeypatch.setattr(ops.ValueFill, "execute", watched)
    monkeypatch.setattr(ops.GridAggregate, "execute", harvested)
    gc.disable()
    try:
        result = TCUDBEngine(catalog,
                             program_cache=ProgramCache()).execute(STAR)
        assert len(operands) == 8
        assert [ref() is None for ref in operands] == [True] * 8
    finally:
        gc.enable()
    assert "wmma" in result.extra["generated_code"].source


def test_perfbench_templates_lift_to_their_prepared_twins(catalog):
    """A raw statement whose WHERE literals sit where a perfbench
    template has ``?`` shares that template's compiled program."""
    cache = ProgramCache()
    engine = TCUDBEngine(catalog, program_cache=cache)
    for sql, bindings in PREPARED.values():
        values = iter(bindings[0])
        raw = re.sub(r"\?", lambda _: repr(next(values)), sql)
        assert parameterize(raw) == (sql, list(bindings[0]))
        entries = cache.stats()["entries"]
        prepared = engine.execute_prepared(engine.prepare(sql), bindings[0])
        assert cache.stats()["entries"] == entries + 1
        lifted = engine.execute(raw)
        assert cache.stats()["entries"] == entries + 1
        assert_results_match(lifted, prepared, rel=0, context=raw)
        assert repr(lifted.seconds) == repr(prepared.seconds)
