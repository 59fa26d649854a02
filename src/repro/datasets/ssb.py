"""Star Schema Benchmark data generator (O'Neil et al.).

Generates the SSB star schema — one fact table (lineorder) and four
dimensions (customer, supplier, part, ddate) connected by foreign keys —
at a given scale factor.  Row counts follow the official dbgen ratios
scaled by ``rows_per_sf`` (default 60,000 lineorder rows per SF, 1/100 of
the official 6M, so a Python process generates SF 8 in seconds; all
selectivities and key relationships match the official generator, so
engine comparisons are unaffected).
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_rng, make_rng
from repro.storage.catalog import Catalog
from repro.storage.table import Table

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS_PER_REGION = 5
CITIES_PER_NATION = 10

# 7 years of dates (1992-01-01 .. 1998-12-31), as in dbgen.
FIRST_YEAR = 1992
N_YEARS = 7
DAYS_PER_MONTH = 30  # simplified calendar: 12 x 30-day months
N_DATES = N_YEARS * 12 * DAYS_PER_MONTH

MONTH_NAMES = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]


def _nation_names() -> list[str]:
    return [
        f"{region.replace(' ', '')[:7]}_N{i}"
        for region in REGIONS
        for i in range(NATIONS_PER_REGION)
    ]


def _city_names() -> list[str]:
    return [
        f"{nation}_C{j}"
        for nation in _nation_names()
        for j in range(CITIES_PER_NATION)
    ]


def generate_ddate() -> Table:
    """The date dimension: one row per (simplified) calendar day."""
    index = np.arange(N_DATES)
    year = FIRST_YEAR + index // (12 * DAYS_PER_MONTH)
    month = (index // DAYS_PER_MONTH) % 12 + 1
    day = index % DAYS_PER_MONTH + 1
    datekey = year * 10000 + month * 100 + day
    week = (index % (12 * DAYS_PER_MONTH)) // 7 + 1
    yearmonth = [
        f"{MONTH_NAMES[m - 1]}{y}" for y, m in zip(year, month)
    ]
    return Table.from_dict("ddate", {
        "d_datekey": datekey,
        "d_year": year,
        "d_month": month,
        "d_yearmonthnum": year * 100 + month,
        "d_yearmonth": yearmonth,
        "d_weeknuminyear": week,
        "d_daynuminmonth": day,
    })


def generate_customer(n: int, rng) -> Table:
    cities = _city_names()
    nations = _nation_names()
    city_idx = rng.integers(0, len(cities), size=n)
    nation_idx = city_idx // CITIES_PER_NATION
    region_idx = nation_idx // NATIONS_PER_REGION
    return Table.from_dict("customer", {
        "c_custkey": np.arange(1, n + 1),
        "c_name": [f"Customer{i:07d}" for i in range(1, n + 1)],
        "c_city": [cities[i] for i in city_idx],
        "c_nation": [nations[i] for i in nation_idx],
        "c_region": [REGIONS[i] for i in region_idx],
    })


def generate_supplier(n: int, rng) -> Table:
    cities = _city_names()
    nations = _nation_names()
    city_idx = rng.integers(0, len(cities), size=n)
    nation_idx = city_idx // CITIES_PER_NATION
    region_idx = nation_idx // NATIONS_PER_REGION
    return Table.from_dict("supplier", {
        "s_suppkey": np.arange(1, n + 1),
        "s_name": [f"Supplier{i:07d}" for i in range(1, n + 1)],
        "s_city": [cities[i] for i in city_idx],
        "s_nation": [nations[i] for i in nation_idx],
        "s_region": [REGIONS[i] for i in region_idx],
    })


def generate_part(n: int, rng) -> Table:
    mfgr_idx = rng.integers(1, 6, size=n)  # MFGR#1..5
    category_idx = rng.integers(1, 6, size=n)  # 5 categories per mfgr
    brand_idx = rng.integers(1, 41, size=n)  # 40 brands per category
    return Table.from_dict("part", {
        "p_partkey": np.arange(1, n + 1),
        "p_name": [f"Part{i:07d}" for i in range(1, n + 1)],
        "p_mfgr": [f"MFGR#{m}" for m in mfgr_idx],
        "p_category": [f"MFGR#{m}{c}" for m, c in zip(mfgr_idx, category_idx)],
        "p_brand1": [
            f"MFGR#{m}{c}{b:02d}"
            for m, c, b in zip(mfgr_idx, category_idx, brand_idx)
        ],
    })


def generate_lineorder(
    n: int, n_customers: int, n_suppliers: int, n_parts: int, rng,
    datekeys: np.ndarray,
) -> Table:
    quantity = rng.integers(1, 51, size=n)
    discount = rng.integers(0, 11, size=n)
    extendedprice = rng.integers(90_000, 10_000_000, size=n) // 100
    revenue = extendedprice * (100 - discount) // 100
    supplycost = (extendedprice * 6) // 10
    return Table.from_dict("lineorder", {
        "lo_orderkey": np.arange(1, n + 1),
        "lo_custkey": rng.integers(1, n_customers + 1, size=n),
        "lo_suppkey": rng.integers(1, n_suppliers + 1, size=n),
        "lo_partkey": rng.integers(1, n_parts + 1, size=n),
        "lo_orderdate": datekeys[rng.integers(0, datekeys.size, size=n)],
        "lo_quantity": quantity,
        "lo_discount": discount,
        "lo_extendedprice": extendedprice,
        "lo_revenue": revenue,
        "lo_supplycost": supplycost,
    })


def ssb_catalog(
    scale_factor: float = 1.0,
    rows_per_sf: int = 60_000,
    seed: int | None = None,
) -> Catalog:
    """Generate the five SSB tables at a scale factor.

    Official dbgen ratios per SF: 6,000,000 lineorder, 30,000 customer,
    2,000 supplier, 200,000 * (1 + log2 SF) part, 2,556 dates.  We scale
    the fact table by ``rows_per_sf`` and the dimensions proportionally.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    rng = make_rng(seed)
    scale = rows_per_sf / 6_000_000
    n_lineorder = max(int(6_000_000 * scale_factor * scale), 1000)
    n_customers = max(int(30_000 * scale_factor * scale * 20), 200)
    n_suppliers = max(int(2_000 * scale_factor * scale * 20), 40)
    part_factor = 1.0 + (np.log2(scale_factor) if scale_factor > 1 else 0.0)
    n_parts = max(int(200_000 * part_factor * scale * 20), 400)
    catalog = Catalog()
    ddate = generate_ddate()
    catalog.register(ddate)
    catalog.register(generate_customer(n_customers, derive_rng(rng, 1)))
    catalog.register(generate_supplier(n_suppliers, derive_rng(rng, 2)))
    catalog.register(generate_part(n_parts, derive_rng(rng, 3)))
    datekeys = ddate.column("d_datekey").data
    catalog.register(
        generate_lineorder(
            n_lineorder, n_customers, n_suppliers, n_parts,
            derive_rng(rng, 4), datekeys,
        )
    )
    return catalog
