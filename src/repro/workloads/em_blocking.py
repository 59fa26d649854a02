"""Entity-matching blocking queries (Section 5.4.2).

Blocking applies a natural-join heuristic per attribute: candidate pairs
are records agreeing on the attribute.  One query template per attribute,
matching the paper's EM-blocking queries.
"""

from __future__ import annotations

BEER_ATTRIBUTES = ("abv", "style", "factory", "beer_name")
ITUNES_ATTRIBUTES = ("price", "genre", "time", "artist", "copyright", "album")


def blocking_query(attribute: str, payload: str) -> str:
    """The EM-blocking join on one attribute.

    ``payload`` is the descriptive column carried along with the ids
    (BEER_NAME for the beer dataset, SONG for iTunes-Amazon).
    """
    return f"""
        SELECT TABLE_A.ID, TABLE_A.{payload},
               TABLE_B.ID, TABLE_B.{payload}
        FROM TABLE_A, TABLE_B
        WHERE TABLE_A.{attribute} = TABLE_B.{attribute};
    """


def beer_blocking_query(attribute: str) -> str:
    if attribute not in BEER_ATTRIBUTES:
        raise KeyError(f"unknown BeerAdvo attribute {attribute!r}")
    return blocking_query(attribute, "beer_name")


def itunes_blocking_query(attribute: str) -> str:
    if attribute not in ITUNES_ATTRIBUTES:
        raise KeyError(f"unknown iTunes attribute {attribute!r}")
    return blocking_query(attribute, "song")
