"""One resolution rule for settings: an explicit value, then an
environment variable, then a default.  A bad value raises a
:class:`~repro.common.errors.ConfigError` that names the variable."""

from __future__ import annotations

import os

from repro.common.errors import ConfigError


def resolve_setting(override, env_var: str, default, parse):
    """*override* if not ``None``, else *env_var* if set and non-empty,
    else *default*.  ``parse`` converts and validates a value, raising
    ``ValueError`` on a bad one."""
    if override is None:
        override = os.environ.get(env_var)
        if not override:
            return default
    try:
        return parse(override)
    except ValueError as exc:
        raise ConfigError(f"{env_var}: {exc}") from None


def positive_int(value) -> int:
    """``int(value)`` when that is positive, else ``ValueError``."""
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = 0
    if count <= 0:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return count
