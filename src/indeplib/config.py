"""Resource limits for the exponential oracles and the CLI.

The oracle limit is configuration: IL_ORACLE_LIMIT sets it for the library
and the CLI alike, callers of the exact searches may pass their own, and
check_oracle_limit is the one test of a size against it.  The rest are fixed.
"""

import os

from .errors import LimitExceeded

# Per-component limit of the exact searches, unless IL_ORACLE_LIMIT is set.
DEFAULT_ALPHA_LIMIT = 40
# Subset-enumeration oracles (a_bruteforce, independent_domination_exact).
DEFAULT_BRUTEFORCE_LIMIT = 20
# Vertex-count ceiling for iterated categorical powers, graph files and the
# sides of domination --bipartite.
DEFAULT_POWER_LIMIT = 10**6
# Ceiling on domination --kmax; the rows' cost grows faster than kmax^3.
DOMINATION_KMAX_LIMIT = 500


def oracle_limit():
    """The oracle vertex limit: IL_ORACLE_LIMIT if set, else 40.  A value
    that is not a positive integer raises ValueError naming the variable."""
    text = os.environ.get("IL_ORACLE_LIMIT")
    if text is None:
        return DEFAULT_ALPHA_LIMIT
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"IL_ORACLE_LIMIT must be a positive integer, got {text!r}")
    return int(text)


def check_oracle_limit(who, *sizes, limit=None):
    """Raises LimitExceeded, naming who, for the first of sizes over limit,
    or over oracle_limit() if limit is None; called before any search."""
    limit = oracle_limit() if limit is None else limit
    for size in sizes:
        if size > limit:
            raise LimitExceeded(f"{who} limited to {limit} vertices, got {size}", required=size)
