"""Resource limits for the exponential oracles and the CLI.

The oracle limits are configuration, not constants: callers may pass an
explicit limit to any oracle, and the CLI honours the IL_ORACLE_LIMIT
environment variable.  The domination command's --kmax ceiling is fixed.
"""

import os

# Branch-and-bound maximum-independent-set oracle.
DEFAULT_ALPHA_LIMIT = 40
# Subset-enumeration oracles (a_bruteforce, independent_domination_exact).
DEFAULT_BRUTEFORCE_LIMIT = 20
# Vertex-count ceiling for iterated categorical powers, graph files and the
# sides of domination --bipartite.
DEFAULT_POWER_LIMIT = 10**6
# Ceiling on domination --kmax; the rows' cost grows faster than kmax^3.
DOMINATION_KMAX_LIMIT = 500


def oracle_limit():
    """Oracle vertex limit, honouring the IL_ORACLE_LIMIT override."""
    return int(os.environ.get("IL_ORACLE_LIMIT", DEFAULT_ALPHA_LIMIT))
