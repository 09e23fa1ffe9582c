"""Exact rational values.

All capacity values are fractions.Fraction instances: gcd-reduced,
compared by cross-multiplication, never floating point.  This module only
adds the serialization helpers used at the CLI/JSON boundary.
"""


def ratio_str(r):
    """Serialize as 'p/q' (always with the slash, even for integers)."""
    return f"{r.numerator}/{r.denominator}"


def ratio_decimal(r, places=6):
    """Decimal rendering for human output only; flagged approximate by the CLI."""
    scaled = r.numerator * 10**places
    q, rem = divmod(scaled, r.denominator)
    if 2 * rem >= r.denominator:
        q += 1
    digits = f"{q:0{places + 1}d}"
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits
