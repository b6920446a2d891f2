"""cos^2 of a rational-turn angle, read from its `niven_cosine` certificate:
the one place the cos^2 tests take it from."""

from rationalqm.exact import CosineKind, niven_cosine


def certified_cos_squared(angle):
    """r^2 for a rational cosine r; b^2 * d for a surd cosine b * sqrt(d)
    (`niven_cosine` gives its surds a = 0); None for a Niven witness, whose
    cos^2 is irrational."""
    cert = niven_cosine(angle)
    if cert.kind is CosineKind.RATIONAL:
        return cert.rational ** 2
    if cert.kind is CosineKind.IRRATIONAL_SURD:
        return cert.surd.b ** 2 * cert.surd.d
    return None
