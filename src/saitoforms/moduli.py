"""Moduli of good opposite filtrations (equivalently, primitive forms).

The parameter space Y sits inside the c_ij with integer positive degree
gap r(i, j) = d_i - d_j. Counting free coordinates:

    D = #{(i,j) : r in Z_>0, i+j < mu+1}
      + #{(i,j) : r in Z_>0 odd,  i+j = mu+1}

Every other admissible coordinate is determined by the pairing
constraints (see y_constraints). Gaps are compared as ints on the
grading of the analyzed data: data.scaled over data.den.
"""

FREE = "FREE"
DETERMINED = "DETERMINED"


def admissible_pairs(data):
    """1-based (i, j) with degree gap d_i - d_j a positive integer, each
    gap an int test on the scaled degrees."""
    degs, den = data.scaled, data.den
    return [(i, j) for i, di in enumerate(degs, 1)
            for j, dj in enumerate(degs, 1)
            if di > dj and (di - dj) % den == 0]


def dimension_D(data):
    """The moduli dimension D: the number of FREE coordinates."""
    return sum(c.status == FREE for c in y_constraints(data))


class Constraint:
    def __init__(self, pair, r, status, partner=None):
        self.pair = pair
        self.r = r
        self.status = status
        self.partner = partner

    def __repr__(self):
        extra = " <- %s" % (self.partner,) if self.partner else ""
        return "c%s [r=%d] %s%s" % (self.pair, self.r, self.status, extra)


def y_constraints(data):
    """Classify every admissible coordinate as FREE or DETERMINED,
    following the step-by-step solution of the pairing constraints.

    A slot below the anti-diagonal is FREE; one above it is solved from
    its partner constraint. On the anti-diagonal (i + j = mu + 1) an odd
    gap is FREE, since the even pairing kills the constraint, and an even
    gap is DETERMINED by the lower-step quadratic terms of K_ij. Those
    terms are never all absent: the diagonal slot (i, i) has t-degree
    2 d_i - s = d_i - d_j = r > 0 by degree duality d_i + d_j = s, which
    the analysis enforces. So the grading alone forces no slot to
    vanish; a forced-vanishing status belongs with a solver of the
    constraints that finds such a slot."""
    mu, degs, den = data.mu, data.scaled, data.den
    out = []
    for i, j in admissible_pairs(data):
        r = (degs[i - 1] - degs[j - 1]) // den
        partner = None
        if i + j > mu + 1:
            status, partner = DETERMINED, (mu + 1 - j, mu + 1 - i)
        elif i + j < mu + 1 or r % 2:
            status = FREE
        else:
            status = DETERMINED
        out.append(Constraint((i, j), r, status, partner))
    return out


class ModuliReport:
    def __init__(self, data):
        self.constraints = y_constraints(data)
        self.dimension = self.counts()[FREE]

    def counts(self):
        tally = {FREE: 0, DETERMINED: 0}
        for c in self.constraints:
            tally[c.status] += 1
        return tally

    def __repr__(self):
        lines = ["moduli dimension D = %d" % self.dimension]
        lines += ["  %r" % c for c in self.constraints]
        return "\n".join(lines)


def moduli_report(data):
    return ModuliReport(data)
