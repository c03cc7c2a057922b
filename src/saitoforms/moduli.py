"""Moduli of good opposite filtrations (equivalently, primitive forms).

The parameter space Y sits inside the c_ij with integer positive degree
gap r(i, j) = d_i - d_j. Counting free coordinates:

    D = #{(i,j) : r in Z_>0, i+j < mu+1}
      + #{(i,j) : r in Z_>0 odd,  i+j = mu+1}

Every other admissible coordinate is determined by the pairing
constraints; an anti-diagonal coordinate with even gap whose quadratic
source terms are all structurally absent is forced to vanish outright.
"""

import math

FREE = "FREE"
DETERMINED = "DETERMINED"
AUTO_VANISHING = "AUTO-VANISHING"


def _scaled(data):
    """The degrees d_i and the central charge s as integers over one
    common denominator: (scaled degrees, scaled s, den)."""
    s = data.s
    den = math.lcm(s.denominator, *(d.denominator for d in data.degrees))
    return ([d.numerator * (den // d.denominator) for d in data.degrees],
            s.numerator * (den // s.denominator), den)


def admissible_pairs(data):
    """1-based (i, j) with degree gap d_i - d_j a positive integer. The
    degrees are scaled to integers once, so each gap is an int test."""
    degs, _, den = _scaled(data)
    return [(i, j) for i, di in enumerate(degs, 1)
            for j, dj in enumerate(degs, 1)
            if di > dj and (di - dj) % den == 0]


def dimension_D(data):
    """The moduli dimension D: the number of FREE coordinates."""
    return sum(c.status == FREE for c in y_constraints(data))


class Constraint:
    def __init__(self, pair, r, status, partner=None, note=""):
        self.pair = pair
        self.r = r
        self.status = status
        self.partner = partner
        self.note = note

    def __repr__(self):
        extra = " <- %s" % (self.partner,) if self.partner else ""
        return "c%s [r=%d] %s%s" % (self.pair, self.r, self.status, extra)


def _structural_source(degs, s, den, i, j):
    """Whether the quadratic source sum of the anti-diagonal constraint
    K_ij (i + j = mu + 1) has any structurally allowed term, on the
    scaled degrees of _scaled.

    Terms range over j < k <= i, j < l <= i and need both basis-change
    slots admissible (or diagonal) and the pairing a_kl of integer
    nonnegative t-degree d_k + d_l - s.
    """
    def slot_ok(p, r):
        gap = degs[p - 1] - degs[r - 1]
        return p == r or (gap > 0 and gap % den == 0)

    for k in range(j + 1, i + 1):
        for l in range(j + 1, i + 1):
            deg = degs[k - 1] + degs[l - 1] - s
            if deg < 0 or deg % den:
                continue
            if slot_ok(i, k) and slot_ok(i, l):
                return True
    return False


def y_constraints(data):
    """Classify every admissible coordinate as FREE, DETERMINED, or
    AUTO-VANISHING, following the step-by-step solution of the pairing
    constraints."""
    mu = data.mu
    degs, s, den = _scaled(data)
    out = []
    for i, j in admissible_pairs(data):
        r = (degs[i - 1] - degs[j - 1]) // den
        if i + j < mu + 1:
            out.append(Constraint((i, j), r, FREE))
        elif i + j > mu + 1:
            out.append(Constraint((i, j), r, DETERMINED,
                                  partner=(mu + 1 - j, mu + 1 - i),
                                  note="solved from the partner constraint"))
        elif r % 2 == 1:
            out.append(Constraint((i, j), r, FREE,
                                  note="odd-gap anti-diagonal; the even "
                                       "pairing kills the constraint"))
        elif _structural_source(degs, s, den, i, j):
            out.append(Constraint((i, j), r, DETERMINED,
                                  note="even-gap anti-diagonal; fixed by "
                                       "lower-step quadratic terms"))
        else:
            out.append(Constraint((i, j), r, AUTO_VANISHING,
                                  note="even-gap anti-diagonal with no "
                                       "structural source terms"))
    return out


class ModuliReport:
    def __init__(self, data):
        self.mu = data.mu
        self.degrees = list(data.degrees)
        self.constraints = y_constraints(data)
        self.dimension = self.counts()[FREE]

    def counts(self):
        tally = {FREE: 0, DETERMINED: 0, AUTO_VANISHING: 0}
        for c in self.constraints:
            tally[c.status] += 1
        return tally

    def __repr__(self):
        lines = ["moduli dimension D = %d" % self.dimension]
        lines += ["  %r" % c for c in self.constraints]
        return "\n".join(lines)


def moduli_report(data):
    return ModuliReport(data)
