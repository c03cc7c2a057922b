"""The Landau-Ginzburg model f = z + q/z on the punctured line.

This global model mirrors the projective line. Its state space has the
basis {1, q/z}, and with the exponentiated unfolding coefficient
e^(u1) - 1 the constant class 1 is exactly primitive at every order.
We also print higher residue pairings, read off the Brieskorn reduction
with the pairing eta of the basis.
"""

from fractions import Fraction

from saitoforms import MPoly, P1MirrorData, build_unfolding, exp_series, \
    pairing_univariate, primitive_form, verify_primitive

q = Fraction(2)
data = P1MirrorData(q)
print("f = z + %s/z, basis: %s" % (q, [str(b) for b in data.basis]))

unf = build_unfolding(data, 8, u_names=["u0", "u1"],
                      overrides={2: lambda u: exp_series(u) - 1})
pf = primitive_form(unf)
print("primitive form records:", pf.records())
one = MPoly.constant(("z",), 1, laurent=True)
print("zeta_+ = 1 verifies:", bool(verify_primitive(unf, one)))
print()

pairs = [({0: Fraction(1)}, {0: Fraction(1)}, "K(1, 1)"),
         ({0: Fraction(1)}, {-1: q}, "K(1, q/z)"),
         ({-1: Fraction(1)}, {-1: Fraction(1)}, "K(1/z, 1/z)")]
for a, b, name in pairs:
    print(name, "=", pairing_univariate(a, b, 10, q=q) or 0)
