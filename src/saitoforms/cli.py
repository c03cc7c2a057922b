"""Command-line interface reading JSON job documents.

Commands: analyze, moduli, primitive-form, pairing, verify. Results are
JSON documents with schema tag "saito-forms/1"; every rational is
serialized exactly as "p/q" (or "p") strings.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import moduli
from .brieskorn import ReductionGuardError
from .mpoly import PolynomialError, WeightSystem
from .parsing import ParseError, parse_poly, parse_rational
from .primitive import primitive_form, verify_primitive
from .residue_series import pairing_univariate
from .singularity import (DegeneratePairing, EulerIdentityViolated,
                          NonIsolatedSingularity, P1MirrorData, analyze)
from .unfolding import (GradingViolation, UnfoldRingElem, build_unfolding,
                        exp_series)

SCHEMA = "saito-forms/1"


class JobError(Exception):
    pass


def _rat(x):
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, int):
        return Fraction(x)
    raise JobError("expected an exact rational (int or 'p/q'), got %r" % (x,))


def _int(x, what, nonnegative=False):
    if isinstance(x, bool) or not isinstance(x, int) or \
            (nonnegative and x < 0):
        raise JobError("%s must be a%s integer, got %r"
                       % (what, " nonnegative" if nonnegative else "n", x))
    return x


def _is_list_of(x, kind):
    return isinstance(x, list) and all(isinstance(v, kind) for v in x)


def _fmt(x):
    return str(Fraction(x))


def _load_singularity(job):
    spec = job.get("singularity")
    if not isinstance(spec, dict):
        raise JobError("job is missing the 'singularity' object")
    if spec.get("model") == "p1":
        return P1MirrorData(_rat(spec.get("q", "1")))
    variables = spec.get("variables")
    if not variables or not _is_list_of(variables, str):
        raise JobError("singularity needs 'variables', a list of names, "
                       "got %r" % (variables,))
    f = parse_poly(spec.get("f", ""), variables)
    weights = spec.get("weights", [])
    if not isinstance(weights, list):
        raise JobError("'weights' must be a list of rationals, got %r"
                       % (weights,))
    weights = WeightSystem([_rat(w) for w in weights])
    return analyze(f, weights, orthogonalize=spec.get("orthogonalize", True))


def _parse_c(job, args):
    c = {}
    spec = job.get("c") or {}
    if not isinstance(spec, dict):
        raise JobError("'c' must be an object of \"i,j\": p/q entries, "
                       "got %r" % (spec,))
    for key, value in spec.items():
        i, j = (int(p) for p in key.split(","))
        c[(i, j)] = _rat(value)
    for entry in args.set_c or []:
        try:
            pair, value = entry.split("=", 1)
            i, j = (int(p) for p in pair.split(","))
        except ValueError:
            raise JobError("--set-c expects i,j=p/q, got %r" % entry)
        c[(i, j)] = parse_rational(value)
    return c or None


def _mask(job, args):
    if args.mask:
        return [int(p) for p in args.mask.split(",")]
    mask = job.get("mask")
    if mask is None:
        return None
    if not isinstance(mask, list):
        raise JobError("'mask' must be a list of basis indices, got %r"
                       % (mask,))
    return [_int(i, "a 'mask' index") for i in mask]


def _basis_strings(data):
    return [str(b) for b in data.basis]


def cmd_analyze(data, job, args):
    out = {
        "mu": data.mu,
        "central_charge": _fmt(data.s),
        "degrees": [_fmt(d) for d in data.degrees],
        "basis": _basis_strings(data),
    }
    if data.mode == "poly":
        out["weights"] = [_fmt(q) for q in data.weights]
        out["anti_diagonal_residues"] = [
            _fmt(data.classical_residue(data.basis[i] *
                                        data.basis[data.mu - 1 - i]))
            for i in range(data.mu)]
    else:
        out["q"] = _fmt(data.q)
    return out


def cmd_moduli(data, job, args):
    report = moduli.ModuliReport(data)
    return {
        "dimension": report.dimension,
        "constraints": [
            {"pair": list(c.pair), "r": c.r, "status": c.status,
             **({"partner": list(c.partner)} if c.partner else {})}
            for c in report.constraints],
    }


def _build_unfolding(data, job, args):
    n = args.order if args.order is not None else job.get("N")
    if n is None:
        raise JobError("truncation order required ('N' in job or --order)")
    _int(n, "the truncation order N", nonnegative=True)
    overrides = None
    u_names = None
    if data.mode == "laurent":
        u_names = ["u0", "u1"]
        if job.get("exponentiate", True):
            overrides = {2: lambda u: exp_series(u) - 1}
    return build_unfolding(data, n, mask=_mask(job, args),
                           overrides=overrides, u_names=u_names)


def _records_json(pf, data):
    records = []
    for q, j, elem in pf.records():
        terms = [{"u": _u_monomial(exp, pf.unf), "value": _fmt(c)}
                 for exp, c in elem.sorted_terms(reverse=False)]
        records.append({"t": q, "basis": j,
                        "basis_expr": str(data.basis[j - 1]),
                        "terms": terms})
    return records


def _u_monomial(exp, unf):
    parts = []
    for name, e in zip(unf.u_names, exp):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) or "1"


def cmd_primitive_form(data, job, args):
    unf = _build_unfolding(data, job, args)
    pf = primitive_form(unf, c=_parse_c(job, args))
    return {"N": unf.N, "a": pf.a, "u_names": unf.u_names,
            "records": _records_json(pf, data)}


def cmd_verify(data, job, args):
    unf = _build_unfolding(data, job, args)
    c = _parse_c(job, args)
    rep_spec = job.get("rep")
    if rep_spec is None:
        rep = primitive_form(unf, c=c)
    else:
        rep = _parse_rep(rep_spec, data, unf)
    report = verify_primitive(unf, rep, c=c)
    out = {"verified": report.ok}
    if not report.ok:
        out["mismatches"] = [
            {"t": k, "basis": j, "defect": str(elem)}
            for k, j, elem in report.mismatches]
    return out


def _parse_rep(rep_spec, data, unf):
    laurent = data.mode == "laurent"
    if not _is_list_of(rep_spec, dict):
        raise JobError("'rep' must be a list of term objects, got %r"
                       % (rep_spec,))
    terms = []
    for entry in rep_spec:
        t0 = _int(entry.get("t", 0), "a 'rep' term's t")
        poly = parse_poly(entry.get("z", "1"), data.variables, laurent)
        coeff = unf.ring_one()
        if "u" in entry:
            upoly = parse_poly(entry["u"], unf.u_names)
            coeff = UnfoldRingElem(unf.nu, unf.N, upoly.terms)
        if "coeff" in entry:
            coeff = coeff * _rat(entry["coeff"])
        terms.append((t0, poly, coeff))
    return terms


def cmd_pairing(data, job, args):
    t_order = _int(job.get("t_order", 8), "'t_order'", nonnegative=True)
    pairs = job.get("pairs")
    if not pairs or not isinstance(pairs, list) or not all(
            _is_list_of(pair, str) and len(pair) == 2 for pair in pairs):
        raise JobError("pairing needs 'pairs': [[expr, expr], ...], got %r"
                       % (pairs,))
    if data.mode == "laurent":
        kwargs = {"q": data.q}
        variables, laurent = ("z", "q"), True
        lead = 1
    else:
        if data.n != 1:
            raise JobError("pairing supports univariate models only")
        kwargs = {"m": data.mu}
        variables, laurent = data.variables, False
        # f = c z^(m+1) has f' = lead z^m; the A_m kernel takes lead = 1
        (exp, c), = data.f.terms.items()
        lead = exp[0] * c
    values = []
    for a_text, b_text in pairs:
        a = _subst_q(parse_poly(a_text, variables, laurent), data)
        b = _subst_q(parse_poly(b_text, variables, laurent), data)
        series = pairing_univariate(a, b, t_order, **kwargs)
        series = {r: v / lead ** (r + 1) for r, v in series.items()}
        values.append({"a": a_text, "b": b_text,
                       "series": {str(k): _fmt(v)
                                  for k, v in sorted(series.items())}})
    return {"t_order": t_order, "values": values}


def _subst_q(poly, data):
    """Replace the symbolic mirror parameter q by its value."""
    if data.mode != "laurent":
        return {e[0]: c for e, c in poly.terms.items()}
    out = {}
    for exp, c in poly.terms.items():
        e_z, e_q = exp
        if e_q < 0:
            raise JobError("negative powers of q are not supported")
        value = c * data.q ** e_q
        out[e_z] = out.get(e_z, Fraction(0)) + value
    return {e: c for e, c in out.items() if c}


COMMANDS = {
    "analyze": cmd_analyze,
    "moduli": cmd_moduli,
    "primitive-form": cmd_primitive_form,
    "pairing": cmd_pairing,
    "verify": cmd_verify,
}


def run_job(job, args):
    if not isinstance(job, dict):
        raise JobError("a job document must be a JSON object, got %s"
                       % type(job).__name__)
    command = args.command or job.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise JobError("unknown command %r; expected one of %s"
                       % (command, sorted(COMMANDS)))
    data = _load_singularity(job)
    result = COMMANDS[command](data, job, args)
    return {"schema": SCHEMA, "command": command, "ok": True,
            "result": result}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="saitoforms",
        description="primitive-form computations for weighted-homogeneous "
                    "singularities")
    parser.add_argument("--job", required=True,
                        help="path to a JSON job document, or '-' for stdin")
    parser.add_argument("--command", help="override the job's command")
    parser.add_argument("--order", type=int,
                        help="override the truncation order N")
    parser.add_argument("--set-c", action="append", metavar="i,j=p/q",
                        help="set an opposite-filtration coordinate")
    parser.add_argument("--mask", help="comma-separated active basis indices")
    args = parser.parse_args(argv)
    try:
        if args.job == "-":
            job = json.load(sys.stdin)
        else:
            with open(args.job) as fh:
                job = json.load(fh)
        doc = run_job(job, args)
    except (JobError, ParseError, PolynomialError, EulerIdentityViolated,
            NonIsolatedSingularity, DegeneratePairing, GradingViolation,
            ReductionGuardError, json.JSONDecodeError, OSError,
            ValueError) as exc:
        doc = {"schema": SCHEMA, "ok": False,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 2
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
