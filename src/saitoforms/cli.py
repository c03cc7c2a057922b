"""Command-line interface reading JSON job documents.

Commands: analyze, moduli, primitive-form, pairing, verify. Results are
JSON documents with schema tag "saito-forms/1"; every rational is
serialized exactly as "p/q" (or "p") strings.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import moduli
from .brieskorn import ReductionGuardError
from .mpoly import MPoly, PolynomialError, WeightSystem
from .parsing import ParseError, parse_poly, parse_rational
from .primitive import primitive_form, verify_primitive
from .singularity import (K, DegeneratePairing, EulerIdentityViolated,
                          NonIsolatedSingularity, P1MirrorData, analyze)
from .unfolding import (GradingViolation, UnfoldRingElem, build_unfolding,
                        exp_series)

SCHEMA = "saito-forms/1"


class JobError(Exception):
    pass


def _rat(x):
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise JobError("expected an exact rational (int or 'p/q'), got %r" % (x,))


def _int(x, what, nonnegative=False):
    if isinstance(x, bool) or not isinstance(x, int) or \
            (nonnegative and x < 0):
        raise JobError("%s must be a%s integer, got %r"
                       % (what, " nonnegative" if nonnegative else "n", x))
    return x


def _bool(x, what):
    if not isinstance(x, bool):
        raise JobError("%s must be true or false, got %r" % (what, x))
    return x


def _is_list_of(x, kind):
    return isinstance(x, list) and all(isinstance(v, kind) for v in x)


def _fmt(x):
    return str(x) if type(x) is Fraction else str(Fraction(x))


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
    return analyze(f, weights, orthogonalize=_bool(
        spec.get("orthogonalize", True), "'orthogonalize'"))


def _parse_c(job, args):
    c = {}
    spec = job.get("c") or {}
    if not isinstance(spec, dict):
        raise JobError("'c' must be an object of \"i,j\": p/q entries, "
                       "got %r" % (spec,))
    for key, value in spec.items():
        try:
            i, j = (int(p) for p in key.split(","))
        except ValueError:
            raise JobError("'c' keys must be \"i,j\" with integer i and j, "
                           "got %r" % key)
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
    if args.mask is not None:
        # "" is the empty mask, as "mask": [] is
        try:
            return [int(p) for p in args.mask.split(",")] if args.mask \
                else []
        except ValueError:
            raise JobError("--mask expects comma-separated basis indices, "
                           "got %r" % args.mask)
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
            _fmt(data.pairing(data.basis[i], data.basis[data.mu - 1 - i]))
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
    mask = _mask(job, args)
    overrides = None
    u_names = None
    if data.mode == "laurent":
        # the direction of basis index i is u{i-1}
        indices = range(1, data.mu + 1) if mask is None else sorted(mask)
        u_names = ["u%d" % (i - 1) for i in indices]
        if _bool(job.get("exponentiate", True), "'exponentiate'") and \
                2 in indices:
            overrides = {2: lambda u: exp_series(u) - 1}
    return build_unfolding(data, n, mask=mask, overrides=overrides,
                           u_names=u_names)


def _records_json(pf, data):
    records = []
    for q, j, elem in pf.records():
        terms = [{"u": str(MPoly(pf.unf.u_names, {exp: 1})),
                  "value": _fmt(c)}
                 for exp, c in elem.sorted_terms(reverse=False)]
        records.append({"t": q, "basis": j,
                        "basis_expr": str(data.basis[j - 1]),
                        "terms": terms})
    return records


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
            {"t": k, "basis": j,
             "defect": str(MPoly(unf.u_names, elem.terms))}
            for k, j, elem in report.mismatches]
    return out


def _parse_rep(rep_spec, data, unf):
    if not _is_list_of(rep_spec, dict):
        raise JobError("'rep' must be a list of term objects, got %r"
                       % (rep_spec,))
    terms = []
    for entry in rep_spec:
        t0 = _int(entry.get("t", 0), "a 'rep' term's t")
        poly = _parse_class(entry.get("z", "1"), data)
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
    classes = [[_parse_class(text, data) for text in pair]
               for pair in pairs]
    values = [{"a": a_text, "b": b_text,
               "series": {str(k): _fmt(v) for k, v in series.items()}}
              for (a_text, b_text), series
              in zip(pairs, K(data, classes, t_order))]
    return {"t_order": t_order, "values": values}


def _parse_class(text, data):
    """A polynomial in the singularity's variables; on the P^1 mirror a
    Laurent polynomial in z that may name the symbolic q."""
    if data.mode != "laurent":
        return parse_poly(text, data.variables)
    return _subst_q(parse_poly(text, ("z", "q"), True), data)


def _subst_q(poly, data):
    """Replace the symbolic mirror parameter q by its value."""
    out = {}
    for exp, c in poly.terms.items():
        e_z, e_q = exp
        if e_q < 0:
            raise JobError("negative powers of q are not supported")
        out[(e_z,)] = out.get((e_z,), 0) + c * data.q ** e_q
    return MPoly(data.variables, out, laurent=True)


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


@functools.cache
def _parser():
    """The argument parser, built on the first call of main and kept for
    the later ones: parse_args reads it without changing it."""
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
    parser.add_argument("--mask", help="comma-separated active basis "
                        "indices, \"\" for none")
    return parser


def main(argv=None):
    """Run one job document and print its result; return the exit status:
    0, or 2 with an {"ok": false} document. May be called repeatedly in
    one process."""
    args = _parser().parse_args(argv)
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
