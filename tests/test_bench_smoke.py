"""One small job of each kind the benchmark runs, through the benchmark's
own job code, so that a change to a name the benchmark imports fails
here as well as in the benchmark."""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from saitoforms.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH)
    try:
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads, tracing, run


JOBS = [
    ("unfold-full", "A2/N6"),
    ("socle-deep", "p1-q2/N20"),
    ("socle-deep", "elliptic-socle/N60/c81=1"),
    ("milnor-zoo", "library:A2"),
    ("milnor-zoo", "analyze:A2"),
    # the only zoo singularity whose orthogonalized basis is not monomial
    ("milnor-zoo", "library:x6+y6+x3y3"),
    ("milnor-zoo", "analyze:x6+y6+x3y3"),
    # D = 1 against the literature
    ("milnor-zoo", "moduli:X9"),
    # the pairing kernels against the product formula and the P^1 values;
    # 5*z^4 is a chain model that is not normalized
    ("milnor-zoo", "pairing:p1-q2"),
    ("milnor-zoo", "pairing:1/4*z^4"),
    ("milnor-zoo", "pairing:5*z^4"),
]
# traced runs also take the side calls (the Neumann stages, the Groebner
# basis inside analyze) and report the layer counters
TRACED = [("unfold-full", "A2/N6"), ("socle-deep", "p1-q2/N20")]
# the term counters the traced runs report, pinned so that a change to
# the unfolding's storage cannot change what the benchmark counts
PINNED = {
    "A2/N6": {"unfolding.exp_powers_terms": 28,
              "unfolding.oscillator_terms": 2,
              "unfolding.window_terms": 2,
              "primitive.record_terms": 1},
    "p1-q2/N20": {"unfolding.exp_powers_terms": 1561,
                  "unfolding.oscillator_terms": 22,
                  "unfolding.window_terms": 22,
                  "primitive.record_terms": 1},
}


@pytest.mark.parametrize("workload, name, traced", [
    pytest.param(w, n, traced, id="%s-%s%s" % (w, n, "-traced" * traced))
    for traced, jobs in ((False, JOBS), (True, TRACED)) for w, n in jobs])
def test_bench_job_passes_its_check(bench_modules, tmp_path, workload, name,
                                    traced):
    workloads, tracing, run = bench_modules
    job, = [j for j in workloads.build(workload, 1, str(tmp_path))
            if j.name == name]
    out = job.run(tracing.Tracer() if traced else tracing.NullTracer())
    assert job.check(out) == []
    if traced:
        counters = job.counters(out)
        assert sorted(counters) == sorted(run.COUNTERS)
        assert {key: counters[key] for key in PINNED[name]} == PINNED[name]


# --- the CLI documents of the analysis zoo, byte for byte ----------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "zoo_cli_golden.json")


def zoo_cli_stdout(workloads):
    """{"command:name": stdout} of the analyze and moduli documents of
    every singularity of the benchmark's analysis zoo, run in-process."""
    out = {}
    for sing in workloads.ZOO:
        for command in ("analyze", "moduli"):
            doc = json.dumps(workloads._cli_doc(command, sing.spec()))
            buf = io.StringIO()
            sys.stdin, stdin = io.StringIO(doc), sys.stdin
            try:
                with redirect_stdout(buf):
                    status = main(["--job", "-"])
            finally:
                sys.stdin = stdin
            assert status == 0, buf.getvalue()
            out["%s:%s" % (command, sing.name)] = buf.getvalue()
    return out


def test_zoo_cli_documents_match_the_golden_stdout(bench_modules):
    workloads, _, _ = bench_modules
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = zoo_cli_stdout(workloads)
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    # Regenerate the golden file from the code on the import path:
    #   PYTHONPATH=src python tests/test_bench_smoke.py
    sys.path.insert(0, BENCH)
    import workloads as _workloads
    with open(GOLDEN, "w") as fh:
        json.dump(zoo_cli_stdout(_workloads), fh, indent=1, sort_keys=True)
        fh.write("\n")
