"""One small job of each kind the benchmark runs, through the benchmark's
own job code, so that a change to a name the benchmark imports fails
here as well as in the benchmark."""

import os
import sys

import pytest

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
    # the pairing kernels against the product formula and the P^1 values;
    # 5*z^4 is a chain model that is not normalized
    ("milnor-zoo", "pairing:p1-q2"),
    ("milnor-zoo", "pairing:1/4*z^4"),
    ("milnor-zoo", "pairing:5*z^4"),
]
# traced runs also take the side calls (the Neumann stages, the Groebner
# basis inside analyze) and report the layer counters
TRACED = [("unfold-full", "A2/N6"), ("socle-deep", "p1-q2/N20")]


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
        assert sorted(job.counters(out)) == sorted(run.COUNTERS)
