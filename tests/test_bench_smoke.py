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
        import tracing
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads, tracing


@pytest.mark.parametrize("workload, name", [
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
])
def test_bench_job_passes_its_check(bench_modules, tmp_path, workload, name):
    workloads, tracing = bench_modules
    job, = [j for j in workloads.build(workload, 1, str(tmp_path))
            if j.name == name]
    out = job.run(tracing.NullTracer())
    assert job.check(out) == []
