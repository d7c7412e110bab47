import contextlib
import io
import os
from types import SimpleNamespace

import pytest

from polygv import cli
from polygv import constructions as cons
from polygv import qvectors as qv
from polygv import stackedness as st


def _verify_once(suite):
    """Run ``verify --suite <suite>`` in process, counting the diamond layers it
    streams, the cyclic-factor push chains it runs and the processes it forks,
    and check that no child outlives it."""
    layers, cyclic_chains, forks = [], [], []
    diamonds, lex_subdivisions, fork = cons.diamonds, cons.lex_subdivisions, os.fork

    def counted_diamonds(k, d, n):
        layers.append((k, d, n))
        return diamonds(k, d, n)

    def counted_lex_subdivisions(spec):
        if isinstance(spec, cons.CyclicSpec):
            cyclic_chains.append(spec)
        return lex_subdivisions(spec)

    def counted_fork():
        forks.append(suite)
        return fork()

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cons, "diamonds", counted_diamonds)
        mp.setattr(cons, "lex_subdivisions", counted_lex_subdivisions)
        mp.setattr(os, "fork", counted_fork)
        code = cli.main(["verify", "--suite", suite])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return SimpleNamespace(
        code=code, out=out.getvalue(), layers=layers, cyclic_chains=cyclic_chains, forks=forks
    )


@pytest.fixture(scope="session")
def verify_run():
    """suite -> its one ``verify --suite`` run of the session: exit code, stdout,
    the diamond layers streamed, the cyclic-factor push chains run and the
    forks made.  Every test that reads a suite's run reads the same one, so
    tier-1 runs each suite once."""
    runs = {}

    def run(suite):
        if suite not in runs:
            runs[suite] = _verify_once(suite)
        return runs[suite]

    return run


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Empty the process-wide result caches around every test, so that a fault a
    test patches in reaches the checks and not a value cached by an earlier test."""
    qv.full_hsc_q.cache_clear()
    st.cube_subgraph_images.cache_clear()
    yield
    qv.full_hsc_q.cache_clear()
    st.cube_subgraph_images.cache_clear()
