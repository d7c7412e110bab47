"""The verify registry, and fault injection into its checks: a wrong answer
at one spec must fail exactly the check that reads it, name that spec, and
keep every failure."""

import ast
import os
import re
from pathlib import Path

import pytest

from polygv import cli
from polygv import complexes as cx
from polygv import constructions as cons
from polygv import qvectors as qv
from polygv import stackedness as st
from polygv import verify
from polygv.vectors import CubicalG, GVector, ShortCubicalG

GOLDEN = Path(__file__).parent / "golden" / "verify_full.txt"

LEX, RELATIONS, CONTRACTION = (
    "constructions: lexicographic subdivisions (both routes)",
    "constructions: diamond f-relation and closed-form g",
    "constructions: edge contraction onto the previous diamond",
)
MISSING, FACETS = (
    "stackedness: predicted vs brute missing faces",
    "stackedness: predicted vs oracle stacked facets",
)


def _by_name(results, names=(LEX, RELATIONS, CONTRACTION)):
    assert [r.name for r in results] == list(names)
    return {r.name: r for r in results}


def test_wrong_closed_form_fails_only_the_relation_check(monkeypatch):
    bad = cons.DiamondSpec(2, 8, 11, 3)
    closed = cons.diamond_g_closed

    def wrong_at_one(k, d, n, a):
        g = closed(k, d, n, a)
        if (k, d, n, a) == (bad.k, bad.d, bad.n, bad.a):
            return GVector(g.entries[:-1] + (g.entries[-1] + 1,))
        return g

    monkeypatch.setattr(cons, "diamond_g_closed", wrong_at_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].passed and results[LEX].detail == "1088 cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == "465 cases"
    assert not results[RELATIONS].passed
    assert results[RELATIONS].detail == f"1 of 1088 cases failed: {bad}: enumerated g differs from closed form"


def test_wrong_cyclic_route_fails_only_the_lex_check(monkeypatch):
    bad = cons.DiamondSpec(1, 6, 10, 4)
    bad_cyclic = cons.lex_subdivision(cons.CyclicSpec(bad.base.K, bad.base.c_count), bad.a)
    from_cyclic = cons.lex_mw_from_cyclic

    def wrong_at_one(spec, cyclic_lex):
        ball = from_cyclic(spec, cyclic_lex)
        if (spec, cyclic_lex) == (bad.base, bad_cyclic):
            return cons.SimplicialComplex(sorted(ball.facets, key=sorted)[1:])
        return ball

    monkeypatch.setattr(cons, "lex_mw_from_cyclic", wrong_at_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[RELATIONS].passed and results[RELATIONS].detail == "1088 cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == "465 cases"
    assert not results[LEX].passed
    assert results[LEX].detail == (
        f"1 of 1088 cases failed: {bad}: cyclic-factor route differs from push/pull route"
    )


def test_dropped_rim_facet_fails_the_relations_it_feeds(monkeypatch):
    """The rim of (1, 6, 9, a=1) loses one facet at c1.

    There the ball's boundary and the f-relation disagree with it.  The layer's
    rim link of c1 comes from that rim, so the h-relation of every later a fails.
    """
    bad = cons.DiamondSpec(1, 6, 9, 1)
    diamonds = cons.diamonds

    def drop_one(k, d, n):
        for spec, rim, ball, dia in diamonds(k, d, n):
            if spec == bad:
                at_c1 = min((f for f in rim.facets if cx.cvert(1) in f), key=sorted)
                rim = cx.SimplicialComplex(rim.facets - {at_c1})
            yield spec, rim, ball, dia

    monkeypatch.setattr(cons, "diamonds", drop_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].failures == [f"{bad}: subdivision boundary differs from the base boundary"]
    assert results[RELATIONS].failures == [f"{bad}: f-polynomial relation fails"]
    assert results[CONTRACTION].failures == [
        f"{cons.DiamondSpec(1, 6, 9, a)}: h-polynomial contraction relation fails" for a in (2, 3, 4)
    ]


def test_relabeled_contraction_fails_only_the_previous_diamond(monkeypatch):
    """Swapping two labels keeps every h-vector, so only the landing comparison fails."""
    bad = cons.DiamondSpec(1, 6, 9, 2)
    bad_diamond = cons.diamond_boundary(bad)
    contract = cx.SimplicialComplex.contract_edge

    def swap_two(self, u, v):
        out = contract(self, u, v)
        if self == bad_diamond:
            return out.relabel({cx.cvert(2): cx.cvert(3), cx.cvert(3): cx.cvert(2)})
        return out

    monkeypatch.setattr(cx.SimplicialComplex, "contract_edge", swap_two)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].passed and results[RELATIONS].passed
    assert results[CONTRACTION].failures == [f"{bad}: contraction is not the previous diamond"]


def test_contraction_past_the_link_condition_fails_every_first_diamond(monkeypatch):
    contract = cx.SimplicialComplex.contract_edge

    def ignore_link_condition(self, u, v):
        try:
            return contract(self, u, v)
        except cx.LinkConditionError:
            return self

    monkeypatch.setattr(cx.SimplicialComplex, "contract_edge", ignore_link_condition)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].passed and results[RELATIONS].passed
    want = [
        f"{cons.DiamondSpec(k, d, n, 1)}: contraction succeeded where the link condition fails"
        for k in range(1, 4)
        for d in range(2 * k + 2, 11)
        for n in range(d, 13)
    ]
    assert len(want) == 79
    assert results[CONTRACTION].cases == 465 and results[CONTRACTION].failures == want


def test_dropped_oracle_facet_leaves_a_face_uncovered(monkeypatch):
    oracle = st.oracle_stacked_facets

    def drop_one(complex_, d, k):
        out = oracle(complex_, d, k)
        return out[1:] if len(complex_.vertices) == 9 and d == 6 else out

    monkeypatch.setattr(st, "oracle_stacked_facets", drop_one)
    results = _by_name(verify.check_stack_grid(), (MISSING, FACETS))
    assert results[MISSING].passed and results[MISSING].detail == "60 cases"
    r = results[FACETS]
    assert not r.passed
    assert "boundary face not covered at (k=1, d=6, n=9, a=1)" in r.detail


def test_dropped_missing_face_fails_only_the_missing_check(monkeypatch):
    predicted = st.predicted_missing_faces

    def drop_one(k, d, n, a):
        out = predicted(k, d, n, a)
        return out[1:] if (k, d, n, a) == (1, 6, 9, 2) else out

    monkeypatch.setattr(st, "predicted_missing_faces", drop_one)
    results = _by_name(verify.check_stack_grid(), (MISSING, FACETS))
    assert results[FACETS].passed and results[FACETS].detail == "90 cases"
    assert not results[MISSING].passed
    assert results[MISSING].detail == "1 of 60 cases failed: missing faces differ at (k=1, d=6, n=9, a=2)"


# (k, d, n) layers that one walk of the diamond grid streams, by suite
WALKED_LAYERS = {"all": 79, "constructions": 79, "stackedness": 79, "transforms": 0, "qvectors": 0}


@pytest.mark.parametrize("suite", WALKED_LAYERS)
def test_one_diamond_walk_per_run(monkeypatch, suite):
    """Every per-diamond check of a run reads one walk: each layer is streamed once, or never."""
    calls = []
    diamonds = cons.diamonds

    def counted(k, d, n):
        calls.append((k, d, n))
        return diamonds(k, d, n)

    monkeypatch.setattr(cons, "diamonds", counted)
    assert all(r.passed for r in verify.run_suite(suite))
    assert len(calls) == len(set(calls)) == WALKED_LAYERS[suite]


def test_verify_streams_the_diamonds_in_one_place():
    """A new per-diamond check extends the walk instead of adding a stream."""
    tree = ast.parse(Path(verify.__file__).read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "diamonds"
        and getattr(node.func.value, "id", None) == "cons"
    ]
    assert len(calls) == 1


def test_a_raising_per_diamond_body_stops_only_its_own_check(monkeypatch, capsys):
    """The stack grid raises at (1, 8, 10, a=2) and gets no further diamond; the walk goes on."""
    bad = cons.diamond_boundary(cons.DiamondSpec(1, 8, 10, 2))
    oracle = st.oracle_stacked_facets

    def raise_at_one(complex_, d, k):
        if complex_ == bad:
            raise ValueError("no oracle")
        return oracle(complex_, d, k)

    monkeypatch.setattr(st, "oracle_stacked_facets", raise_at_one)
    assert cli.main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    golden = GOLDEN.read_text().splitlines()
    assert len(lines) == len(golden) == 29
    assert lines[-1] == "verify: suite=all grid=full checks=28 passed=26 failed=2"
    # the 19 diamonds before (1, 8, 10, a=2) count 2 and 3 cases each; at it,
    # the missing check runs before the oracle raises
    failed = {
        MISSING: f"FAIL  {MISSING} (1 of 41 cases failed: raised ValueError: no oracle)",
        FACETS: f"FAIL  {FACETS} (1 of 58 cases failed: raised ValueError: no oracle)",
    }
    # every other line, the diamond grid's 1088/1088/465 cases included, is golden
    for line, want in zip(lines[:-1], golden[:-1]):
        name = re.fullmatch(r"PASS  (.*) \(\d+ cases\)", want).group(1)
        assert line == failed.get(name, want)


def test_a_raising_walk_fails_each_per_diamond_check_once(monkeypatch):
    """The walk breaks at layer (2, 8, 11): the checks it feeds fail once each, the others pass."""
    diamonds = cons.diamonds

    def broken_at_one(k, d, n):
        if (k, d, n) == (2, 8, 11):
            raise ValueError("no stream")
        return diamonds(k, d, n)

    monkeypatch.setattr(cons, "diamonds", broken_at_one)
    failed = {r.name: (r.cases, r.failures) for r in verify.run_suite("all") if not r.passed}
    assert list(failed) == [LEX, RELATIONS, CONTRACTION, MISSING, FACETS]
    assert all(failures == ["raised ValueError: no stream"] for _, failures in failed.values())
    # the stack grid had checked all its k = 1 diamonds before the walk broke
    assert failed[MISSING][0] == 61 and failed[FACETS][0] == 91


WALK_LINES = (LEX, RELATIONS, CONTRACTION, MISSING, FACETS)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_dying_plain_check_process_fails_each_plain_result_once(monkeypatch, capsys):
    """The plain checks' process exits with status 3 at its first check; the walk still passes."""
    parent = os.getpid()

    def die():
        if os.getpid() == parent:
            raise AssertionError("a plain check ran in the walking process")
        os._exit(3)

    monkeypatch.setitem(verify.CHECKS, next(iter(verify.CHECKS)), die)
    assert cli.main(["verify", "--suite", "all"]) == 1
    _no_child_left()
    lines = capsys.readouterr().out.splitlines()
    golden = GOLDEN.read_text().splitlines()
    assert len(lines) == len(golden) == 29
    assert lines[-1] == "verify: suite=all grid=full checks=28 passed=5 failed=23"
    died = "1 of 1 cases failed: plain-check process ended with wait status 768 after 0 bytes"
    for line, want in zip(lines[:-1], golden[:-1]):
        name = re.fullmatch(r"PASS  (.*) \(\d+ cases\)", want).group(1)
        assert line == (want if name in WALK_LINES else f"FAIL  {name} ({died})")


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
def test_no_process_outlives_a_run(monkeypatch, raised):
    """The plain checks' process is reaped after a run, and after a walk that raises."""
    verify.run_suite("all")
    _no_child_left()
    diamonds = cons.diamonds

    def broken_at_one(k, d, n):
        if (k, d, n) == (2, 8, 11):
            raise raised("no stream")
        return diamonds(k, d, n)

    monkeypatch.setattr(cons, "diamonds", broken_at_one)
    if raised is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            verify.run_suite("all")
    else:
        assert sum(not r.passed for r in verify.run_suite("all")) == len(WALK_LINES)
    _no_child_left()


# forks per run: plain checks go to a child only when a walk runs beside them
FORKS = {"all": 1, "constructions": 1, "stackedness": 1, "transforms": 0, "qvectors": 0}


@pytest.mark.parametrize("suite", FORKS)
def test_plain_checks_fork_only_beside_a_walk(monkeypatch, suite):
    forks = []
    fork = os.fork

    def counted():
        forks.append(suite)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert all(r.passed for r in verify.run_suite(suite))
    assert len(forks) == FORKS[suite]


def test_without_fork_verify_runs_in_process(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_a_payload_larger_than_the_pipe_comes_back_whole(monkeypatch):
    """Over 64 KB of failure text: the pipe is read to its end before the child is reaped."""
    gc_q = qv.gc_q

    def huge_negative(spec):
        g = gc_q(spec)
        return CubicalG(g.d, g.entries[:2] + (-(10 ** 1000),) + g.entries[3:])

    monkeypatch.setattr(qv, "gc_q", huge_negative)
    want = verify.check_clbc()
    assert sum(map(len, want.failures)) > 64 * 1024
    got = {r.name: r for r in verify.run_suite("all")}[want.name]
    assert (got.cases, got.failures) == (want.cases, want.failures)
    _no_child_left()


@pytest.fixture(scope="module")
def all_results():
    return verify.run_suite("all")


def test_run_suite_all_gives_the_golden_names_in_order(all_results):
    golden = re.findall(r"^PASS  (.*) \(\d+ cases\)$", GOLDEN.read_text(), re.M)
    names = [r.name for r in all_results]
    assert len(golden) == 28
    assert names == golden
    assert len(set(names)) == len(names)


def _bound_names(target):
    """Names an assignment, loop or ``with`` target binds, unpacking included.

    ``r.cases += n`` binds an attribute of ``r``, not ``r`` itself.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_bound_names, target.elts))
    return set()


def test_no_check_rebinds_its_own_parameters():
    """A check body that rebinds its ``CheckResult`` parameter loses the tally."""
    tree = ast.parse(Path(verify.__file__).read_text())
    checks = [
        fn for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "check"
            for dec in fn.decorator_list
        )
    ]
    assert len(checks) == len(verify.CHECKS)
    for fn in checks:
        params = {arg.arg for arg in fn.args.args}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.For)):
                targets = [node.target]
            elif isinstance(node, ast.With):
                targets = [item.optional_vars for item in node.items if item.optional_vars]
            else:
                continue
            for target in targets:
                rebound = _bound_names(target) & params
                assert not rebound, f"{fn.name} rebinds {sorted(rebound)} at line {node.lineno}"


def test_every_module_check_is_registered_once():
    module_checks = {fn for name, fn in vars(verify).items() if name.startswith("check_")}
    registered = list(verify.CHECKS.values())
    assert len(registered) == len(set(registered)) == len(module_checks)
    assert set(registered) == module_checks


def test_check_keeps_every_failure(monkeypatch):
    bad = [spec for spec in verify.q_specs() if spec.k == 1 and spec.n == spec.d + 1]
    from_diamonds = qv.gsc_q_from_diamonds

    def wrong_on_bad(spec):
        g = from_diamonds(spec)
        if spec in bad:
            return ShortCubicalG(g.d, (g.entries[0] + 1,) + g.entries[1:])
        return g

    monkeypatch.setattr(qv, "gsc_q_from_diamonds", wrong_on_bad)
    r = verify.check_q_routes()
    want = [f"{spec}: gsc routes disagree" for spec in bad]
    assert len(want) >= 6
    assert not r.passed and r.cases == 654 and r.failures == want
    assert r.detail == f"{len(want)} of 654 cases failed: " + "; ".join(want[:4])


def test_clbc_names_every_violation(monkeypatch):
    bad = verify.q_specs()[:5]
    gc_q = qv.gc_q

    def negative_on_bad(spec):
        g = gc_q(spec)
        if spec in bad:
            return CubicalG(g.d, g.entries[:2] + (-1,) + g.entries[3:])
        return g

    monkeypatch.setattr(qv, "gc_q", negative_on_bad)
    r = verify.check_clbc()
    assert r.cases == 143
    assert r.failures == [f"Q(k={s.k},d={s.d},n={s.n}): g^c_2 = -1" for s in bad]


def test_a_raising_check_is_a_fail_line_not_an_abort(monkeypatch, capsys):
    """Every result line and the summary still print, and verify exits 1, not 2."""

    def no_witness(k, d, n):
        raise AssertionError("no witness")

    def refuse(self, u, v):
        raise cx.LinkConditionError("refused")

    monkeypatch.setattr(st, "incompatibility_witness", no_witness)
    monkeypatch.setattr(cx.SimplicialComplex, "contract_edge", refuse)
    raised = {
        "constructions: named examples": "LinkConditionError: refused",
        LEX: "LinkConditionError: refused",
        RELATIONS: "LinkConditionError: refused",
        CONTRACTION: "LinkConditionError: refused",
        "stackedness: named examples": "AssertionError: no witness",
        "stackedness: incompatibility witness on the grid": "AssertionError: no witness",
    }
    assert cli.main(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    golden = GOLDEN.read_text().splitlines()
    assert len(lines) == len(golden) == 29
    assert lines[-1] == "verify: suite=all grid=full checks=28 passed=22 failed=6"
    for line, want in zip(lines[:-1], golden[:-1]):
        name = re.fullmatch(r"PASS  (.*) \(\d+ cases\)", want).group(1)
        if name in raised:
            fail = rf"FAIL  {re.escape(name)} \(1 of \d+ cases failed: raised {raised[name]}\)"
            assert re.fullmatch(fail, line)
        else:
            assert line == want
