"""The verify registry, and fault injection into its checks: a wrong answer
at one spec must fail exactly the check that reads it, name that spec, and
keep every failure."""

import ast
import errno
import marshal
import os
import re
import types
from pathlib import Path

import pytest

from polygv import cli
from polygv import complexes as cx
from polygv import constructions as cons
from polygv import qvectors as qv
from polygv import stackedness as st
from polygv import vectors as vec
from polygv import verify
from polygv.vectors import CubicalG, GVector, ShortCubicalG

GOLDEN = Path(__file__).parent / "golden" / "verify_full.txt"
GOLDEN_LINES = GOLDEN.read_text().splitlines()
# result name -> case count, in output order: every count below that the golden run prints
CASES = {
    m.group(1): int(m.group(2))
    for m in map(re.compile(r"PASS  (.*) \((\d+) cases\)").fullmatch, GOLDEN_LINES[:-1])
}
# the (k, d, n) layers of the diamond grid: k <= 3, 2k+2 <= d <= 10, d <= n <= 12
LAYERS = 79

LEX, RELATIONS, CONTRACTION = (
    "constructions: lexicographic subdivisions (both routes)",
    "constructions: diamond f-relation and closed-form g",
    "constructions: edge contraction onto the previous diamond",
)
MISSING, FACETS = (
    "stackedness: predicted vs brute missing faces",
    "stackedness: predicted vs oracle stacked facets",
)
WALK_LINES = (LEX, RELATIONS, CONTRACTION, MISSING, FACETS)
WITNESS = "stackedness: incompatibility witness on the grid"
IDENTITY, CERTIFICATE = (
    "qvectors: closing binomial identity",
    "qvectors: g^c_(k+2) = 0 for every n (certificate, k <= 30)",
)
ROUTE_C = "qvectors: explicit-complex route"
Q_NAMED, RAY = "qvectors: named examples", "qvectors: dominant ray coordinate is monotone"
RAYS = [(1, 6), (1, 8), (2, 8), (2, 10), (3, 10)]  # the (k, d) of each ray the ray line walks
ELEMENTARY, GLUED = (
    "qvectors: elementary cubical family",
    "qvectors: two d-cubes glued along a facet give the k = 1 elementary g^c",
)


def _by_name(results, names=(LEX, RELATIONS, CONTRACTION)):
    assert [r.name for r in results] == list(names)
    return {r.name: r for r in results}


def _summary(suite, checks, failed=0):
    return f"verify: suite={suite} grid=full checks={checks} passed={checks - failed} failed={failed}"


def _assert_all_fails_with(capsys, failed):
    """`verify --suite all` exits 1 and prints the golden lines, each name of
    ``failed`` with its FAIL text instead, and the summary counts them."""
    assert cli.main(["verify", "--suite", "all"]) == 1
    want = [
        f"FAIL  {name} ({failed[name]})" if name in failed else line
        for name, line in zip(CASES, GOLDEN_LINES)
    ]
    assert capsys.readouterr().out.splitlines() == want + [_summary("all", len(CASES), len(failed))]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_wrong_closed_form_fails_only_the_relation_check(monkeypatch):
    bad = cons.DiamondSpec(2, 8, 11, 3)
    closed = qv.diamond_g_closed

    def wrong_at_one(k, d, n, a):
        g = closed(k, d, n, a)
        if (k, d, n, a) == (bad.k, bad.d, bad.n, bad.a):
            return GVector(g.entries[:-1] + (g.entries[-1] + 1,))
        return g

    monkeypatch.setattr(qv, "diamond_g_closed", wrong_at_one)
    results = _by_name(verify.check_diamond_grid())
    assert results[LEX].passed and results[LEX].detail == f"{CASES[LEX]} cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == f"{CASES[CONTRACTION]} cases"
    assert not results[RELATIONS].passed
    assert results[RELATIONS].detail == (
        f"1 of {CASES[RELATIONS]} cases failed: {bad}: enumerated g differs from closed form"
    )


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
    assert results[RELATIONS].passed and results[RELATIONS].detail == f"{CASES[RELATIONS]} cases"
    assert results[CONTRACTION].passed and results[CONTRACTION].detail == f"{CASES[CONTRACTION]} cases"
    assert not results[LEX].passed
    assert results[LEX].detail == (
        f"1 of {CASES[LEX]} cases failed: {bad}: cyclic-factor route differs from push/pull route"
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
    assert len(want) == LAYERS
    assert results[CONTRACTION].cases == CASES[CONTRACTION] and results[CONTRACTION].failures == want


def test_dropped_oracle_facet_leaves_a_face_uncovered(monkeypatch):
    oracle = st.oracle_stacked_facets

    def drop_one(complex_, d, k):
        out = oracle(complex_, d, k)
        return out[1:] if len(complex_.vertices) == 9 and d == 6 else out

    monkeypatch.setattr(st, "oracle_stacked_facets", drop_one)
    results = _by_name(verify.check_stack_grid(), (MISSING, FACETS))
    assert results[MISSING].passed and results[MISSING].detail == f"{CASES[MISSING]} cases"
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
    assert results[FACETS].passed and results[FACETS].detail == f"{CASES[FACETS]} cases"
    assert not results[MISSING].passed
    assert results[MISSING].detail == (
        f"1 of {CASES[MISSING]} cases failed: missing faces differ at (k=1, d=6, n=9, a=2)"
    )


def _list_the_witness_face_in_b(monkeypatch, *specs):
    """List the witness face of each (k, d, n) as type II in its diamond b."""
    predicted = st.predicted_stacked_facets
    listed = {}
    for k, d, n in specs:
        w = st.incompatibility_witness(k, d, n)
        listed[k, d, n, w.b] = [st.ClassifiedFace(w.face, st.FACET_II)]
    monkeypatch.setattr(
        st, "predicted_stacked_facets", lambda k, d, n, a: predicted(k, d, n, a) + listed.get((k, d, n, a), [])
    )


def test_a_witness_face_listed_in_diamond_b_fails_the_witness(monkeypatch):
    """Negative control: the witness reports b's tag from b's generated list,
    so listing the (1, 6, 9) face there as type II must fail the line once."""
    _list_the_witness_face_in_b(monkeypatch, (1, 6, 9))
    w = st.incompatibility_witness(1, 6, 9)
    assert (w.b, w.face_type_in_b) == (4, st.FACET_II)
    r = verify.check_stack_witness()
    assert r.cases == CASES[WITNESS]
    assert r.failures == ["witness face is facet-II in D_b at (k=1, d=6, n=9)"]


def test_two_witness_faults_are_two_failures_of_one_line(monkeypatch):
    """Each (k, d, n) is one case, so a fault does not end the line."""
    _list_the_witness_face_in_b(monkeypatch, (1, 6, 9), (2, 8, 12))
    r = verify.check_stack_witness()
    assert r.detail == (
        f"2 of {CASES[WITNESS]} cases failed: witness face is facet-II in D_b at (k=1, d=6, n=9); "
        "witness face is facet-II in D_b at (k=2, d=8, n=12)"
    )


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
    # the 19 diamonds before (1, 8, 10, a=2) count 2 and 3 cases each; at it,
    # the missing check runs before the oracle raises; every other line is golden
    _assert_all_fails_with(capsys, {
        MISSING: "1 of 41 cases failed: raised ValueError: no oracle",
        FACETS: "1 of 58 cases failed: raised ValueError: no oracle",
    })


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


def test_a_dying_plain_check_process_fails_each_plain_result_once(monkeypatch, capsys):
    """The plain checks' process exits with status 3 at its first check; the walk still passes."""
    parent = os.getpid()

    def die():
        if os.getpid() == parent:
            raise AssertionError("a plain check ran in the walking process")
        os._exit(3)

    monkeypatch.setitem(verify.CHECKS, next(iter(verify.CHECKS)), die)
    died = "1 of 1 cases failed: plain-check process ended with wait status 768 after 0 bytes"
    _assert_all_fails_with(capsys, {name: died for name in CASES if name not in WALK_LINES})
    _no_child_left()


def test_a_cut_short_payload_fails_each_plain_result_once(monkeypatch, capsys):
    """The plain checks' process exits 0 having sent only the first 64 bytes of its payload."""
    dumps = marshal.dumps
    sent_short = types.SimpleNamespace(dumps=lambda obj: dumps(obj)[:64], loads=marshal.loads)
    monkeypatch.setattr(verify, "marshal", sent_short)
    cut = "1 of 1 cases failed: plain-check process ended with wait status 0 after 64 bytes"
    _assert_all_fails_with(capsys, {name: cut for name in CASES if name not in WALK_LINES})
    _no_child_left()


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


# the suites with a per-diamond check: a run of one walks the diamond grid once
# and forks once, so that its plain checks run in a child beside the walk
WALKING = ("all", "constructions", "stackedness")


SUITES = ["all", *verify.SUITES]


def _route_c_layers(monkeypatch):
    """The (k, d, n) of each spec that the explicit-complex route compares, in order."""
    specs = []
    monkeypatch.setattr(qv, "gsc_q_from_complexes", lambda spec: specs.append(spec) or qv.gsc_q_closed(spec))
    verify.check_q_route_c()
    return [(spec.k, spec.d, spec.n) for spec in specs]


@pytest.mark.parametrize("suite", SUITES)
def test_one_diamond_walk_per_run(verify_run, monkeypatch, suite):
    """Every per-diamond check of a run reads one walk: each layer is streamed once, or never.

    Route C streams its own layers, in the process that runs the qvectors
    plain checks: that is this one for `--suite qvectors`, and the forked
    child, which the counter does not see, for `--suite all`.
    """
    run = verify_run(suite)
    assert run.code == 0
    if suite in WALKING:
        assert len(run.layers) == len(set(run.layers)) == LAYERS
    elif suite == "qvectors":
        want = _route_c_layers(monkeypatch)
        assert run.layers == want and len(set(want)) == CASES[ROUTE_C]
    else:
        assert run.layers == []


@pytest.mark.parametrize("suite", SUITES)
def test_plain_checks_fork_only_beside_a_walk(verify_run, suite):
    run = verify_run(suite)
    assert run.code == 0
    assert len(run.forks) == (suite in WALKING)


def test_run_suite_all_gives_the_golden_names_in_order(verify_run):
    """The whole stdout of `verify --suite all` is the golden file, which names every check once."""
    run = verify_run("all")
    assert run.code == 0
    assert run.out == "".join(line + "\n" for line in GOLDEN_LINES)
    assert GOLDEN_LINES[-1] == _summary("all", len(CASES)) and len(CASES) == len(GOLDEN_LINES) - 1


def test_an_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus")


def test_without_fork_verify_runs_in_process(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_a_failed_fork_runs_the_plain_checks_in_process(monkeypatch, capsys):
    """A fork refused with EAGAIN closes both ends of its pipe; the run is golden and exits 0."""
    pipes = []
    pipe = os.pipe

    def recorded():
        pipes.append(pipe())
        return pipes[-1]

    def refuse():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, "fork", refuse)
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)
    _no_child_left()


def test_a_payload_larger_than_the_pipe_comes_back_whole(monkeypatch):
    """Over 64 KB of failure text: the pipe is read to its end before the child is reaped."""
    closed = qv.gc_q_closed

    def huge_negative(spec):
        g = closed(spec)
        return CubicalG(g.d, g.entries[:2] + (-(10 ** 1000),) + g.entries[3:])

    monkeypatch.setattr(qv, "gc_q_closed", huge_negative)
    want = verify.check_clbc()
    assert sum(map(len, want.failures)) > 64 * 1024
    got = {r.name: r for r in verify.run_suite("all")}[want.name]
    assert (got.cases, got.failures) == (want.cases, want.failures)
    _no_child_left()


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
    assert not r.passed and r.cases == CASES[r.name] and r.failures == want
    assert r.detail == f"{len(want)} of {CASES[r.name]} cases failed: " + "; ".join(want[:4])


def test_clbc_names_every_violation(monkeypatch):
    bad = verify.q_specs()[:5]
    closed = qv.gc_q_closed

    def negative_on_bad(spec):
        g = closed(spec)
        if spec in bad:
            return CubicalG(g.d, g.entries[:2] + (-1,) + g.entries[3:])
        return g

    monkeypatch.setattr(qv, "gc_q_closed", negative_on_bad)
    r = verify.check_clbc()
    assert r.cases == CASES[r.name]
    assert r.failures == [f"Q(k={s.k},d={s.d},n={s.n}): g^c_2 = -1" for s in bad]


def test_a_gc_fault_past_the_route_grid_fails_each_ray_row_it_reaches(monkeypatch):
    """g^c off by one at n > Q_N only, where "route agreement" never looks: the
    ray line fails once per row with n > Q_N, naming each, and the named
    examples run every case, failing only the (2, 8, 40) comparison."""
    closed = qv.gc_q_closed

    def off_past_the_grid(spec):
        g = closed(spec)
        return CubicalG(g.d, (g.entries[0] + 1,) + g.entries[1:]) if spec.n > verify.Q_N else g

    monkeypatch.setattr(qv, "gc_q_closed", off_past_the_grid)
    results = {r.name: r for r in verify.run_suite("qvectors")}
    ray, named = results.pop(RAY), results.pop(Q_NAMED)
    rows = [qv.QSpec(k, d, n) for k, d in RAYS for n in range(d + 1, d + 25) if n > verify.Q_N]
    assert len(rows) == 92
    assert (ray.cases, ray.failures) == (CASES[RAY], [f"{spec}: gc routes disagree" for spec in rows])
    assert (named.cases, named.failures) == (CASES[Q_NAMED], [f"{qv.QSpec(2, 8, 40)}: gc routes disagree"])
    assert all(r.passed for r in results.values())


def test_a_raising_check_is_a_fail_line_not_an_abort(monkeypatch, capsys):
    """Every result line and the summary still print, and verify exits 1, not 2."""

    def no_witness(k, d, n):
        raise AssertionError("no witness")

    def refuse(self, u, v):
        raise cx.LinkConditionError("refused")

    monkeypatch.setattr(st, "incompatibility_witness", no_witness)
    monkeypatch.setattr(cx.SimplicialComplex, "contract_edge", refuse)
    # the tallies at which each check raised, which no golden line states
    raised = "raised LinkConditionError: refused", "raised AssertionError: no witness"
    _assert_all_fails_with(capsys, {
        "constructions: named examples": f"1 of 26 cases failed: {raised[0]}",
        LEX: f"1 of 13 cases failed: {raised[0]}",
        RELATIONS: f"1 of 13 cases failed: {raised[0]}",
        CONTRACTION: f"1 of 3 cases failed: {raised[0]}",
        "stackedness: named examples": f"1 of 10 cases failed: {raised[1]}",
        WITNESS: f"1 of 1 cases failed: {raised[1]}",
    })


def test_the_golden_run_meets_the_benchmark_floor():
    """The benchmark counts a verify run with fewer result lines than its floor as incorrect."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text())
    [floor] = [
        node.value.value
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "VerifyFull"
        for node in cls.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["MIN_CHECKS"]
    ]
    assert len(CASES) >= floor


def test_the_certificate_lemmas_hold_on_both_sides():
    """L(m+1) - L(m) = 2^m mchoose(m+1, k) and R(m+1) - R(m) = 2^m (2P(m+1) - P(m)), k <= 6, m <= 20."""
    for k in range(1, 7):
        P = [sum((-1) ** j * vec.mchoose(m, k - j) for j in range(k + 1)) for m in range(22)]
        sides = [qv.binomial_identity_check(k, m) for m in range(22)]
        for m in range(21):
            at = (k, m)
            assert sides[m + 1].left - sides[m].left == 2**m * vec.mchoose(m + 1, k), at
            assert sides[m + 1].right - sides[m].right == 2**m * (2 * P[m + 1] - P[m]), at


def test_a_wrong_right_side_past_the_grid_fails_only_the_certificate(monkeypatch):
    """The right side off by one at k = 11 for every m: the sampled grid stops at k = 6."""
    identity = qv.binomial_identity_check

    def off_at_11(k, m):
        got = identity(k, m)
        return qv.BinomialIdentityResult(got.left, got.right + (k == 11))

    monkeypatch.setattr(qv, "binomial_identity_check", off_at_11)
    results = _by_name(verify.check_binomial_identity(), (IDENTITY, CERTIFICATE))
    assert results[IDENTITY].passed and results[IDENTITY].detail == f"{CASES[IDENTITY]} cases"
    assert results[CERTIFICATE].cases == CASES[CERTIFICATE]
    assert results[CERTIFICATE].failures == ["L(0) != R(0) at k=11"]


def test_a_wrong_multichoose_past_35_fails_only_the_certificate(monkeypatch):
    """mchoose(m, i) one too large once m + i > 35 and i > 0, which the sampled grid never reads here."""
    mchoose = vec.mchoose

    def off_past_35(m, i):
        return mchoose(m, i) + (m + i > 35 and i > 0)

    monkeypatch.setattr(vec, "mchoose", off_past_35)
    results = _by_name(verify.check_binomial_identity(), (IDENTITY, CERTIFICATE))
    assert results[IDENTITY].passed and results[IDENTITY].detail == f"{CASES[IDENTITY]} cases"
    cert = results[CERTIFICATE]
    assert cert.cases == CASES[CERTIFICATE] and not cert.passed
    # mchoose(18, 18) is the first entry past 35 that the certificate reads
    assert cert.failures[0] == "increments of L and R differ at (k=18, m=17)"
    assert all(f.startswith("increments of L and R differ at (k=") for f in cert.failures)


@pytest.mark.parametrize("d", range(2, 13))
def test_a_wrong_elementary_ray_fails_the_glued_cubes(monkeypatch, d):
    """blind_blind_gc(d, 1) off by one at index 1: the glued cubes name d, and the formula's line fails too."""
    elementary = qv.blind_blind_gc

    def off_at_d(d_, k):
        g = elementary(d_, k)
        if (d_, k) == (d, 1):
            return CubicalG(g.d, (g.entries[0], g.entries[1] + 1) + g.entries[2:])
        return g

    monkeypatch.setattr(qv, "blind_blind_gc", off_at_d)
    results = _by_name(verify.check_blind_blind(), (ELEMENTARY, GLUED))
    assert not results[ELEMENTARY].passed
    want = elementary(d, 1).entries
    assert results[GLUED].cases == CASES[GLUED]
    assert results[GLUED].failures == [f"two {d}-cubes glued along a facet: g^c is {want}"]
