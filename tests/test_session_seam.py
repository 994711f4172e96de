"""The harness seam, enforced.

There is one way to build a run: ``repro.workloads.session``.  No other
module under ``src/repro/`` may pick a runtime by name, construct a
network model, or construct a load generator, latency probe or trace
recorder — the bootstrap, the recording and the load wiring live once.
The defining packages (``runtime/`` for ``make_runtime``, ``net/`` for
the network classes, ``traces/`` for the recorder) are exempt;
everything else goes through ``Session``.

Same shape as ``test_runtime_boundary.py``: an AST scan plus a
guard-the-guard case.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SESSION = SRC / "workloads" / "session.py"

#: Calling any of these is building a run by hand.
HARNESS_CALLS = {
    "make_runtime",
    "UdpNetwork",
    "PointToPointNetwork",
    "EthernetNetwork",
    "PoissonSender",
    "LatencyProbe",
    "TraceRecorder",
}

#: Packages that define (and so may call) the names above.
DEFINING_PACKAGES = ("runtime", "net", "traces")


def _calls(path: Path, names):
    """Yield (lineno, name) for every call of one of ``names`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in names:
            yield node.lineno, name


def _runtime_type_checks(path: Path):
    """Yield linenos of ``isinstance(..., AsyncioRuntime)`` branches."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "AsyncioRuntime"
        ):
            yield node.lineno


def _outside_the_seam():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if path == SESSION or rel.parts[0] in DEFINING_PACKAGES:
            continue
        yield path


def test_only_the_session_builds_a_run():
    violations = [
        f"{path.relative_to(SRC.parent)}:{lineno}: {name}(...)"
        for path in _outside_the_seam()
        for lineno, name in _calls(path, HARNESS_CALLS)
    ]
    assert not violations, (
        "a run was wired by hand outside repro.workloads.session:\n  "
        + "\n  ".join(violations)
        + "\n(take a Session instead)"
    )


def test_only_the_session_branches_on_the_runtime_type():
    violations = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in _outside_the_seam()
        for lineno in _runtime_type_checks(path)
    ]
    assert not violations, (
        "isinstance(runtime, AsyncioRuntime) outside the session:\n  "
        + "\n  ".join(violations)
    )


def test_one_sequencer_and_token_ring_spec_factory():
    # total_order_specs is the only place a sequencer slot is made, so
    # no runner can grow its own sequencer + token-ring pair again.
    owners = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "protocols"
        and list(_calls(path, {"SequencerLayer"}))
    ]
    assert owners == ["workloads/session.py"]


def test_settle_and_oracle_messages_live_once():
    for phrase in ("did not converge within", "disagree on the protocol"):
        owners = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if phrase in path.read_text()
        ]
        assert owners == ["workloads/session.py"], (phrase, owners)


def test_the_scan_itself_sees_the_session():
    # Guard the guard: the session does all of this — recording the
    # trace included — so an empty scan there would mean the detector
    # is broken.
    called = {name for __, name in _calls(SESSION, HARNESS_CALLS)}
    assert "TraceRecorder" in called
    assert called == HARNESS_CALLS
    assert list(_runtime_type_checks(SESSION))
