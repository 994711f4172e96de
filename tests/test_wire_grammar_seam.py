"""One wire grammar, enforced.

Everything that touches bytes off a socket or a shard pipe — ``net/``,
``stack/``, ``fleet/`` — and the in-tree load generator whose payloads
travel through them must not import ``pickle`` or ``marshal``: either
one, fed a datagram, is code execution or an interpreter crash.  The
closed TLV grammar of ``net/codec.py`` is the only encoding.

Same shape as ``test_session_seam.py``: an AST scan plus a
guard-the-guard case.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FORBIDDEN = {"pickle", "marshal"}

SCANNED = sorted(
    path
    for package in ("net", "stack", "fleet")
    for path in (SRC / package).rglob("*.py")
) + [SRC / "workloads" / "generator.py"]


def _imports(source: str):
    """Yield (lineno, top-level module) for every import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_nothing_behind_a_socket_imports_an_unsafe_deserializer():
    violations = [
        f"{path.relative_to(SRC.parent)}:{lineno}: import {module}"
        for path in SCANNED
        for lineno, module in _imports(path.read_text())
        if module in FORBIDDEN
    ]
    assert not violations, (
        "an unsafe deserializer is importable on the receive path:\n  "
        + "\n  ".join(violations)
    )


def test_the_scan_itself_sees_imports():
    # Guard the guard: the scan covers the codec, and would see both
    # spellings of a forbidden import wherever they sit in a module.
    assert SRC / "net" / "codec.py" in SCANNED
    assert (1, "struct") in set(_imports("import struct"))
    planted = "def f():\n    import pickle\n    from marshal import loads\n"
    assert {module for __, module in _imports(planted)} == {"pickle", "marshal"}
