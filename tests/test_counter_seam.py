"""One place counts, enforced.

A component counts what happens to it in its own ``stats`` — a
:class:`repro.obs.metrics.Counter` — and an enabled bus *reads* it
(``BusScope.attach``).  Nothing outside ``repro.obs`` may count a second
time into the bus, grow its own counter class, or reach for
``collections.Counter``; every ``self.stats`` is the one ``Counter``.

Same shape as ``test_session_seam.py``: an AST scan plus a
guard-the-guard case.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OBS = SRC / "obs"

#: Receivers that are the bus, or a scope over it.
BUS_RECEIVERS = ("obs", "bus", "scope")


def _receiver(node: ast.expr):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_bus_name(name) -> bool:
    return name is not None and any(
        name == r or name.endswith("_" + r) for r in BUS_RECEIVERS
    )


def violations(source: str, where: str = "<src>"):
    """Every counting-rule breach in one module's source."""
    tree = ast.parse(source)
    found = []
    imports_counter = any(
        isinstance(node, ast.ImportFrom)
        and node.module in ("obs.metrics", "repro.obs.metrics")
        and any(alias.name == "Counter" for alias in node.names)
        for node in ast.walk(tree)
    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and _is_bus_name(_receiver(node.func.value))
        ):
            found.append(f"{where}:{node.lineno}: counts into the bus")
        elif isinstance(node, ast.ClassDef) and node.name == "Counter":
            found.append(f"{where}:{node.lineno}: defines a Counter class")
        elif isinstance(node, ast.ImportFrom) and node.module == "collections":
            if any(alias.name == "Counter" for alias in node.names):
                found.append(f"{where}:{node.lineno}: imports collections.Counter")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "Counter"
            and _receiver(node.value) == "collections"
        ):
            found.append(f"{where}:{node.lineno}: uses collections.Counter")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "stats"
                    and _receiver(target.value) == "self"
                ):
                    value = node.value
                    is_counter = (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "Counter"
                        and not value.args
                    )
                    if not (is_counter and imports_counter):
                        found.append(
                            f"{where}:{node.lineno}: self.stats is not a "
                            "Counter() from repro.obs.metrics"
                        )
    return found


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, path.read_text()


def test_nothing_outside_obs_counts_into_the_bus():
    found = [
        breach
        for path, source in _modules()
        if OBS not in path.parents
        for breach in violations(source, str(path.relative_to(SRC.parent)))
    ]
    assert not found, (
        "count in the owner's stats and BusScope.attach it:\n  "
        + "\n  ".join(found)
    )


def test_counter_is_defined_once():
    owners = [
        str(path.relative_to(SRC))
        for path, source in _modules()
        if any(
            isinstance(node, ast.ClassDef) and node.name == "Counter"
            for node in ast.walk(ast.parse(source))
        )
    ]
    assert owners == ["obs/metrics.py"]


def test_the_scan_itself_sees_the_owners():
    # Guard the guard: the tree is full of owners, and each rule fires
    # on the shape it forbids.
    owners = sum(
        source.count("self.stats = Counter()") for __, source in _modules()
    )
    assert owners >= 20
    ok = "from ..obs.metrics import Counter\nself.stats = Counter()\n"
    assert violations(ok) == []
    for bad in (
        "self.obs.count('net.sends')",
        "bus.count('x', 2)",
        "self._scope.count('x')",
        "class Counter:\n    pass",
        "from collections import Counter",
        "import collections\nc = collections.Counter()",
        "self.stats = {}",
        "from ..sim.monitor import Counter\nself.stats = Counter()",
    ):
        assert violations(bad), bad
