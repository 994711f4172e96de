"""The runtime boundary, enforced.

No module outside ``repro/sim/`` and ``repro/runtime/`` may import the
discrete-event engine (``Simulator`` / ``EventHandle`` / the
``repro.sim.engine`` module) directly — everything else talks to the
:mod:`repro.runtime` interface, which is what lets the same stacks run
on simulated or real time.  Monitors and RNG streams
(``repro.sim.monitor``, ``repro.sim.rng``) are plain data helpers with
no clock and stay importable from anywhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages that legitimately touch the engine.
ALLOWED_PREFIXES = ("sim", "runtime")

#: The modules whose direct import is restricted.
ENGINE_MODULES = {"repro.sim.engine"}
ENGINE_NAMES = {"Simulator", "EventHandle"}


def _is_allowed(path: Path) -> bool:
    rel = path.relative_to(SRC)
    return rel.parts and rel.parts[0] in ALLOWED_PREFIXES


def _engine_imports(path: Path):
    """Yield (lineno, description) for every engine import in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # Resolve "from ..sim.engine import X" style relative imports.
    package_parts = ("repro",) + path.relative_to(SRC).parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ENGINE_MODULES or alias.name.startswith(
                    "repro.sim.engine"
                ):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import
                base = package_parts[: len(package_parts) - node.level + 1]
                module = ".".join(base + tuple((node.module or "").split(".")))
            else:
                module = node.module or ""
            if module in ENGINE_MODULES:
                yield node.lineno, f"from {module} import ..."
            elif module in ("repro.sim", "repro"):
                # Importing engine names through a package facade is the
                # same violation wearing a hat.
                for alias in node.names:
                    if alias.name in ENGINE_NAMES and module == "repro.sim":
                        yield node.lineno, f"from {module} import {alias.name}"


def test_only_sim_and_runtime_import_the_engine():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        if _is_allowed(path):
            continue
        for lineno, what in _engine_imports(path):
            rel = path.relative_to(SRC.parent)
            violations.append(f"{rel}:{lineno}: {what}")
    assert not violations, (
        "the engine leaked past the runtime boundary:\n  "
        + "\n  ".join(violations)
        + "\n(import from repro.runtime instead)"
    )


def test_the_scan_itself_sees_engine_imports():
    # Guard the guard: the allowed packages do import the engine, so an
    # empty scan there would mean the detector is broken.
    runtime_pkg = SRC / "runtime"
    hits = [
        hit
        for path in runtime_pkg.rglob("*.py")
        for hit in _engine_imports(path)
    ]
    assert hits, "detector found no engine imports even in repro/runtime/"
