"""Public API surface tests: everything advertised is importable and the
declared exports exist."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.stack",
    "repro.protocols",
    "repro.core",
    "repro.traces",
    "repro.workloads",
    "repro.cli",
    "repro.errors",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize(
    "name",
    [
        "repro",
        "repro.sim",
        "repro.net",
        "repro.stack",
        "repro.protocols",
        "repro.core",
        "repro.traces",
        "repro.workloads",
    ],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_error_hierarchy():
    from repro.errors import (
        NetworkError,
        ProtocolError,
        ReproError,
        SimulationError,
        StackError,
        SwitchError,
        TraceError,
        VerificationError,
    )

    for exc in (
        SimulationError,
        NetworkError,
        StackError,
        SwitchError,
        TraceError,
        VerificationError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(ProtocolError, StackError)


def test_top_level_convenience():
    """The README quickstart's imports all come from the root package."""
    for symbol in (
        "ProtocolSpec",
        "Simulator",
        "build_group_handle",
        "SwitchableStack",
        "ViewSwitchStack",
        "HysteresisOracle",
        "Trace",
        "TraceRecorder",
        "Group",
    ):
        assert hasattr(repro, symbol)


def test_docstrings_on_public_modules():
    for name in PACKAGES:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"
