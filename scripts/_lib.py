"""Shared plumbing for the ``scripts/check_*.py`` artifact validators.

Every validator follows the same contract (asserted by
``tests/scripts/test_validators.py``):

* wrong argument count -> print the module docstring, exit 2;
* unreadable or unparsable artifact, or one whose top level is not the
  expected JSON type -> ``cannot load {path!r}: {reason}``, exit 1;
* failed checks -> ``FAILED {n} check(s):`` with one ``  - `` bullet
  per problem, exit 1;
* success -> validator-specific summary lines, exit 0.

An artifact whose writer declares a record (a fleet run, a scenario
suite, a telemetry payload) is first read through that record's closed
:func:`repro.records.load`; a badly shaped artifact is one failed check
naming where the shape breaks (``sim.per_group[0]: expected an
object``), never a traceback.  The validator itself states only the
semantic checks: verdicts, floors, parity, sums.

The helpers here implement the three shared legs; the success summary
stays in each validator, because that is the part reviewers read in CI
logs.
"""

import json

__all__ = ["ArtifactError", "load_artifact", "report_problems", "usage"]


class ArtifactError(Exception):
    """An artifact that cannot even be loaded (missing file, bad JSON)."""


def load_artifact(path, kind=dict):
    """Parse the JSON artifact at ``path``, whose top level must be a
    ``kind`` (``dict``, a JSON object, unless said otherwise).

    Raises :class:`ArtifactError` carrying the standard ``cannot load``
    message on any OS or JSON error, or a top level of another type.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load {path!r}: {exc}") from exc
    if not isinstance(data, kind):
        what = "object" if kind is dict else "array"
        raise ArtifactError(
            f"cannot load {path!r}: not a JSON {what} "
            f"(got {type(data).__name__})"
        )
    return data


def usage(doc):
    """Print the validator's usage docstring; returns exit code 2."""
    print(doc)
    return 2


def report_problems(problems, leading_newline=False):
    """Print the standard failure report; 1 if there were problems."""
    if not problems:
        return 0
    if leading_newline:
        print()
    print(f"FAILED {len(problems)} check(s):")
    for problem in problems:
        print(f"  - {problem}")
    return 1
