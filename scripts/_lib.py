"""Shared plumbing for the ``scripts/check_*.py`` artifact validators.

Every validator follows the same contract (asserted by
``tests/scripts/test_validators.py``):

* wrong argument count -> print the module docstring, exit 2;
* unreadable or unparsable artifact -> ``cannot load {path!r}:
  {reason}``, exit 1;
* failed checks -> ``FAILED {n} check(s):`` with one ``  - `` bullet
  per problem, exit 1;
* success -> validator-specific summary lines, exit 0.

Every artifact is read through its writer's record by
:func:`read_record` (:func:`repro.records.load`, closed): a badly shaped
artifact is one failed check naming where the shape breaks
(``sim.per_group[0]: expected an object``), never a traceback.  The
validator itself states only the semantic checks: verdicts, floors,
parity, sums.

The success summary stays in each validator, because that is the part
a CI log shows.
"""

import json

from repro.errors import RecordError
from repro.records import load

__all__ = ["ArtifactError", "read_record", "report_problems", "usage"]


class ArtifactError(Exception):
    """An artifact that cannot even be loaded (missing file, bad JSON)."""


def read_record(path, cls, where, problems, lines=False):
    """The JSON file at ``path`` read closed as ``cls`` (a record, or
    an annotation such as ``List[Record]``); with ``lines``, a JSONL
    file read as the list of its non-blank lines.

    Returns None, with one problem naming the spot, when the shape is
    wrong.  Raises :class:`ArtifactError` carrying the standard
    ``cannot load`` message on any OS or JSON error.
    """
    try:
        with open(path) as handle:
            if lines:
                data = [json.loads(line) for line in handle if line.strip()]
            else:
                data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot load {path!r}: {exc}") from exc
    try:
        return load(cls, data, where)
    except RecordError as exc:
        problems.append(str(exc))
        return None


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
