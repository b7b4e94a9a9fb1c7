"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  More specific subclasses indicate which subsystem
rejected the input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph structure or graph operation."""


class CycleError(GraphError):
    """A cycle was found where a DAG was required."""


class NotTwoTerminalError(GraphError):
    """A graph is not two-terminal (single source / single sink)."""


class SpecificationError(ReproError):
    """An invalid workflow specification."""


class DerivationError(ReproError):
    """An invalid derivation step or derivation sequence."""


class ExecutionError(ReproError):
    """An invalid execution event or insertion sequence."""


class LabelingError(ReproError):
    """A labeling scheme was misused (wrong grammar class, stale label...)."""


class UnsupportedWorkflowError(LabelingError):
    """The scheme does not support this class of workflows.

    Raised e.g. when the static SKL scheme is asked to label a run of a
    recursive specification.
    """


class ServiceError(ReproError):
    """An invalid operation against the provenance query service."""


class SessionNotFoundError(ServiceError):
    """A service request named a session that does not exist."""


class ProtocolError(ServiceError):
    """A malformed or unsupported service protocol message."""


class FormatError(ReproError):
    """Malformed serialized document."""
