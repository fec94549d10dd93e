"""Exception hierarchy for the IDEBench reproduction (§4.4's components).

Every error raised by this package derives from :class:`BenchmarkError`, so
callers embedding the benchmark can catch one type. Subclasses separate the
major components (configuration, data generation, workflow handling, query
processing, engine simulation, the wire protocol) because the benchmark driver
reacts differently to each: configuration and workflow errors abort a run,
while query errors are recorded as failed queries in the detailed report.
"""


class BenchmarkError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(BenchmarkError):
    """A benchmark setting or JSON configuration value is invalid."""


class DataGenerationError(BenchmarkError):
    """The data generator could not scale or normalize the seed dataset."""


class WorkflowError(BenchmarkError):
    """A workflow specification is malformed or an interaction is invalid.

    Examples: referencing an unknown visualization, linking a visualization
    to itself, or creating a cycle in the link graph (the paper models
    dashboards as dependency *DAGs*, see §2.2).
    """


class QueryError(BenchmarkError):
    """A query specification cannot be evaluated against the dataset."""


class EngineError(BenchmarkError):
    """An engine simulator was driven incorrectly.

    Raised e.g. when polling a handle that was never submitted, advancing a
    virtual clock backwards, or submitting queries before :meth:`prepare`.
    """


class ProtocolError(BenchmarkError):
    """A network frame or message violates the wire protocol.

    Raised for malformed frames (bad length prefix, oversized body,
    invalid JSON), unknown or missing message types, version mismatches,
    and messages arriving in an illegal state (e.g. an INTERACT before
    ATTACH). The TCP server answers with an ERROR frame and closes the
    connection; clients surface the message to the caller.
    """
