"""Exception hierarchy for the ConfErr reproduction.

Every error raised by the library derives from :class:`ConfErrError`, so
callers can catch a single base class.  More specific subclasses describe
the stage of the pipeline at which the failure occurred:

* parsing / serialising native configuration files,
* mapping between the system-specific tree and a plugin-specific view,
* generating fault scenarios from templates,
* driving the system under test (SUT).
"""

from __future__ import annotations


class ConfErrError(Exception):
    """Base class for all errors raised by the library."""


class ParseError(ConfErrError):
    """A native configuration file could not be parsed.

    Attributes
    ----------
    filename:
        Name of the file that failed to parse (may be ``"<string>"``).
    line:
        1-based line number of the offending input, when known.
    """

    def __init__(self, message: str, *, filename: str = "<string>", line: int | None = None):
        self.filename = filename
        self.line = line
        location = filename if line is None else f"{filename}:{line}"
        super().__init__(f"{location}: {message}")


class SerializationError(ConfErrError):
    """A configuration tree cannot be expressed in the native file format.

    The paper (Section 3.2 / 5.4) relies on this: some mutated abstract
    representations cannot be turned back into a valid configuration file
    (for example djbdns cannot express a PTR record detached from its A
    record), and ConfErr must detect and report this rather than inject a
    malformed file.
    """


class TransformError(ConfErrError):
    """A view transformation (system-specific tree <-> plugin view) failed."""


class PathSyntaxError(ConfErrError):
    """A node-selection path expression could not be parsed."""


class TemplateError(ConfErrError):
    """An error template was mis-parameterised or could not be applied."""


class PluginError(ConfErrError):
    """An error-generator plugin failed to produce fault scenarios."""


class SUTError(ConfErrError):
    """The system under test could not be driven (setup/start/stop failures
    unrelated to the injected configuration error)."""


class CampaignError(ConfErrError):
    """An injection campaign was misconfigured."""


class CancelledRun(ConfErrError):
    """A run was cancelled cooperatively while in flight.

    Raised from a suite's cancellation hook between records/cells; every
    record released before the cancellation is already durable in the
    result store, so a cancelled run can later be resumed like an
    interrupted one.  The campaign-as-a-service scheduler uses this to
    implement job cancellation and graceful service shutdown."""


class ServiceError(ConfErrError):
    """The campaign service (HTTP API / job queue) hit an operational error."""


class ServiceNotFoundError(ServiceError):
    """The job a service request names does not exist for the calling tenant."""


class ServiceConflictError(ServiceError):
    """A well-formed service request that the job's state forbids
    (cancelling a job that already finished)."""


class _CodedError(ConfErrError):
    """An error whose ``code`` names the check that failed.

    ``code`` is one of the subclass's ``CODES`` and is chosen where the
    failure is detected, so a CLI message, a service response body and a
    lint finding all name the same stable code."""

    CODES: tuple[str, ...] = ()

    def __init__(self, message: str, code: str):
        if code not in self.CODES:
            family = self.CODES[0].split("/")[0]
            raise ValueError(f"unknown {family} error code {code!r}")
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # keep the code across a process pool (the default rebuilds from args)
        return type(self), (str(self), self.code)


#: Every code a :class:`StoreError` can carry (docs/ROBUSTNESS.md).
STORE_ERROR_CODES = (
    "store/missing",
    "store/exists",
    "store/locked",
    "store/incompatible",
    "store/corrupt-line",
    "store/manifest-shape",
    "store/index-shape",
)


class StoreError(_CodedError):
    """A persistent result store is missing, locked, damaged, or incompatible
    with the suite being run or the artefact being rendered.

    ``code`` (one of :data:`STORE_ERROR_CODES`) says which: ``store/missing``
    (no store where one is expected), ``store/exists`` (a fresh run pointed
    at an existing store), ``store/locked`` (another live writer),
    ``store/incompatible`` (another experiment, manifest version or
    artefact), ``store/corrupt-line`` (an unreadable interior record line)
    ``store/manifest-shape`` (a manifest that is not a JSON object, or
    lacks its ``systems`` mapping) or ``store/index-shape`` (a
    ``systems.json`` index that is not a JSON object of file names)."""

    CODES = STORE_ERROR_CODES


#: Every diagnostic code a :class:`SpecError` can carry.  Each one is a
#: registered spec lint rule (docs/LINTING.md), so ``validate --json``, the
#: campaign service's 400 bodies and ``conferr lint`` speak one dialect.
SPEC_ERROR_CODES = (
    "spec/parse-error",
    "spec/unknown-key",
    "spec/invalid-value",
    "spec/unknown-system",
    "spec/unknown-plugin",
    "spec/unknown-plugin-param",
    "spec/duplicate-label",
    "spec/store-filename-clash",
)


class SpecError(_CodedError):
    """An experiment specification is structurally or semantically invalid.

    Messages are prefixed with the exact path of the offending entry
    (``plugins[1].params.layout: unknown layout 'qwertz-xx'``) so spec files
    can be corrected without guesswork.  ``code`` (one of
    :data:`SPEC_ERROR_CODES`) is chosen where the failure is detected; code
    that prefixes a caught error's message with a path passes it along."""

    CODES = SPEC_ERROR_CODES

    def __init__(self, message: str, code: str = "spec/invalid-value"):
        super().__init__(message, code)
