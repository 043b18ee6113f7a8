"""Exception hierarchy for the ``repro`` library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by this library."""


# ---------------------------------------------------------------------------
# Metamodel kernel (S1)
# ---------------------------------------------------------------------------


class MetamodelError(ReproError):
    """Malformed metamodel definition (duplicate feature, bad opposite, ...)."""


class ModelError(ReproError):
    """Illegal operation on a model instance."""


class TypeConformanceError(ModelError):
    """A value does not conform to the declared type of a feature."""


class MultiplicityError(ModelError):
    """A feature's multiplicity constraint is violated."""


class ContainmentError(ModelError):
    """Containment invariants violated (cycle, double containment, ...)."""


class ValidationError(ModelError):
    """Raised by the validator when a model breaks well-formedness rules.

    Carries the full list of diagnostics in :attr:`diagnostics`.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics[:5])
        if len(self.diagnostics) > 5:
            summary += f"; ... ({len(self.diagnostics) - 5} more)"
        super().__init__(f"model validation failed: {summary}")


# ---------------------------------------------------------------------------
# OCL (S3)
# ---------------------------------------------------------------------------


class OclError(ReproError):
    """Base class for OCL failures."""


class OclSyntaxError(OclError):
    """The expression text could not be tokenized or parsed."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class OclEvaluationError(OclError):
    """The expression is syntactically valid but failed to evaluate."""


class OclTypeError(OclEvaluationError):
    """An OCL operation was applied to a value of the wrong type."""


class OclNameError(OclEvaluationError):
    """An unknown variable, feature, or operation name was referenced."""


# ---------------------------------------------------------------------------
# XMI (S4)
# ---------------------------------------------------------------------------


class XmiError(ReproError):
    """Base class for XMI serialization failures."""


class XmiWriteError(XmiError):
    """The model could not be serialized."""


class XmiReadError(XmiError):
    """The document is not a well-formed XMI model for the given metamodel."""


# ---------------------------------------------------------------------------
# Repository (S5)
# ---------------------------------------------------------------------------


class RepositoryError(ReproError):
    """Base class for repository failures."""


class NoSuchVersionError(RepositoryError):
    """A requested version id does not exist in the repository."""


class NothingToUndoError(RepositoryError):
    """Undo was requested but the undo stack is empty."""


class NothingToRedoError(RepositoryError):
    """Redo was requested but the redo stack is empty."""


# ---------------------------------------------------------------------------
# Transformation engine (S6) and core (S12)
# ---------------------------------------------------------------------------


class TransformationError(ReproError):
    """Base class for transformation failures."""


class ParameterError(TransformationError):
    """A parameter set does not satisfy a transformation's signature."""


class PreconditionViolation(TransformationError):
    """A specialized precondition evaluated to false; model left untouched."""

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or f"precondition failed: {condition}")


class PostconditionViolation(TransformationError):
    """A specialized postcondition evaluated to false after application."""

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or f"postcondition failed: {condition}")


class SpecializationError(TransformationError):
    """A generic artifact could not be specialized with the given Si."""


# ---------------------------------------------------------------------------
# Configuration pipeline (S13)
# ---------------------------------------------------------------------------


class PipelineError(ReproError):
    """Base class for configuration-pipeline failures (plan/schedule/execute)."""


class PlanError(PipelineError):
    """A configuration plan is malformed (duplicate/unknown concern, ...)."""


class SchedulingError(PipelineError):
    """The plan cannot be scheduled (precedence cycle, unknown dependency)."""


class BatchExecutionError(PipelineError):
    """A transformation failed mid-batch; the batch was rolled back.

    ``step`` names the failing transformation, ``batch_index`` the batch,
    and ``__cause__`` carries the original error.
    """

    def __init__(self, step, batch_index, cause=None):
        self.step = step
        self.batch_index = batch_index
        #: set by the executor: the PipelineResult of the batches that
        #: completed (and were committed) before this one failed
        self.partial_result = None
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"transformation {step!r} failed in batch {batch_index}; "
            f"the batch was rolled back to its savepoint{detail}"
        )


# ---------------------------------------------------------------------------
# Workflow (S7)
# ---------------------------------------------------------------------------


class WorkflowError(ReproError):
    """Base class for workflow failures."""


class IllegalStepError(WorkflowError):
    """A transformation was attempted that the workflow does not allow yet."""


# ---------------------------------------------------------------------------
# AOP substrate (S8)
# ---------------------------------------------------------------------------


class AopError(ReproError):
    """Base class for AOP substrate failures."""


class PointcutSyntaxError(AopError):
    """A pointcut expression could not be parsed."""


class WeavingError(AopError):
    """Weaving could not be performed (missing target, double weave, ...)."""


# ---------------------------------------------------------------------------
# Code generation (S9)
# ---------------------------------------------------------------------------


class CodegenError(ReproError):
    """Code or aspect generation failed."""


# ---------------------------------------------------------------------------
# Middleware substrate (S10)
# ---------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """Base class for middleware substrate failures."""


class NamingError(MiddlewareError):
    """Name not found / already bound in the naming service."""


class MarshallingError(MiddlewareError):
    """A value could not be (un)marshalled for transport."""


class RemoteInvocationError(MiddlewareError):
    """An RPC failed (unknown object, unknown operation, injected fault)."""


class InvocationTimeout(MiddlewareError):
    """An asynchronous reply did not arrive within the QoS timeout."""


class TransportError(MiddlewareError):
    """A transport refused an envelope (shut down, malformed policy, ...)."""


class ProtocolError(TransportError):
    """A wire frame violated the framing protocol.

    Raised by the sans-IO frame decoder for garbage headers, unknown
    protocol versions, oversized frames, and truncated or undecodable
    payloads.  A protocol error poisons its *connection*, never the
    peer: socket transports drop the connection and surface the routed
    call's failure through the normal transport-fault path.
    """


class NodeDownError(TransportError):
    """The target federation node is dead (killed or unreachable).

    ``pre_effect`` distinguishes the fail-stop case every routed call can
    recover from: the fault was raised *before* the servant dispatched,
    so re-delivering the envelope cannot duplicate effects.  The
    federation raises it at the routing terminal (always pre-effect);
    the failover interceptor promotes a standby and the transport retry
    budget re-delivers, re-resolving the owner.

    ``mid_call`` marks the ambiguous wire case: the request frame was
    fully written but the reply never arrived (disconnect or timeout
    after send).  The peer may have executed the effect, so transports
    raise it with ``pre_effect=False`` — not retryable as-is.  Only the
    failover element may upgrade it to pre-effect, and only after
    confirming the node actually died: under fail-stop the unacked
    effect perished with the node and promotion restored the standby
    snapshot, so re-delivery cannot duplicate it.
    """

    def __init__(
        self,
        message: str,
        node: str = "",
        pre_effect: bool = True,
        mid_call: bool = False,
    ):
        self.node = node
        self.pre_effect = pre_effect
        self.mid_call = mid_call
        super().__init__(message)


class TransactionError(MiddlewareError):
    """Base class for transaction manager failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back; carries the abort reason."""

    def __init__(self, txid, reason):
        self.txid = txid
        self.reason = reason
        super().__init__(f"transaction {txid} aborted: {reason}")


class NoTransactionError(TransactionError):
    """A transactional operation was attempted outside any transaction."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired before the configured timeout."""


class DeadlockError(TransactionError):
    """The lock manager detected a deadlock and chose this caller as victim."""


# ---------------------------------------------------------------------------
# Distributed runtime (S14)
# ---------------------------------------------------------------------------


class FederationError(MiddlewareError):
    """Illegal federation topology or routing failure (no nodes, bad shard)."""


# ---------------------------------------------------------------------------
# Declarative deployment (S17)
# ---------------------------------------------------------------------------


class DeploymentError(ReproError):
    """A deployment spec is invalid, uncompilable, or undiffable.

    Raised by :meth:`~repro.deploy.DeploymentSpec.validate` for
    referential-integrity violations (unknown node in a partition,
    replica count >= node count, duplicate servant names, ...), by the
    compiler when a spec cannot be materialized, and by the reconciler
    for topology changes that have no migration path (e.g. a changed
    application, which requires a redeploy rather than a diff)."""


class ShippingError(ReproError):
    """A component package is malformed, or its replay diverged from the
    shipped model.  Defined here, not in :mod:`repro.core.shipping`, so
    that a worker's refusal crosses the wire and is rebuilt by name."""


class ScenarioError(ReproError):
    """A scenario specification or run is malformed (unknown scenario, ...)."""


class SecurityError(MiddlewareError):
    """Base class for security service failures."""


class AuthenticationError(SecurityError):
    """Credentials were missing or invalid."""


class AccessDeniedError(SecurityError):
    """An authenticated principal lacks the permission for an action."""
