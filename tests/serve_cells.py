"""Serve cells for the TCP server tests: the ``RunSpec`` that
``repro serve --tcp`` builds from its flags."""

from repro.runtime import RunSpec, ServingSelector, WorkflowSelector


def serve_cell(ctx, sessions, *, share_engine=False, per_session=1,
               workflow_type="mixed", policy="scripted", engine="idea-sim"):
    """A closed ``mode="serve"`` cell under ``ctx``'s settings."""
    return RunSpec(
        engine,
        ctx.settings,
        workflows=WorkflowSelector(workflow_type=workflow_type, count=per_session),
        mode="serve",
        serving=ServingSelector(sessions, share_engine=share_engine, policy=policy),
    )
