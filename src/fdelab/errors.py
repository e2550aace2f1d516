"""The exceptions fdelab raises on purpose, and what the CLI makes of them.

ConfigError       the input cannot describe a valid run         exit 2
NumericalFailure  a solver or estimator could not give a
                  trustworthy result                            exit 3
StepFailure       one implicit step did not converge; evolve
                  halves dt and retries (a NumericalFailure)    exit 3

The message names the failure.  Any other exception is a bug and surfaces
as a traceback.
"""


class ConfigError(ValueError):
    """Invalid input: config syntax or schema, a domain or an initial field."""


class NumericalFailure(RuntimeError):
    """A solver or estimator could not give a trustworthy result."""


class StepFailure(NumericalFailure):
    """Newton did not converge within one implicit step (caller may halve dt)."""
