"""Differentially private stochastic bandits: policies, a Gaussian
privacy accountant, a benchmark harness, and Monte-Carlo verifiers.  The root
re-exports each module's `__all__`; only the command line imports `cli`."""

from . import env, harness, policies, privacy, verify
from .env import *
from .harness import *
from .policies import *
from .privacy import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*env.__all__, *harness.__all__, *policies.__all__, *privacy.__all__, *verify.__all__,
           "__version__"]
