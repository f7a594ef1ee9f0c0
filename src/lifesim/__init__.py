"""Life-cycle labor-supply simulator.

Quarterly decision model of work, retirement and benefit take-up for a
heterogeneous cohort under a parameterized tax/benefit rule set, solved with
an actor-critic learner, with population aggregation and reform comparison
on top.
"""

__version__ = "0.1.0"

from .states import EmploymentState

__all__ = ["EmploymentState", "__version__"]
