"""Asynchronous federated learning over a slotted TDMA channel.

Slot-exact scheduling simulation and its closed-form timing and staleness
laws, stale-gradient SGD, heterogeneous data provisioning, and a CLI
experiment runner, which also runs the rate trend of the convergence bound
(``tdmafl.cli.rate_trend``) on the exact expected trajectory of a quadratic
task (``tdmafl.simulator.expected_metrics``).
"""

from .errors import (
    ConfigError,
    DataError,
    IdxParseError,
    NumericsError,
    SamplingError,
)
from .timing import (
    SystemConfig,
    idfl_staleness,
    optimal_intentional_delay,
)
from .simulator import (
    RunMetrics,
    SimResult,
    run_timeline,
)
from .learner import SgdLearner
from .tasks import (
    MlpTask,
    QuadraticTask,
    SoftmaxRegressionTask,
    Task,
    make_quadratic,
)
from .data import (
    load_cifar10_batches,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    make_clustered_dataset,
    partition_iid,
    partition_single_label,
)

__version__ = "0.1.0"
