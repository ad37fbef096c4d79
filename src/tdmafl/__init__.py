"""Asynchronous federated learning over a slotted TDMA channel.

Slot-exact scheduling simulation and its closed-form timing and staleness
laws, stale-gradient SGD, heterogeneous data provisioning, the rate trend of
the convergence bound, and a CLI experiment runner.
"""

from .errors import (
    ConfigError,
    DataError,
    IdxParseError,
    NumericsError,
    SamplingError,
)
from .timing import (
    DelayChoice,
    SystemConfig,
    idfl_staleness,
    optimal_intentional_delay,
)
from .simulator import (
    RunMetrics,
    SimResult,
    StalenessRecord,
    TimelineEvent,
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
    LabeledDataset,
    load_cifar10_batches,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    make_clustered_dataset,
    partition_iid,
    partition_single_label,
)

__version__ = "0.1.0"
