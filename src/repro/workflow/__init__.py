"""The workflow layer: CHASE-CI's core contribution.

The paper's thesis is that coupling "a dynamic cyberinfrastructure and
the workflow process" with constant measurement "drastically reduces
execution bottlenecks" (§VIII).  This package is that layer:

- :class:`WorkflowStep` / :class:`Workflow` — steps as containerized
  units with declared resources, composed into a DAG (Figure 2).
- :class:`WorkflowDriver` — maps steps to Kubernetes Jobs on the
  testbed, executes them in dependency order, and **measures** each one
  (pods, CPUs, GPUs, memory, data processed, wall time) — producing
  Table I and the per-step Grafana views of Figures 3–6.
- :mod:`repro.workflow.connect_steps` — the four-step CONNECT case
  study: THREDDS download, FFN training, 50-GPU inference, JupyterLab
  visualization (§III).
- :mod:`repro.workflow.extensions` — the paper's planned extensions
  (§III-E): distributed data pre-processing, distributed training via
  ReplicaSets + Services, and the hyperparameter/validation queue.
- :mod:`repro.workflow.ppods` — the PPoDS ("Process for the Practice of
  Data Science") collaborative development methodology (§VI): per-step
  tests, measurement history, and execution plans.
"""

from repro.workflow.step import StepContext, StepReport, WorkflowStep
from repro.workflow.stream import StreamChannel
from repro.workflow.degradation import DegradationPolicy
from repro.workflow.workflow import Workflow
from repro.workflow.driver import WorkflowDriver, WorkflowReport
from repro.workflow.connect_steps import (
    DownloadStep,
    TrainingStep,
    InferenceStep,
    VisualizationStep,
    build_connect_workflow,
)
from repro.workflow.persistence import (
    WorkflowCheckpoint,
    load_report,
    save_report,
)
from repro.workflow.ppods import PPoDSSession, StepTest
from repro.workflow.kepler import KeplerSession
from repro.workflow.suite import run_robustness_suite, RobustnessReport
from repro.workflow.extensions import (
    DistributedPreprocessing,
    DistributedTraining,
    HyperparameterSweep,
)

__all__ = [
    "WorkflowStep",
    "StepContext",
    "StepReport",
    "StreamChannel",
    "DegradationPolicy",
    "Workflow",
    "WorkflowDriver",
    "WorkflowReport",
    "DownloadStep",
    "TrainingStep",
    "InferenceStep",
    "VisualizationStep",
    "build_connect_workflow",
    "WorkflowCheckpoint",
    "save_report",
    "load_report",
    "PPoDSSession",
    "StepTest",
    "KeplerSession",
    "run_robustness_suite",
    "RobustnessReport",
    "DistributedPreprocessing",
    "DistributedTraining",
    "HyperparameterSweep",
]
