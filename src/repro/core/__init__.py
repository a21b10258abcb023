"""The paper's contribution: scaling the SCIERA deployment.

Deployment strategy and effort (Figure 3), monitoring/alerting, the
operator survey (Section 5.6), and the control-plane supervisor.  The SCION Orchestrator's
jobs (Section 4.4) are done by :class:`Supervisor` (certificate
auto-renewal, restarts), :func:`repro.obs.health.build_health_report` (the
status page) and :class:`repro.obs.events.EventLog` (the logs).
"""

from repro.core.deployment import (
    DEPLOYMENT_TIMELINE,
    DeploymentRecord,
    EffortModel,
    learning_curve,
)
from repro.core.monitoring import ConnectivityMonitor, Alert
from repro.core.survey import OPERATOR_SURVEY, SurveyAnalysis
from repro.core.retry import RetryError, RetryOutcome, RetryPolicy, RetrySchedule
from repro.core.supervisor import (
    ServiceState,
    Supervisor,
    SupervisorError,
    SupervisorStats,
)

__all__ = [
    "DEPLOYMENT_TIMELINE",
    "DeploymentRecord",
    "EffortModel",
    "learning_curve",
    "ConnectivityMonitor",
    "Alert",
    "OPERATOR_SURVEY",
    "SurveyAnalysis",
    "RetryError",
    "RetryOutcome",
    "RetryPolicy",
    "RetrySchedule",
    "ServiceState",
    "Supervisor",
    "SupervisorError",
    "SupervisorStats",
]
