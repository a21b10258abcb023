"""The paper's contribution: scaling the SCIERA deployment.

Deployment strategy and effort (Figure 3), monitoring/alerting, the
operator survey (Section 5.6), and the control-plane supervisor.  The SCION Orchestrator's
jobs (Section 4.4) are done by :class:`~repro.core.supervisor.Supervisor` (certificate
auto-renewal, restarts), :func:`repro.obs.health.build_health_report` (the
status page) and :class:`repro.obs.events.EventLog` (the logs).
"""
