"""Experiment harness: deployments, runners, chaos injection, stats."""
from .chaos import ChaosEvent, ChaosInjector, ChaosMonkey, ChaosSchedule
from .deployment import Deployment, DeploymentSpec, ShardStack
from .soak import run_chaos_soak
from .stats import collect_stats, format_stats

__all__ = [
    "Deployment",
    "DeploymentSpec",
    "ShardStack",
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosInjector",
    "ChaosMonkey",
    "run_chaos_soak",
    "collect_stats",
    "format_stats",
]
