"""Mixed-criticality scheduling on identical multiprocessors: fixed-priority
response-time analysis, an event-driven simulator with budget monitoring and
criticality-mode changes, independent trace checkers, and random workload
generation."""

__version__ = "0.1.0"
