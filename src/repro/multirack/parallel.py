"""Compatibility alias: multirack points always run on one serial engine."""

from .runner import run_multirack

run_multirack_auto = run_multirack
