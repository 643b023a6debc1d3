"""Dinic's max-flow algorithm, kept only as an independent test oracle."""

from .dinic import Dinic

__all__ = ["Dinic"]
