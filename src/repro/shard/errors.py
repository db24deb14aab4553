"""Structured sharding errors.

Sharding failures must surface at *construction/load* time with a
machine-readable shape, never as a mid-prefill broadcasting crash:
:class:`ShardError` mirrors the :class:`~repro.serve.errors.ServeError`
convention (a stable ``code`` plus ``to_dict()`` wire form) so a
front-end can branch on ``shard_incompatible`` without parsing prose.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["ShardError"]


class ShardError(ValueError):
    """A model/config cannot be sharded as requested (incompatible
    head counts, degenerate mesh)."""

    code = "shard_incompatible"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_dict(self) -> Dict:
        """The JSON error body a front-end would serialize."""
        out: Dict = {"error": self.code, "message": str(self)}
        out.update(self.details)
        return out

