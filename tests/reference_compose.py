"""Reference composer: :class:`~repro.xfdd.compose.Composer` without its
apply-cache.

Each of the composer's five cached entry points calls its uncached body,
so every composition is recomputed from scratch.
``tests/test_xfdd_cache.py`` holds the cached composer to it: on one
factory, both must return the same interned node.
"""

from __future__ import annotations

from repro.xfdd.compose import Composer


class UncachedComposer(Composer):
    def union(self, d1, d2, ctx=None):
        return self._union(d1, d2, self.root_context if ctx is None else ctx)

    def negate(self, d):
        return self._negate(d)

    def restrict(self, d, test, positive):
        return self._restrict(d, test, positive)

    def sequence(self, d1, d2, ctx=None):
        return self._sequence(d1, d2, self.root_context if ctx is None else ctx)

    def _seq_actions(self, seq, d, ctx):
        return self._seq_actions_impl(seq, d, ctx)
