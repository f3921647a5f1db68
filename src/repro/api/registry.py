"""Pluggable component registries (strategies, preconditioners, matrices, kernels).

The library used to hard-code its component factories as if/elif
chains (``core/strategies.py``) and module-level dicts
(``preconditioners/__init__.py``, ``matrices/suite.py``).  This module
replaces those with decorator-based registries so that

* the built-in name/alias tables become ordinary registrations,
* third-party code can plug in new strategies, preconditioners or test
  problems without touching the library::

      from repro.api import register_strategy

      @register_strategy("my_strategy", aliases=("mine",))
      def build(T=1, phi=1):
          return MyStrategy(T=T, phi=phi)

* declarative :class:`~repro.api.request.SolveRequest` objects can
  validate component names eagerly, at construction time.

Names are normalised (lower-cased, ``-`` → ``_``) before lookup, so
``"Block-Jacobi"`` resolves to ``"block_jacobi"``.  Duplicate
registration is an error unless ``overwrite=True`` is passed (useful
for tests and deliberate monkey-patching).

Builder conventions
-------------------
``strategy``
    Called with those of the request fields :data:`STRATEGY_KNOBS`
    (``T``, ``phi``, ``rule``, ``destinations``) it names — all of them
    if it takes ``**kwargs`` — plus the request's ``strategy_params``;
    must return a :class:`~repro.solvers.engine.ResilienceStrategy`.
    A ``strategy_params`` key the builder does not name is refused when
    the request is built (:func:`check_strategy_params`), unless the
    builder takes ``**kwargs``.
``preconditioner``
    Called with the user's keyword arguments; must return a
    :class:`~repro.preconditioners.base.Preconditioner`.
``matrix``
    Called as ``builder(scale, seed)``; may return either a square
    SPD scipy sparse matrix or a ``(matrix, grid, dofs_per_point)``
    triple (the built-in generators use the triple form).
``kernel backend``
    Called with no arguments; must return a
    :class:`~repro.kernels.KernelBackend` (see :mod:`repro.kernels`
    for the backend contract).
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Iterable, Mapping

from ..exceptions import ConfigurationError

#: A builder's signature, worked out once per builder.
builder_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def canonical_name(name: str) -> str:
    """Normalised registry key: lower-case with ``-`` folded to ``_``."""
    return str(name).strip().lower().replace("-", "_")


class Registry:
    """A named component registry with alias resolution.

    One instance exists per component kind (:data:`STRATEGIES`,
    :data:`PRECONDITIONERS`, :data:`MATRICES`); the ``register_*``
    decorators below are thin wrappers over :meth:`register`.
    """

    def __init__(self, kind: str):
        self.kind = str(kind)
        self._builders: dict[str, Callable[..., Any]] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------ registration

    def register(
        self,
        name: str,
        builder: Callable[..., Any] | None = None,
        *,
        aliases: Iterable[str] = (),
        overwrite: bool = False,
    ):
        """Register ``builder`` under ``name`` (and ``aliases``).

        Usable as a plain call (``registry.register("x", build_x)``) or
        as a decorator (``@registry.register("x")``).  Registering a
        name or alias that is already taken raises
        :class:`~repro.exceptions.ConfigurationError` unless
        ``overwrite=True``.
        """

        def apply(fn: Callable[..., Any]) -> Callable[..., Any]:
            key = canonical_name(name)
            keys = [key] + [canonical_name(a) for a in aliases]
            if not overwrite:
                for candidate in keys:
                    if candidate in self._builders or candidate in self._aliases:
                        raise ConfigurationError(
                            f"{self.kind} {candidate!r} is already registered; "
                            "pass overwrite=True to replace it"
                        )
            # Overwriting a canonical name drops aliases that pointed at
            # a previous registration of the same key only if re-stated.
            self._aliases = {
                a: t for a, t in self._aliases.items() if a not in keys
            }
            self._builders[key] = fn
            for alias in keys[1:]:
                self._builders.pop(alias, None)
                self._aliases[alias] = key
            return fn

        if builder is not None:
            return apply(builder)
        return apply

    def unregister(self, name: str) -> None:
        """Remove a registration and every alias pointing at it."""
        key = canonical_name(name)
        key = self._aliases.get(key, key)
        self._builders.pop(key, None)
        self._aliases = {
            a: t for a, t in self._aliases.items() if t != key and a != key
        }

    # ------------------------------------------------------------------ lookup

    def resolve(self, name: str) -> str:
        """Canonical registered name for ``name`` (aliases resolved)."""
        key = canonical_name(name)
        key = self._aliases.get(key, key)
        if key not in self._builders:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            )
        return key

    def get(self, name: str) -> Callable[..., Any]:
        """The builder registered under ``name`` (or an alias of it)."""
        return self._builders[self.resolve(name)]

    def create(self, name: str, *args, **kwargs) -> Any:
        """Instantiate: ``registry.create(name, ...)`` calls the builder."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        """Sorted canonical names (no aliases)."""
        return tuple(sorted(self._builders))

    def aliases(self) -> dict[str, str]:
        """Alias → canonical-name mapping (a copy)."""
        return dict(self._aliases)

    def __contains__(self, name: object) -> bool:
        try:
            self.resolve(str(name))
        except ConfigurationError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry(kind={self.kind!r}, names={list(self.names())})"


#: Resilience strategies (built-ins registered by :mod:`repro.core.strategies`).
STRATEGIES = Registry("strategy")
#: Preconditioners (built-ins registered by :mod:`repro.preconditioners`).
PRECONDITIONERS = Registry("preconditioner")
#: Named test problems (built-ins registered by :mod:`repro.matrices.suite`).
MATRICES = Registry("matrix")
#: Compute-kernel backends (built-ins registered by :mod:`repro.kernels`).
KERNELS = Registry("kernel backend")


#: The request fields a strategy builder is called with, if it names them.
STRATEGY_KNOBS = ("T", "phi", "rule", "destinations")


def check_strategy_params(name: str, params: Mapping[str, Any]) -> None:
    """Refuse ``strategy_params`` that strategy ``name``'s builder does not take.

    Raises :class:`~repro.exceptions.ConfigurationError` for a key the
    builder does not name (unless it takes ``**kwargs``) and for the
    request fields :data:`STRATEGY_KNOBS`, which are set on the request
    itself.  Values are checked by the builder.
    """
    knobs = sorted(set(params).intersection(STRATEGY_KNOBS))
    if knobs:
        raise ConfigurationError(
            f"strategy_params may not set the request fields {knobs}"
        )
    try:
        builder_signature(STRATEGIES.get(name)).bind_partial(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad strategy_params for strategy {name!r}: {exc}"
        ) from exc


def register_strategy(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Decorator: register a strategy builder in :data:`STRATEGIES`."""
    return STRATEGIES.register(name, aliases=aliases, overwrite=overwrite)


def register_preconditioner(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Decorator: register a preconditioner builder in :data:`PRECONDITIONERS`."""
    return PRECONDITIONERS.register(name, aliases=aliases, overwrite=overwrite)


def register_matrix(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Decorator: register a test-problem generator in :data:`MATRICES`."""
    return MATRICES.register(name, aliases=aliases, overwrite=overwrite)


def register_backend(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Decorator: register a compute-kernel backend in :data:`KERNELS`.

    The builder is called with no arguments and must return a
    :class:`~repro.kernels.KernelBackend`.  Registering a class whose
    constructor takes no arguments works directly::

        @register_backend("my_backend")
        class MyBackend(KernelBackend):
            ...
    """
    return KERNELS.register(name, aliases=aliases, overwrite=overwrite)
