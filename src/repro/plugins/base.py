"""Plugin interface and registry."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from repro.core.infoset import ConfigSet
from repro.core.templates.base import FaultScenario
from repro.core.views.base import View
from repro.errors import SpecError

__all__ = [
    "ErrorGeneratorPlugin",
    "register_plugin",
    "get_plugin",
    "available_plugins",
    "registered_plugins",
    "positive_int_param",
    "string_list_param",
]


def positive_int_param(key: str, value: Any) -> int | None:
    """Validate an optional positive-integer spec parameter.

    Raises :class:`~repro.errors.SpecError` whose message starts with the
    parameter name, so callers can prefix it with the spec path.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key}: expected a positive integer, got {value!r}")
    if value < 1:
        raise SpecError(f"{key}: must be a positive integer, got {value}")
    return value


def string_list_param(key: str, value: Any, allowed: Sequence[str] | None = None) -> list[str]:
    """Validate a list-of-strings spec parameter, optionally against ``allowed``.

    Duplicates are rejected: plugins iterate these lists verbatim, so a
    repeated entry would silently double the generated scenarios.
    """
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{key}: expected a list of strings, got {value!r}")
    names = list(value)
    seen: set[str] = set()
    for name in names:
        if not isinstance(name, str):
            raise SpecError(f"{key}: expected a list of strings, got element {name!r}")
        if allowed is not None and name not in allowed:
            from repro.analysis.suggest import unknown_name_error

            raise unknown_name_error(key, "value", name, allowed)
        if name in seen:
            raise SpecError(f"{key}: duplicate value {name!r}; list each entry once")
        seen.add(name)
    return names

_REGISTRY: dict[str, type["ErrorGeneratorPlugin"]] = {}


class ErrorGeneratorPlugin(ABC):
    """An error model packaged for the injection engine.

    A plugin declares the :class:`~repro.core.views.base.View` it operates on
    and generates :class:`FaultScenario` objects from the *view* of the
    configuration set.  The engine owns the rest of the pipeline: applying a
    scenario to a fresh view, mapping the mutated view back to the native
    trees and serialising them.
    """

    #: Registry name of the plugin.
    name: str = "plugin"

    #: Spec-level parameter names :meth:`from_params` accepts.  Declarative
    #: experiment specs use this both to validate plugin parameters and to
    #: decide which execution-level defaults (``mutations_per_token``,
    #: ``max_scenarios_per_class``, ``layout``) a plugin can receive.
    param_names: tuple[str, ...] = ()

    @property
    @abstractmethod
    def view(self) -> View:
        """View this plugin's scenarios are defined on."""

    @abstractmethod
    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        """Produce the fault scenarios for one campaign run."""

    def manifest_params(self) -> dict:
        """JSON-native description of this plugin's configuration.

        Persisted in a result-store manifest so a resumed suite can verify
        it is continuing the same experiment.  Values must survive a JSON
        round-trip unchanged (lists, not tuples), and feeding them back into
        :meth:`from_params` must reconstruct an equivalent plugin --
        ``manifest_params`` and ``from_params`` are inverses.
        """
        return {}

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "ErrorGeneratorPlugin":
        """Construct the plugin from a JSON-native parameter dict.

        The inverse of :meth:`manifest_params`: construction must not depend
        on any CLI machinery, only on plain data.  Implementations raise
        :class:`~repro.errors.SpecError` with messages starting with the
        offending parameter name, so spec validation can report the exact
        path (``plugins[1].params.layout: ...``).

        The default implementation checks the keys against
        :attr:`param_names` and passes them to the constructor verbatim.
        """
        cls.check_param_names(params)
        return cls(**dict(params))

    @classmethod
    def param_name_errors(cls, params: Mapping[str, Any]) -> list[SpecError]:
        """One ``spec/unknown-plugin-param`` error per name outside :attr:`param_names`.

        Each carries a did-you-mean suggestion computed by the spelling
        plugin's own typo models -- most parameter mistakes are one
        psychomotor slip away from the name that was meant.
        """
        errors = []
        for key in params:
            if key not in cls.param_names:
                from repro.analysis.suggest import suggestion_suffix

                errors.append(
                    SpecError(
                        f"{key}: unknown parameter for plugin {cls.name!r}; "
                        f"known: {', '.join(cls.param_names) or '(none)'}"
                        f"{suggestion_suffix(key, cls.param_names)}",
                        "spec/unknown-plugin-param",
                    )
                )
        return errors

    @classmethod
    def check_param_names(cls, params: Mapping[str, Any]) -> None:
        """Reject the first parameter name outside :attr:`param_names`."""
        for error in cls.param_name_errors(params):
            raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def register_plugin(plugin_class: type[ErrorGeneratorPlugin]) -> type[ErrorGeneratorPlugin]:
    """Class decorator registering a plugin under its ``name``."""
    _REGISTRY[plugin_class.name] = plugin_class
    return plugin_class


def get_plugin(name: str) -> type[ErrorGeneratorPlugin]:
    """Return the plugin class registered under ``name``."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown plugin {name!r}; available: {available_plugins()}")
    return _REGISTRY[name]


def available_plugins() -> list[str]:
    """Names of all registered plugins, sorted."""
    return sorted(_REGISTRY)


def registered_plugins() -> dict[str, type[ErrorGeneratorPlugin]]:
    """Snapshot of the registry as ``{name: class}``.

    The self-lint's ``harness/param-drift`` rule iterates this to check
    every plugin's ``param_names``/``from_params``/``manifest_params``
    triangle; a copy is returned so callers cannot mutate the registry.
    """
    return dict(_REGISTRY)
