"""Registry mapping configuration section names to module classes.

The configuration file instantiates modules by type name (the text in
square brackets); the registry resolves those names to :class:`Module`
subclasses.  ASDF ships a standard registry
(:func:`repro.modules.standard_registry`) and users extend it with their
own modules -- the paper's flexibility requirement.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Type

from .errors import ConfigError
from .module import Module


class ModuleRegistry:
    """A name -> module-class mapping with fail-fast registration."""

    def __init__(self) -> None:
        self._types: Dict[str, Type[Module]] = {}

    def register(self, module_class: Type[Module]) -> Type[Module]:
        """Register ``module_class`` under its ``type_name``.

        Usable as a decorator.  Re-registering a name with a *different*
        class is an error; re-registering the same class is idempotent.
        """
        name = module_class.type_name
        if not name:
            raise ConfigError(
                f"module class {module_class.__name__} has no type_name"
            )
        existing = self._types.get(name)
        if existing is not None and existing is not module_class:
            raise ConfigError(
                f"module type '{name}' is already registered "
                f"(by {existing.__name__})"
            )
        self._types[name] = module_class
        return module_class

    def resolve(self, type_name: str) -> Type[Module]:
        try:
            return self._types[type_name]
        except KeyError:
            raise ConfigError(
                f"unknown module type '{type_name}' "
                f"(registered: {sorted(self._types)})"
            ) from None

    def get(self, type_name: str) -> Optional[Type[Module]]:
        """The class registered under ``type_name``; None if there is none."""
        return self._types.get(type_name)

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._types))

    def __len__(self) -> int:
        return len(self._types)

    def copy(self) -> "ModuleRegistry":
        """Return an independent copy (for extending without mutation)."""
        clone = ModuleRegistry()
        clone._types = dict(self._types)
        return clone
