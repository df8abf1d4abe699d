"""Immutable records: the one base of ggt's value classes.

A record class lists its fields as annotations in its own body and
writes them in its own __init__, with one vars(self).update(...), before
it runs its checks.  Two records are equal when they are of the same
class and their field tuples are equal, and a record hashes as its field
tuple does.  It prints as Name(field=value, ...), and it refuses every
assignment and deletion.  Its __dict__ stays, so a cached_property keeps
its value there, outside the fields, the equality and the hash.

Nothing is generated or compiled when a record class is defined: the
base reads the field names once, and every method is shared.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of a frozen value class whose fields are its annotations."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        fields = vars(self)
        return tuple([fields[name] for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields,
                                                  self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
