"""The one base of bitgather's validated value types: it generates no code at import."""


class Frozen:
    """Immutable value over the fields named in `_fields`: built by keyword or position, then
    checked by `_check`; equal and hashed by class and fields; shown as Name(field=value, ...).
    Fields sit in the instance __dict__, which pickling copies and a cached_property adds to."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):  # not all positional; all by keyword builds no set or tuple
            rest = names[len(args) :]  # the fields after the positional ones
            if len(args) > len(names) or len(kwargs) != len(rest) or not all(map(kwargs.__contains__, rest)):
                raise TypeError(f"{type(self).__qualname__} takes exactly the fields {', '.join(names)}")
            args = (*args, *map(kwargs.__getitem__, rest)) if args else map(kwargs.__getitem__, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)  # one by one, so instances share a key table
        self._check()

    def _check(self) -> None:
        """Validation run once the fields are set; none by default."""

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={vars(self)[k]!r}' for k in self._fields)})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__  # del takes no value: *_ is empty
