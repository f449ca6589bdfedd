"""``Module``/``Parameter`` containers with recursive parameter discovery.

The optimizer APIs in :mod:`repro.optim` and :mod:`repro.core` operate on
the ``Parameter`` lists these containers expose.  ``state_dict`` /
``load_state_dict`` copy raw arrays so optimizers holding weight *history*
(delay simulation) can snapshot and restore model state cheaply.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, requires_grad: bool = True, dtype=None):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__`` (they are auto-registered) and implement ``forward``.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # -- registration -------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        params = self.__dict__.get("_params")
        modules = self.__dict__.get("_modules")
        if params is None or modules is None:
            raise RuntimeError(
                "Module.__init__() must be called before assigning attributes"
            )
        params.pop(name, None)
        modules.pop(name, None)
        if isinstance(value, Parameter):
            params[name] = value
        elif isinstance(value, Module):
            modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Track non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(array)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, array: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(array)
        object.__setattr__(self, name, self._buffers[name])

    # -- forward -------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal -----------------------------------------------------------

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, mod in self._modules.items():
            sub_prefix = f"{prefix}.{name}" if prefix else name
            yield from mod.named_modules(sub_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, mod in self.named_modules():
            yield mod

    def named_parameters(
        self, prefix: str = ""
    ) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        for mod_name, mod in self.named_modules(prefix):
            for p_name, p in mod._params.items():
                if id(p) in seen:
                    continue
                seen.add(id(p))
                full = f"{mod_name}.{p_name}" if mod_name else p_name
                yield full, p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for mod_name, mod in self.named_modules(prefix):
            for b_name, b in mod._buffers.items():
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                yield full, b

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for mod in self.modules():
            fn(mod)
        return self

    # -- mode / grads ----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- state -----------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter and buffer arrays, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            state[f"{name}"] = b.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict key match)."""
        own_params = dict(self.named_parameters())
        own_buffers = {}
        for mod_name, mod in self.named_modules():
            for b_name in mod._buffers:
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                own_buffers[full] = (mod, b_name)
        expected = set(own_params) | set(own_buffers)
        if expected != set(state):
            missing = expected - set(state)
            extra = set(state) - expected
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        for name, arr in state.items():
            if name in own_params:
                p = own_params[name]
                if p.data.shape != arr.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {p.data.shape} vs {arr.shape}"
                    )
                p.data = arr.astype(p.data.dtype, copy=True)
            else:
                mod, b_name = own_buffers[name]
                mod.set_buffer(b_name, arr.copy())


@contextmanager
def modules_eval_mode(modules: Iterable[Module]):
    """Hold the given modules in eval mode (restore previous on exit) —
    the one save/eval/restore implementation every caller shares (ring
    layout probes, serving streams, offline references, the sequential
    baseline)."""
    modules = list(modules)
    prev = [m.training for m in modules]
    for m in modules:
        m.eval()
    try:
        yield
    finally:
        for m, mode in zip(modules, prev):
            m.train(mode)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        if len(modules) == 1 and isinstance(modules[0], (list, tuple)):
            modules = tuple(modules[0])
        self._seq: list[Module] = []
        for i, mod in enumerate(modules):
            setattr(self, f"m{i}", mod)
            self._seq.append(mod)

    def forward(self, x):
        for mod in self._seq:
            x = mod(x)
        return x

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, i: int) -> Module:
        return self._seq[i]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._seq)


class ModuleList(Module):
    """List container whose entries are registered as sub-modules."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        self._list: list[Module] = []
        for mod in modules:
            self.append(mod)

    def append(self, mod: Module) -> None:
        setattr(self, f"m{len(self._list)}", mod)
        self._list.append(mod)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, i: int) -> Module:
        return self._list[i]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container; call its entries directly")
