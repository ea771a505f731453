"""Forward models and priors for the three inverse-problem tasks."""

from .nonlinear import NonlinearTask
from .seir import SeirTask, SeirConstants, seir_solve
from .darcy import (
    DarcyTask,
    DarcyConstants,
    kl_basis_build,
    kl_expand,
    darcy_solve,
    darcy_observe,
)

TASKS = {"nonlinear": NonlinearTask, "seir": SeirTask, "darcy": DarcyTask}


def get_task(name: str, **kwargs):
    """Construct a task by name ('nonlinear', 'seir', 'darcy')."""
    if name not in TASKS:
        raise ValueError(f"unknown task '{name}'; expected one of {sorted(TASKS)}")
    return TASKS[name](**kwargs)


__all__ = [
    "NonlinearTask", "SeirTask", "SeirConstants", "DarcyTask", "DarcyConstants",
    "seir_solve", "kl_basis_build", "kl_expand", "darcy_solve",
    "darcy_observe", "get_task", "TASKS",
]
