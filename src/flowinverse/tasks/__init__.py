"""The three inverse-problem tasks by name; each solver is imported from its
own module, such as ``tasks.seir.seir_solve`` or ``tasks.darcy.darcy_solve``."""

from .darcy import DarcyTask
from .nonlinear import NonlinearTask
from .seir import SeirTask

TASKS = {"nonlinear": NonlinearTask, "seir": SeirTask, "darcy": DarcyTask}


def get_task(name: str):
    """Construct a task by name ('nonlinear', 'seir', 'darcy')."""
    if name not in TASKS:
        raise ValueError(f"unknown task '{name}'; expected one of {sorted(TASKS)}")
    return TASKS[name]()
