"""Wall-clock benchmark of the task farm (see ``run.py``)."""
