"""The base of the errors the command line reports as one ``Error:`` line."""


class MolragError(Exception):
    """A refused setting, path or input, or a failed backend call: the command line
    prints it as one ``Error: <message>`` line and exits 1.

    It is the base of ``cli.CliError``, ``store.StoreError``, ``prompt.PromptError``,
    ``llm.BackendError`` and ``llm.ReplayError``, so that the command line catches them
    all without importing the modules that define them.
    """
