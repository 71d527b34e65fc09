"""The recursive report converter that ``cli.write_json`` once applied to
every payload, kept as the oracle of its one-level ``fields`` hook:
``json.dumps(reference_json_data(payload), sort_keys=True, indent=2)`` is
the text each artifact must keep."""


def reference_json_data(value):
    """``value`` as JSON data: a report dataclass as the dict of its fields
    and a tuple as a list, all the way down."""
    kind = type(value)
    if kind is float or kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:
        return [reference_json_data(v) for v in value]
    if kind is dict:
        return {k: reference_json_data(v) for k, v in value.items()}
    names = getattr(kind, "__dataclass_fields__", None)
    if names is None:
        return value
    return {name: reference_json_data(getattr(value, name)) for name in names}
