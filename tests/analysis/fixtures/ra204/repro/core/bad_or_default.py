"""Seeded RA204: ``x or Class()`` defaults on classes that can be falsy."""


class Shelf:
    def __init__(self):
        self.items = []

    def __len__(self):
        return len(self.items)


class Gate:
    def __bool__(self):
        return False


class Plain:
    pass


class Reader:
    def __init__(self, shelf=None, gate=None, plain=None, other=None):
        self.shelf = shelf or Shelf()  # RA204: an empty shared shelf is dropped
        self.gate = gate or Gate()  # RA204: __bool__ counts too
        self.plain = plain or Plain()  # fine: Plain() is always truthy
        self.other = other if other is not None else Shelf()  # the fix
