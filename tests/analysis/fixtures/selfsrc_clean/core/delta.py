"""Fixture: delta support advertised by implementing the tree walk."""


class HonestSut:
    def supports_delta(self):
        return True

    def _start_from_trees(self, trees, files):
        return None
