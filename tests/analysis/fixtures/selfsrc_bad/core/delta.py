"""Fixture: supports_delta patched without implementing _start_from_trees."""


class OverconfidentSut:
    def supports_delta(self):
        return True

    def start_delta(self, baseline, delta):
        return None
